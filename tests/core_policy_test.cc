// Unit tests for the paper's adaptive home-migration protocol equations
// (Section 4.2) and the baseline policies, independent of the DSM engine.
#include "src/core/policy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/coefficient.h"

namespace hmdsm::core {
namespace {

// ---------------------------------------------------------------------------
// ObjPolicyState event bookkeeping
// ---------------------------------------------------------------------------

TEST(ObjPolicyState, ConsecutiveRemoteWritesFromSameNodeAccumulate) {
  ObjPolicyState s;
  EXPECT_EQ(s.RecordRemoteWrite(3), 1u);
  EXPECT_EQ(s.RecordRemoteWrite(3), 2u);
  EXPECT_EQ(s.RecordRemoteWrite(3), 3u);
  EXPECT_EQ(s.consecutive_writer, 3u);
}

TEST(ObjPolicyState, DifferentWriterResetsTheStream) {
  ObjPolicyState s;
  s.RecordRemoteWrite(3);
  s.RecordRemoteWrite(3);
  EXPECT_EQ(s.RecordRemoteWrite(5), 1u);
  EXPECT_EQ(s.consecutive_writer, 5u);
}

TEST(ObjPolicyState, HomeWriteInterleavesTheStream) {
  // Paper: consecutive remote writes must not be interleaved with writes
  // from the home node.
  ObjPolicyState s;
  s.RecordRemoteWrite(3);
  s.RecordRemoteWrite(3);
  s.RecordHomeWrite();
  EXPECT_EQ(s.consecutive_remote_writes, 0u);
  EXPECT_EQ(s.RecordRemoteWrite(3), 1u);  // stream restarts
}

TEST(ObjPolicyState, ExclusiveHomeWriteDefinition) {
  // An exclusive home write has no remote write between it and an earlier
  // home write (paper Section 4.1).
  ObjPolicyState s;
  EXPECT_FALSE(s.RecordHomeWrite());  // no earlier home write
  EXPECT_TRUE(s.RecordHomeWrite());   // exclusive
  EXPECT_TRUE(s.RecordHomeWrite());   // exclusive
  s.RecordRemoteWrite(2);
  EXPECT_FALSE(s.RecordHomeWrite());  // remote write intervened
  EXPECT_TRUE(s.RecordHomeWrite());
  EXPECT_EQ(s.exclusive_home_writes, 3u);
}

TEST(ObjPolicyState, RedirectAccumulation) {
  // A request redirected three times counts three (paper Section 4.1).
  ObjPolicyState s;
  s.RecordRedirectHops(3);
  s.RecordRedirectHops(1);
  EXPECT_EQ(s.redirected_requests, 4u);
}

TEST(ObjPolicyState, DiffSizeRunningAverage) {
  ObjPolicyState s;
  s.RecordDiffSize(100);
  s.RecordDiffSize(200);
  s.RecordDiffSize(300);
  EXPECT_DOUBLE_EQ(s.avg_diff_bytes, 200.0);
  EXPECT_EQ(s.diff_samples, 3u);
}

// ---------------------------------------------------------------------------
// Home access coefficient α (appendix)
// ---------------------------------------------------------------------------

TEST(Alpha, ExactFormula) {
  // α = (2·m½ + o + d) / (m½ + 1).
  EXPECT_DOUBLE_EQ(HomeAccessCoefficient(875, 875, 875),
                   (2 * 875.0 + 875 + 875) / 876.0);
}

TEST(Alpha, ApproximationConvergesForLargeHalfPeak) {
  const double o = 4096, d = 1024, mh = 875;
  const double exact = HomeAccessCoefficient(o, d, mh);
  const double approx = HomeAccessCoefficientApprox(o, d, mh);
  EXPECT_NEAR(exact, approx, approx * 0.01);  // within 1% when m½ >> 1
}

TEST(Alpha, UnitObjectCostsAboutTwo) {
  // A tiny object's fault-in + diff ≈ two unit messages vs one redirect.
  EXPECT_NEAR(HomeAccessCoefficient(8, 8, 875), 2.0, 0.05);
}

TEST(Alpha, GrowsWithObjectSize) {
  const double small = HomeAccessCoefficient(64, 64, 875);
  const double large = HomeAccessCoefficient(16384, 16384, 875);
  EXPECT_GT(large, small);
}

// ---------------------------------------------------------------------------
// Fixed-threshold policy
// ---------------------------------------------------------------------------

TEST(FixedThreshold, MigratesWhenConsecutiveWriterRequestsAtThreshold) {
  FixedThresholdPolicy ft(2);
  ObjPolicyState s;
  s.RecordRemoteWrite(4);
  EXPECT_FALSE(ft.ShouldMigrate(s, 4, 64, false));  // C=1 < 2
  s.RecordRemoteWrite(4);
  EXPECT_TRUE(ft.ShouldMigrate(s, 4, 64, false));  // C=2
  EXPECT_FALSE(ft.ShouldMigrate(s, 5, 64, false)); // other node: no
}

TEST(FixedThreshold, NameAndThreshold) {
  EXPECT_EQ(FixedThresholdPolicy(1).name(), "FT1");
  EXPECT_EQ(FixedThresholdPolicy(2).name(), "FT2");
  EXPECT_THROW(FixedThresholdPolicy(0), CheckError);
}

TEST(NoMigration, NeverMigrates) {
  NoMigrationPolicy nm;
  ObjPolicyState s;
  for (int i = 0; i < 100; ++i) s.RecordRemoteWrite(1);
  EXPECT_FALSE(nm.ShouldMigrate(s, 1, 64, true));
  EXPECT_TRUE(std::isinf(nm.LiveThreshold(s, 64)));
}

TEST(MigratingHome, MigratesOnEveryFault) {
  // JUMP-style: the requester becomes the home, read or write — the
  // access-pattern blindness the paper's Section 2 criticizes.
  MigratingHomePolicy mh;
  ObjPolicyState s;
  EXPECT_TRUE(mh.ShouldMigrate(s, 1, 64, true));
  EXPECT_TRUE(mh.ShouldMigrate(s, 1, 64, false));
}

// ---------------------------------------------------------------------------
// Adaptive-threshold policy (paper Eq. 1–3)
// ---------------------------------------------------------------------------

AdaptiveParams Params(double lambda = 1.0, double mh = 875.0) {
  AdaptiveParams p;
  p.feedback_coefficient = lambda;
  p.half_peak_bytes = mh;
  return p;
}

TEST(Adaptive, InitialThresholdIsOne) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  EXPECT_DOUBLE_EQ(at.LiveThreshold(s, 64), 1.0);
}

TEST(Adaptive, FirstConsecutiveWriteTriggersMigrationAtTInit) {
  // T_init = 1 "to speed up the initial data relocation" (Section 4.2).
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  s.RecordRemoteWrite(2);
  EXPECT_TRUE(at.ShouldMigrate(s, 2, 64, false));
  EXPECT_FALSE(at.ShouldMigrate(s, 3, 64, false));
}

TEST(Adaptive, NegativeFeedbackRaisesThreshold) {
  // T_i = max(T_{i-1} + λ(R − αE), T_init): redirects raise it.
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  s.RecordRedirectHops(3);
  EXPECT_DOUBLE_EQ(at.LiveThreshold(s, 64), 1.0 + 3.0);
  s.RecordRemoteWrite(6);
  EXPECT_FALSE(at.ShouldMigrate(s, 6, 64, false));  // C=1 < 4
}

TEST(Adaptive, PositiveFeedbackLowersThresholdTowardFloor) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  s.frozen_threshold = 5.0;
  // Two exclusive home writes with α≈2 pull the live threshold down ~4.
  s.RecordHomeWrite();
  s.RecordHomeWrite();
  s.RecordHomeWrite();  // E = 2 (first is not exclusive)
  const double alpha = at.Alpha(s, 8);
  EXPECT_NEAR(at.LiveThreshold(s, 8), std::max(5.0 - 2 * alpha, 1.0), 1e-9);
}

TEST(Adaptive, ThresholdNeverDropsBelowTInit) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  for (int i = 0; i < 50; ++i) s.RecordHomeWrite();
  EXPECT_DOUBLE_EQ(at.LiveThreshold(s, 64), 1.0);
}

TEST(Adaptive, MonotonicallyDecreasingInE) {
  // "The adaptive threshold is monotonously decreasing with increased
  // likelihood that an object presents the lasting single-writer pattern."
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  s.frozen_threshold = 40.0;
  double prev = at.LiveThreshold(s, 1024);
  for (int i = 0; i < 20; ++i) {
    s.RecordHomeWrite();
    const double t = at.LiveThreshold(s, 1024);
    EXPECT_LE(t, prev);
    prev = t;
  }
}

TEST(Adaptive, OnMigratedFreezesLiveThresholdAndResetsCounters) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  s.RecordRedirectHops(2);
  s.RecordRemoteWrite(3);
  const double live = at.LiveThreshold(s, 64);
  at.OnMigrated(s, 64);
  EXPECT_DOUBLE_EQ(s.frozen_threshold, live);
  EXPECT_EQ(s.consecutive_remote_writes, 0u);
  EXPECT_EQ(s.redirected_requests, 0u);
  EXPECT_EQ(s.exclusive_home_writes, 0u);
  EXPECT_EQ(s.consecutive_writer, kNoNode);
  EXPECT_EQ(s.epoch, 1u);
}

TEST(Adaptive, LambdaScalesTheFeedback) {
  AdaptiveThresholdPolicy half(Params(0.5));
  AdaptiveThresholdPolicy twice(Params(2.0));
  ObjPolicyState s;
  s.RecordRedirectHops(4);
  EXPECT_DOUBLE_EQ(half.LiveThreshold(s, 64), 1.0 + 0.5 * 4);
  EXPECT_DOUBLE_EQ(twice.LiveThreshold(s, 64), 1.0 + 2.0 * 4);
}

TEST(Adaptive, AlphaUsesObservedDiffSizes) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  // Before samples: d falls back to o.
  EXPECT_DOUBLE_EQ(at.Alpha(s, 1000),
                   HomeAccessCoefficient(1000, 1000, 875));
  s.RecordDiffSize(10);
  EXPECT_DOUBLE_EQ(at.Alpha(s, 1000), HomeAccessCoefficient(1000, 10, 875));
}

TEST(Adaptive, FixedAlphaOverride) {
  AdaptiveParams p = Params();
  p.fixed_alpha = 1.0;
  AdaptiveThresholdPolicy at(p);
  ObjPolicyState s;
  EXPECT_DOUBLE_EQ(at.Alpha(s, 100000), 1.0);
}

TEST(Adaptive, TransientPatternScenario) {
  // End-to-end of the core claim: with a transient single-writer pattern
  // (short write bursts rotating across nodes), redirect feedback
  // accumulates with no exclusive home writes, the threshold climbs, and
  // migration stops.
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  int migrations = 0;
  for (int round = 0; round < 10; ++round) {
    const NodeId writer = 1 + (round % 4);
    s.RecordRedirectHops(1);  // writer found the home via one redirect
    for (int w = 0; w < 2; ++w) {  // burst of 2 writes (transient)
      s.RecordRemoteWrite(writer);
      if (at.ShouldMigrate(s, writer, 8, true)) {
        at.OnMigrated(s, 8);
        ++migrations;
        break;  // home moved; writer now writes locally (burst over)
      }
    }
  }
  // The first round migrates (T_init=1); feedback then inhibits the rest.
  EXPECT_LE(migrations, 2);
}

TEST(Adaptive, LastingPatternScenario) {
  // With a lasting single-writer pattern the threshold stays at the floor
  // and migration happens promptly for each long-lived writer.
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  int migrations = 0;
  for (int phase = 0; phase < 5; ++phase) {
    const NodeId writer = 1 + phase;
    s.RecordRedirectHops(1);
    bool migrated = false;
    for (int w = 0; w < 16; ++w) {
      s.RecordRemoteWrite(writer);
      if (!migrated && at.ShouldMigrate(s, writer, 8, true)) {
        at.OnMigrated(s, 8);
        ++migrations;
        migrated = true;
        // After migration the writer's remaining 14 writes are exclusive
        // home writes.
        for (int h = 0; h < 14; ++h) s.RecordHomeWrite();
        break;
      }
    }
    EXPECT_TRUE(migrated) << "phase " << phase;
  }
  EXPECT_EQ(migrations, 5);
}

// ---------------------------------------------------------------------------
// Sync locality (S): piggybacked diffs at the lock/barrier manager
// ---------------------------------------------------------------------------

/// A remote write from `writer` whose diff rode a sync message to the home
/// at manager node 0.
void PiggybackedWrite(ObjPolicyState& s, NodeId writer) {
  s.RecordRemoteWrite(writer);
  s.RecordPiggyback(writer, /*home=*/0);
}

TEST(SyncLocality, MixedPiggybackingWritersKeepTheHome) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState piggy;
  ObjPolicyState standalone;
  for (NodeId writer : {1, 2, 1, 1}) {
    PiggybackedWrite(piggy, writer);
    standalone.RecordRemoteWrite(writer);
  }
  // Writer 1 holds C=2 either way; the piggybacking writer changed twice.
  EXPECT_EQ(piggy.consecutive_remote_writes, 2u);
  EXPECT_EQ(piggy.piggyback_switches, 2u);
  EXPECT_DOUBLE_EQ(at.LiveThreshold(piggy, 64), 1.0 + 2.0);
  EXPECT_FALSE(at.ShouldMigrate(piggy, 1, 64, true));
  // The same writes sent standalone carry no sync locality to lose.
  EXPECT_TRUE(at.ShouldMigrate(standalone, 1, 64, true));
}

TEST(SyncLocality, SinglePiggybackingWriterMigratesAtTheSameC) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState piggy;
  ObjPolicyState standalone;
  piggy.RecordRedirectHops(2);  // T = 3 for both
  standalone.RecordRedirectHops(2);
  int piggy_c = 0;
  int standalone_c = 0;
  for (int c = 1; c <= 5; ++c) {
    PiggybackedWrite(piggy, 4);
    standalone.RecordRemoteWrite(4);
    if (piggy_c == 0 && at.ShouldMigrate(piggy, 4, 64, true)) piggy_c = c;
    if (standalone_c == 0 && at.ShouldMigrate(standalone, 4, 64, true))
      standalone_c = c;
  }
  EXPECT_EQ(piggy.piggyback_switches, 0u);
  EXPECT_EQ(piggy.sync_home, kNoNode);
  EXPECT_EQ(piggy_c, 3);
  EXPECT_EQ(standalone_c, 3);
}

TEST(SyncLocality, OnMigratedResetsTheCountAndKeepsTheSyncHome) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  for (NodeId writer : {1, 2, 3}) PiggybackedWrite(s, writer);
  EXPECT_EQ(s.piggyback_switches, 2u);
  const double live = at.LiveThreshold(s, 64);
  at.OnMigrated(s, 64);
  EXPECT_DOUBLE_EQ(s.frozen_threshold, live);
  EXPECT_EQ(s.piggyback_switches, 0u);
  EXPECT_EQ(s.piggyback_writer, kNoNode);
  EXPECT_EQ(s.sync_home, NodeId{0});
}

TEST(SyncLocality, SyncHomeTakesTheHomeBackWhenItWrites) {
  AdaptiveThresholdPolicy at(Params());
  ObjPolicyState s;
  for (NodeId writer : {1, 2}) PiggybackedWrite(s, writer);
  at.OnMigrated(s, 64);  // the home left manager node 0
  EXPECT_TRUE(at.ShouldMigrate(s, 0, 64, /*for_write=*/true));
  EXPECT_FALSE(at.ShouldMigrate(s, 0, 64, /*for_write=*/false));
  EXPECT_FALSE(at.ShouldMigrate(s, 1, 64, /*for_write=*/true));
}

TEST(Factory, BuildsEveryPolicy) {
  AdaptiveParams p;
  EXPECT_EQ(MakePolicy("NoHM", p)->name(), "NoHM");
  EXPECT_EQ(MakePolicy("FT1", p)->name(), "FT1");
  EXPECT_EQ(MakePolicy("FT2", p)->name(), "FT2");
  EXPECT_EQ(MakePolicy("FT16", p)->name(), "FT16");
  EXPECT_EQ(MakePolicy("AT", p)->name(), "AT");
  EXPECT_EQ(MakePolicy("MH", p)->name(), "MH");
  EXPECT_EQ(MakePolicy("LF", p)->name(), "LF");
  EXPECT_EQ(MakePolicy("BR", p)->name(), "BR");
  EXPECT_THROW(MakePolicy("bogus", p), CheckError);
}

TEST(LazyFlushing, PolicyDecisionTable) {
  LazyFlushingPolicy lf;
  ObjPolicyState s;
  // Nobody has requested yet: a write fault takes ownership.
  EXPECT_TRUE(lf.ShouldMigrate(s, 3, 64, true));
  EXPECT_FALSE(lf.ShouldMigrate(s, 3, 64, false));  // reads never do
  // A single prior requester that is the write-faulter: still unshared.
  s.RecordRequester(3);
  EXPECT_TRUE(lf.ShouldMigrate(s, 3, 64, true));
  // A different node already requested: shared, no transfer.
  EXPECT_FALSE(lf.ShouldMigrate(s, 5, 64, true));
  s.RecordRequester(5);
  EXPECT_TRUE(s.mixed_requesters);
  EXPECT_FALSE(lf.ShouldMigrate(s, 3, 64, true));
  // The transition cap.
  ObjPolicyState capped;
  capped.epoch = LazyFlushingPolicy::kMaxTransitions;
  EXPECT_FALSE(lf.ShouldMigrate(capped, 3, 64, true));
}

TEST(BarrierMigration, MigratesToPreviousEpochSoleWriter) {
  BarrierMigrationPolicy br;
  ObjPolicyState s;
  // Epoch 1: node 3 is the only writer.
  s.RecordEpochWrite(3, 1);
  s.RecordEpochWrite(3, 1);
  EXPECT_FALSE(br.ShouldMigrate(s, 3, 64, true));  // epoch not closed yet
  // Epoch 2 opens (first write after a barrier): epoch 1's verdict lands.
  s.RecordEpochWrite(3, 2);
  EXPECT_TRUE(br.ShouldMigrate(s, 3, 64, true));
  EXPECT_FALSE(br.ShouldMigrate(s, 5, 64, true));
}

TEST(BarrierMigration, MixedWritersDisqualifyTheEpoch) {
  BarrierMigrationPolicy br;
  ObjPolicyState s;
  s.RecordEpochWrite(3, 1);
  s.RecordEpochWrite(4, 1);  // second writer in the same epoch
  s.RecordEpochWrite(3, 2);
  EXPECT_FALSE(br.ShouldMigrate(s, 3, 64, true));
  EXPECT_FALSE(br.ShouldMigrate(s, 4, 64, true));
}

TEST(BarrierMigration, HomeWriteDisqualifiesTheEpoch) {
  BarrierMigrationPolicy br;
  ObjPolicyState s;
  s.RecordEpochWrite(3, 1);
  s.RecordEpochWrite(kNoNode, 1);  // trapped home write
  s.RecordEpochWrite(3, 2);
  EXPECT_FALSE(br.ShouldMigrate(s, 3, 64, true));
}

TEST(BarrierMigration, NoBarriersMeansNoMigration) {
  // The paper's criticism of Jidia: without barriers the epoch clock never
  // advances, so the previous-epoch verdict never forms.
  BarrierMigrationPolicy br;
  ObjPolicyState s;
  for (int i = 0; i < 100; ++i) s.RecordEpochWrite(3, 1);
  EXPECT_FALSE(br.ShouldMigrate(s, 3, 64, true));
}

TEST(ObjPolicyState, RequesterSharingBookkeeping) {
  ObjPolicyState s;
  EXPECT_EQ(s.sole_recent_requester, kNoNode);
  s.RecordRequester(7);
  EXPECT_EQ(s.sole_recent_requester, 7u);
  EXPECT_FALSE(s.mixed_requesters);
  s.RecordRequester(7);
  EXPECT_FALSE(s.mixed_requesters);
  s.RecordRequester(8);
  EXPECT_TRUE(s.mixed_requesters);
}

TEST(StateSerde, RoundTrip) {
  ObjPolicyState s;
  s.frozen_threshold = 7.25;
  s.RecordRemoteWrite(9);
  s.RecordRedirectHops(5);
  s.RecordHomeWrite();
  s.RecordDiffSize(321);
  s.epoch = 4;

  Writer w;
  s.Encode(w);
  Reader r(w.buffer());
  ObjPolicyState d = ObjPolicyState::Decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(d.frozen_threshold, s.frozen_threshold);
  EXPECT_EQ(d.consecutive_remote_writes, s.consecutive_remote_writes);
  EXPECT_EQ(d.consecutive_writer, s.consecutive_writer);
  EXPECT_EQ(d.redirected_requests, s.redirected_requests);
  EXPECT_EQ(d.exclusive_home_writes, s.exclusive_home_writes);
  EXPECT_EQ(d.epoch, s.epoch);
  EXPECT_EQ(d.home_written_since_remote, s.home_written_since_remote);
  EXPECT_EQ(d.avg_diff_bytes, s.avg_diff_bytes);
  EXPECT_EQ(d.diff_samples, s.diff_samples);
}

}  // namespace
}  // namespace hmdsm::core
