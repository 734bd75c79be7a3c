// Tests for the paper's synthetic single-writer benchmark (Figure 4) —
// the workload behind the sensitivity/robustness analysis of Figure 5.
#include <gtest/gtest.h>

#include "src/apps/synthetic.h"

namespace hmdsm::apps {
namespace {

gos::VmOptions Opts(const std::string& policy, std::size_t nodes = 9) {
  gos::VmOptions o;
  o.nodes = nodes;
  o.dsm.policy = policy;
  return o;
}

SyntheticConfig Cfg(int r, std::int64_t target = 256, int workers = 8) {
  SyntheticConfig c;
  c.repetition = r;
  c.target = target;
  c.workers = workers;
  return c;
}

TEST(Synthetic, CounterReachesTargetExactlyOncePerUpdate) {
  // Updates are serialized by the locks: the final count lands in
  // [target, target + r·workers) — a turn in flight can overshoot by < r.
  for (const char* policy : {"NoHM", "FT1", "FT2", "AT"}) {
    const auto res = RunSynthetic(Opts(policy), Cfg(4));
    EXPECT_GE(res.final_count, 256) << policy;
    EXPECT_LT(res.final_count, 256 + 4 * 8) << policy;
    EXPECT_GT(res.turns_taken, 0) << policy;
  }
}

TEST(Synthetic, RepetitionOneDegeneratesToLock0Loop) {
  const auto res = RunSynthetic(Opts("NoHM"), Cfg(1, 64, 4));
  EXPECT_GE(res.final_count, 64);
  EXPECT_EQ(res.turns_taken, res.final_count);  // one update per turn
}

TEST(Synthetic, SingleWriterRunsHaveLengthR) {
  // With FT1 and large r, the home migrates to each writer near the start
  // of its turn: remote writes per turn ≈ 1, home writes ≈ r-1. Check the
  // aggregate: diffs (remote writes) are a small fraction of updates.
  const auto res = RunSynthetic(Opts("FT1"), Cfg(16, 512));
  const double updates = static_cast<double>(res.final_count);
  const double remote_fraction =
      static_cast<double>(res.report.diffs_created) / updates;
  EXPECT_LT(remote_fraction, 0.25);
  EXPECT_GT(res.report.exclusive_home_writes, updates * 0.5);
}

TEST(Synthetic, NoHMFaultsOnEveryUpdate) {
  const auto res = RunSynthetic(Opts("NoHM"), Cfg(8, 256));
  // Every update re-faults the invalidated counter, except the first one
  // of a turn: each lock0 handoff carries the counter to the next holder
  // (only the very first grant is uncontended and carries nothing).
  EXPECT_GE(res.report.fault_ins + res.turns_taken - 1,
            static_cast<std::uint64_t>(res.final_count));
  EXPECT_GE(res.report.grant_copies,
            static_cast<std::uint64_t>(res.turns_taken - 1));
  EXPECT_EQ(res.report.migrations, 0u);
}

TEST(Synthetic, PaperHeadline87PercentEliminationAtRepetition16) {
  // Paper Section 5.2: at repetition 16, "87.2% of object fault-ins and
  // diff propagations are eliminated by FT1" — counted as protocol events
  // (remote read/write pairs), not wire messages. Require 80–95% for both
  // FT1 and AT (AT matches FT1 at large repetitions: sensitivity).
  const auto nm = RunSynthetic(Opts("NoHM"), Cfg(16, 512));
  const auto pairs = [](const SyntheticResult& r) {
    return r.report.fault_ins + r.report.diffs_created;
  };
  for (const char* policy : {"FT1", "AT"}) {
    const auto hm = RunSynthetic(Opts(policy), Cfg(16, 512));
    const double eliminated =
        1.0 - static_cast<double>(pairs(hm)) / static_cast<double>(pairs(nm));
    EXPECT_GT(eliminated, 0.80) << policy;
    EXPECT_LT(eliminated, 0.95) << policy;
  }
}

TEST(Synthetic, ATAvoidsFT1RedirectionBlowupAtSmallRepetition) {
  // Paper Section 5.2, robustness: at repetition 2 the fixed-threshold-1
  // protocol migrates constantly and pays redirections; AT inhibits.
  const auto ft1 = RunSynthetic(Opts("FT1"), Cfg(2, 256));
  const auto at = RunSynthetic(Opts("AT"), Cfg(2, 256));
  EXPECT_LT(at.report.migrations, ft1.report.migrations / 2);
  EXPECT_LT(at.report.redirect_hops, ft1.report.redirect_hops / 2);
}

TEST(Synthetic, FT2InhibitsMigrationAtRepetitionTwo) {
  // Paper: "FT2 prohibits home migration when the repetition is two" —
  // C reaches 2 only after the writer's last update of a turn, so the
  // writer's requests during the turn never meet the threshold. (One
  // stray migration can occur at the very end: the last writer's
  // break-check read arrives with its C still at 2.)
  const auto ft2 = RunSynthetic(Opts("FT2"), Cfg(2, 256));
  EXPECT_LE(ft2.report.migrations, 1u);
  EXPECT_LE(ft2.report.redirect_hops, 2u);
}

TEST(Synthetic, SyncMessagesFewerUnderATThanNoHM) {
  // Paper: "We do not consider synchronization messages because they are
  // invariable in all cases." Here they are not: once AT migrates the
  // counter to its writer, lock1's releases carry no diff and the lock
  // stays with the writer, so AT sends fewer. Under NoHM every release
  // carries the counter's diff to its home, so the count is pinned.
  const auto nm = RunSynthetic(Opts("NoHM"), Cfg(4, 128, 2));
  const auto at = RunSynthetic(Opts("AT"), Cfg(4, 128, 2));
  ASSERT_EQ(nm.final_count, at.final_count);
  ASSERT_EQ(nm.turns_taken, at.turns_taken);
  const auto sync = [](const SyntheticResult& r) {
    return r.report.cat[static_cast<int>(stats::MsgCat::kSync)].messages;
  };
  EXPECT_EQ(sync(nm), 391u);
  EXPECT_LT(sync(at), sync(nm));
  EXPECT_GT(at.report.lock_local_acquires, 0u);
}

TEST(Synthetic, Deterministic) {
  const auto a = RunSynthetic(Opts("AT"), Cfg(4, 128));
  const auto b = RunSynthetic(Opts("AT"), Cfg(4, 128));
  EXPECT_EQ(a.report.seconds, b.report.seconds);
  EXPECT_EQ(a.report.messages, b.report.messages);
  EXPECT_EQ(a.final_count, b.final_count);
}

}  // namespace
}  // namespace hmdsm::apps
