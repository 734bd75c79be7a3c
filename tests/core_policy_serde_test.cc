// ObjPolicyState Encode/Decode round-trip coverage.
//
// The policy state travels inside migration replies; a serde skew between
// Encode and Decode silently corrupts thresholds and feedback counters at
// the new home after every migration, so every field must survive the trip.
#include "src/core/policy.h"

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace hmdsm::core {
namespace {

ObjPolicyState RoundTrip(const ObjPolicyState& in) {
  Writer w;
  in.Encode(w);
  Reader r(w.buffer());
  ObjPolicyState out = ObjPolicyState::Decode(r);
  EXPECT_TRUE(r.done()) << "decode left trailing bytes";
  return out;
}

TEST(ObjPolicyStateSerde, DefaultStateRoundTrips) {
  const ObjPolicyState s;
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(ObjPolicyStateSerde, EveryFieldSurvives) {
  ObjPolicyState s;
  s.frozen_threshold = 17.25;
  s.consecutive_remote_writes = 11;
  s.consecutive_writer = 3;
  s.redirected_requests = 0x123456789ull;
  s.exclusive_home_writes = 0xABCDEFull;
  s.piggyback_writer = 2;
  s.piggyback_switches = 0x5A5A5A5A5Aull;
  s.sync_home = 8;
  s.epoch = 42;
  s.home_written_since_remote = true;
  s.avg_diff_bytes = 873.5;
  s.diff_samples = 99;
  s.sole_recent_requester = 7;
  s.mixed_requesters = true;
  s.write_epoch = 0xFEDCBA987ull;
  s.epoch_writer = 5;
  s.prev_epoch_writer = 6;

  const ObjPolicyState out = RoundTrip(s);
  EXPECT_EQ(out, s);
  // Spot-check the fields the migration policies actually read, so a
  // defaulted-== regression cannot mask a skew.
  EXPECT_DOUBLE_EQ(out.frozen_threshold, 17.25);
  EXPECT_EQ(out.consecutive_remote_writes, 11u);
  EXPECT_EQ(out.consecutive_writer, 3u);
  EXPECT_EQ(out.redirected_requests, 0x123456789ull);
  EXPECT_EQ(out.exclusive_home_writes, 0xABCDEFull);
  EXPECT_EQ(out.piggyback_writer, 2u);
  EXPECT_EQ(out.piggyback_switches, 0x5A5A5A5A5Aull);
  EXPECT_EQ(out.sync_home, 8u);
  EXPECT_EQ(out.epoch, 42u);
  EXPECT_TRUE(out.home_written_since_remote);
  EXPECT_DOUBLE_EQ(out.avg_diff_bytes, 873.5);
  EXPECT_EQ(out.diff_samples, 99u);
  EXPECT_EQ(out.sole_recent_requester, 7u);
  EXPECT_TRUE(out.mixed_requesters);
  EXPECT_EQ(out.write_epoch, 0xFEDCBA987ull);
  EXPECT_EQ(out.epoch_writer, 5u);
  EXPECT_EQ(out.prev_epoch_writer, 6u);
}

TEST(ObjPolicyStateSerde, SentinelNodeIdsSurvive) {
  ObjPolicyState s;
  s.consecutive_writer = dsm::kNoNode;
  s.piggyback_writer = dsm::kNoNode;
  s.sync_home = dsm::kNoNode;
  s.sole_recent_requester = dsm::kNoNode;
  s.epoch_writer = dsm::kNoNode;
  s.prev_epoch_writer = dsm::kNoNode;
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(ObjPolicyStateSerde, StateBuiltByFeedbackRecordingRoundTrips) {
  ObjPolicyState s;
  s.RecordRequester(2);
  s.RecordRemoteWrite(2);
  s.RecordRemoteWrite(2);
  s.RecordRedirectHops(3);
  s.RecordPiggyback(2, /*home=*/0);
  s.RecordPiggyback(3, /*home=*/0);
  s.RecordDiffSize(128);
  s.RecordDiffSize(64);
  s.RecordHomeWrite();
  s.RecordHomeWrite();  // exclusive
  s.RecordEpochWrite(2, /*barrier_epoch=*/1);
  s.RecordEpochWrite(2, /*barrier_epoch=*/2);
  EXPECT_EQ(RoundTrip(s), s);
}

TEST(ObjPolicyStateSerde, EncodedSizeIsStable) {
  // The wire size of the state is part of the protocol message format; a
  // change here must be deliberate (and versioned at the call sites).
  Writer w;
  ObjPolicyState{}.Encode(w);
  EXPECT_EQ(w.size(), 86u);
}

TEST(ObjPolicyStateSerde, FuzzRoundTrip) {
  Rng rng(20260730);
  for (int iter = 0; iter < 500; ++iter) {
    ObjPolicyState s;
    s.frozen_threshold = rng.uniform(0.0, 1e6);
    s.consecutive_remote_writes = static_cast<std::uint32_t>(rng.next());
    s.consecutive_writer = static_cast<dsm::NodeId>(rng.next());
    s.redirected_requests = rng.next();
    s.exclusive_home_writes = rng.next();
    s.piggyback_writer = static_cast<dsm::NodeId>(rng.next());
    s.piggyback_switches = rng.next();
    s.sync_home = static_cast<dsm::NodeId>(rng.next());
    s.epoch = static_cast<std::uint32_t>(rng.next());
    s.home_written_since_remote = rng.chance(0.5);
    s.avg_diff_bytes = rng.uniform(0.0, 1e9);
    s.diff_samples = static_cast<std::uint32_t>(rng.next());
    s.sole_recent_requester = static_cast<dsm::NodeId>(rng.next());
    s.mixed_requesters = rng.chance(0.5);
    s.write_epoch = rng.next();
    s.epoch_writer = static_cast<dsm::NodeId>(rng.next());
    s.prev_epoch_writer = static_cast<dsm::NodeId>(rng.next());
    ASSERT_EQ(RoundTrip(s), s) << "iter " << iter;
  }
}

TEST(ObjPolicyStateSerde, TruncatedStateThrows) {
  Writer w;
  ObjPolicyState{}.Encode(w);
  Bytes truncated(w.buffer().begin(), w.buffer().end() - 1);
  Reader r(truncated);
  EXPECT_THROW(ObjPolicyState::Decode(r), CheckError);
}

}  // namespace
}  // namespace hmdsm::core
