// Regression tests for the live-poll line. The original PollLoop computed
// `msgs - prev_msgs` on uint64 cluster totals even when a best-effort poll
// window missed some process's reply — the partial total could be
// *smaller* than the previous complete one, and the subtraction wrapped to
// ~1.8e19 msgs/s in the stderr line and the --poll-out JSON.
// Coordinator::PollRate is the pure seam: it returns 0 (no rate) for any
// window that cannot be differenced safely, and PollCursor only advances
// onto complete samples. Two more defects of the stderr line are pinned
// here: the first sample always read 0/s (the cursor had no baseline), and
// sub-second samples all printed t=0.0s.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/netio/coordinator.h"

namespace hmdsm::netio {
namespace {

TEST(PollRate, SteadyWindowYieldsRate) {
  // 1000 new messages over half a second, all 7 peers answered.
  EXPECT_DOUBLE_EQ(Coordinator::PollRate(5000, 4000, 0.5, 7, 7), 2000.0);
}

TEST(PollRate, MissingReplySuppressesRate) {
  // 6 of 7 processes answered: the total is partial and must not be
  // differenced against the last complete total.
  EXPECT_DOUBLE_EQ(Coordinator::PollRate(4100, 4000, 0.5, 6, 7), 0.0);
}

TEST(PollRate, BackwardTotalDoesNotUnderflow) {
  // The underflow shape itself: a partial total below the cursor. Before
  // the fix this produced (2^64 - 900) / 0.5 ≈ 3.7e19 msgs/s.
  const double rate = Coordinator::PollRate(4000, 4900, 0.5, 7, 7);
  EXPECT_DOUBLE_EQ(rate, 0.0);
  EXPECT_GE(rate, 0.0);
}

TEST(PollRate, ZeroOrNegativeDtSuppressesRate) {
  EXPECT_DOUBLE_EQ(Coordinator::PollRate(5000, 4000, 0.0, 7, 7), 0.0);
  EXPECT_DOUBLE_EQ(Coordinator::PollRate(5000, 4000, -0.1, 7, 7), 0.0);
}

TEST(PollRate, SingleProcessMeshNeedsNoReplies) {
  // One process hosting every rank: others == 0, every window complete.
  EXPECT_DOUBLE_EQ(Coordinator::PollRate(300, 100, 1.0, 0, 0), 200.0);
}

TEST(PollCursor, FirstSampleRatesAgainstTheSeed) {
  // StartPolling seeds the cursor at the start clock, so the very first
  // sample already yields a rate: 500 messages in 20ms.
  Coordinator::PollCursor cursor{0, 1'000'000'000};
  EXPECT_DOUBLE_EQ(cursor.Advance(500, 1'020'000'000, 3, 3), 25000.0);
  EXPECT_EQ(cursor.msgs, 500u);
  EXPECT_EQ(cursor.at_ns, 1'020'000'000);
}

TEST(PollCursor, PartialSampleDoesNotMoveTheCursor) {
  Coordinator::PollCursor cursor{1000, 0};
  EXPECT_DOUBLE_EQ(cursor.Advance(1200, 500'000'000, 2, 3), 0.0);
  EXPECT_EQ(cursor.msgs, 1000u);
  EXPECT_EQ(cursor.at_ns, 0);
  // The next complete sample differences against the last complete one.
  EXPECT_DOUBLE_EQ(cursor.Advance(2000, 1'000'000'000, 3, 3), 1000.0);
}

TEST(PollLine, SubSecondSamplesPrintDistinctMilliseconds) {
  // A --poll-interval=0.02 run samples at ~21.5ms, ~41.9ms, ...; the line
  // used to print t=0.0s for both.
  const std::string first =
      Coordinator::FormatPollLine(1, 0.0215, 500, 25000, 3, 1, "");
  const std::string second =
      Coordinator::FormatPollLine(2, 0.0419, 900, 20000, 5, 1, "");
  EXPECT_NE(first.find("t=21.5ms"), std::string::npos) << first;
  EXPECT_NE(second.find("t=41.9ms"), std::string::npos) << second;
}

TEST(PollLine, CarriesEveryFieldAndTheNote) {
  EXPECT_EQ(Coordinator::FormatPollLine(7, 2.5, 1234, 567.4, 8, 9,
                                        " [stale:2]"),
            "hmdsm poll #7: t=2500.0ms msgs=1234 (567/s) faults=8 "
            "migrations=9 [stale:2]");
}

}  // namespace
}  // namespace hmdsm::netio
