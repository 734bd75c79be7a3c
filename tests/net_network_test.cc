#include "src/net/network.h"

#include <gtest/gtest.h>

#include <vector>

namespace hmdsm::net {
namespace {

using stats::MsgCat;

struct World {
  sim::Kernel kernel;
  Network network;

  explicit World(std::size_t nodes,
                 HockneyModel model = HockneyModel(70.0, 12.5))
      : network(kernel, model, nodes) {}

  stats::Recorder totals() const { return network.Totals(); }
};

TEST(Hockney, LatencyIsAffineInMessageSize) {
  HockneyModel m(70.0, 12.5);  // 70 us startup, 12.5 MB/s
  EXPECT_EQ(m.Latency(0), sim::FromSeconds(70e-6));
  // 875 bytes is the half-peak length: latency doubles over startup.
  EXPECT_EQ(m.Latency(875), sim::FromSeconds(140e-6));
  EXPECT_DOUBLE_EQ(m.half_peak_bytes(), 875.0);
}

TEST(Hockney, RoundTripAddsBothDirections) {
  HockneyModel m(10.0, 100.0);
  EXPECT_EQ(m.RoundTrip(1000, 0), m.Latency(1000) + m.Latency(0));
}

TEST(Network, DeliversWithModelLatency) {
  World w(2, HockneyModel(100.0, 10.0));
  sim::Time delivered_at = -1;
  Buf got;
  w.network.SetHandler(1, [&](Packet&& p) {
    delivered_at = w.kernel.now();
    got = std::move(p.payload);
  });
  w.kernel.ScheduleAt(0, [&] {
    w.network.Send(0, 1, MsgCat::kObj, Bytes{1, 2, 3});
  });
  w.kernel.Run();
  // wire size = 3 + 40 header = 43 bytes; latency = 100us + 43/10 us.
  EXPECT_EQ(delivered_at, sim::FromSeconds((100.0 + 4.3) * 1e-6));
  EXPECT_EQ(got, (Bytes{1, 2, 3}));
}

TEST(Network, SelfSendIsFreeAndAsynchronous) {
  World w(2);
  bool delivered = false;
  bool returned_before_delivery = false;
  w.network.SetHandler(0, [&](Packet&&) { delivered = true; });
  w.kernel.ScheduleAt(0, [&] {
    w.network.Send(0, 0, MsgCat::kDiff, Bytes{9});
    returned_before_delivery = !delivered;
  });
  w.kernel.Run();
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(returned_before_delivery);
  EXPECT_EQ(w.totals().TotalMessages(), 0u);  // not charged to the wire
  EXPECT_EQ(w.network.packets_sent(), 0u);
}

TEST(Network, AccountsMessagesAndBytesByCategory) {
  World w(3);
  for (NodeId n = 0; n < 3; ++n) w.network.SetHandler(n, [](Packet&&) {});
  w.kernel.ScheduleAt(0, [&] {
    w.network.Send(0, 1, MsgCat::kObj, Bytes(100));
    w.network.Send(1, 2, MsgCat::kObj, Bytes(50));
    w.network.Send(2, 0, MsgCat::kDiff, Bytes(10));
  });
  w.kernel.Run();
  EXPECT_EQ(w.totals().Cat(MsgCat::kObj).messages, 2u);
  EXPECT_EQ(w.totals().Cat(MsgCat::kObj).bytes,
            100u + 50u + 2 * Network::kHeaderBytes);
  EXPECT_EQ(w.totals().Cat(MsgCat::kDiff).messages, 1u);
  EXPECT_EQ(w.network.packets_sent(), 3u);
}

TEST(Network, BroadcastReachesAllButSender) {
  World w(5);
  std::vector<int> hits(5, 0);
  for (NodeId n = 0; n < 5; ++n)
    w.network.SetHandler(n, [&, n](Packet&& p) {
      EXPECT_EQ(p.src, 2u);
      ++hits[n];
    });
  w.kernel.ScheduleAt(0, [&] {
    w.network.Broadcast(2, MsgCat::kNotify, Bytes{7});
  });
  w.kernel.Run();
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 0, 1, 1}));
  EXPECT_EQ(w.totals().Cat(MsgCat::kNotify).messages, 4u);
}

TEST(Network, MissingHandlerFailsLoudly) {
  World w(2);
  w.kernel.ScheduleAt(0, [&] {
    w.network.Send(0, 1, MsgCat::kObj, Bytes{});
  });
  EXPECT_THROW(w.kernel.Run(), CheckError);
}

TEST(Network, BackToBackSendsSerializeOnTheSenderNic) {
  // Two 1000-byte messages sent in the same instant to different nodes:
  // the first arrives at t0 + m/r, the second queues behind the first's
  // transmit term and arrives one occupancy later.
  World w(3, HockneyModel(100.0, 10.0));
  std::vector<sim::Time> arrivals(3, -1);
  for (NodeId n = 1; n < 3; ++n)
    w.network.SetHandler(n, [&, n](Packet&&) { arrivals[n] = w.kernel.now(); });
  w.kernel.ScheduleAt(0, [&] {
    w.network.Send(0, 1, MsgCat::kObj, Bytes(1000 - Network::kHeaderBytes));
    w.network.Send(0, 2, MsgCat::kObj, Bytes(1000 - Network::kHeaderBytes));
  });
  w.kernel.Run();
  const sim::Time occupancy = sim::FromSeconds(1000 / 10.0 * 1e-6);  // m/r
  const sim::Time t0 = sim::FromSeconds(100e-6);
  EXPECT_EQ(arrivals[1], t0 + occupancy);
  EXPECT_EQ(arrivals[2], t0 + 2 * occupancy);
}

TEST(Network, FifoBetweenSamePairSameSize) {
  // Two equal-size messages sent back-to-back arrive in send order (equal
  // latency, sequence tie-break preserves FIFO).
  World w(2);
  std::vector<int> order;
  w.network.SetHandler(1, [&](Packet&& p) { order.push_back(p.payload[0]); });
  w.kernel.ScheduleAt(0, [&] {
    w.network.Send(0, 1, MsgCat::kObj, Bytes{1});
    w.network.Send(0, 1, MsgCat::kObj, Bytes{2});
  });
  w.kernel.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Recorder, TotalsAndSyncExclusion) {
  stats::Recorder r;
  r.RecordMessage(MsgCat::kObj, 100);
  r.RecordMessage(MsgCat::kSync, 50);
  r.RecordMessage(MsgCat::kRedir, 41);
  EXPECT_EQ(r.TotalMessages(true), 3u);
  EXPECT_EQ(r.TotalMessages(false), 2u);
  EXPECT_EQ(r.TotalBytes(true), 191u);
  EXPECT_EQ(r.TotalBytes(false), 141u);
  r.Bump(stats::Ev::kMigrations);
  r.Bump(stats::Ev::kRedirectHops, 3);
  EXPECT_EQ(r.Count(stats::Ev::kMigrations), 1u);
  EXPECT_EQ(r.Count(stats::Ev::kRedirectHops), 3u);
  r.Reset();
  EXPECT_EQ(r.TotalMessages(), 0u);
  EXPECT_EQ(r.Count(stats::Ev::kMigrations), 0u);
}

}  // namespace
}  // namespace hmdsm::net
