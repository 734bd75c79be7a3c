// Transport conformance: the delivery contract in net/transport.h, checked
// identically against all three implementations —
//
//   * net::Network            (simulated fabric, virtual time)
//   * runtime::ChannelTransport (in-process mailboxes, threads backend)
//   * netio::SocketTransport   (TCP mesh; here several ranks in one
//                               process, each with its own transport,
//                               exchanging real localhost TCP traffic)
//
// The contract the protocol engine relies on: per-sender FIFO delivery,
// Broadcast reaching exactly everyone-but-the-sender, self-sends being
// asynchronous and never charged to the wire, and merged per-node
// recorders whose send half equals their receive half.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/net/network.h"
#include "src/netio/socket.h"
#include "src/netio/socket_transport.h"
#include "src/runtime/channel.h"
#include "src/util/serde.h"

namespace hmdsm {
namespace {

using net::NodeId;
using net::Packet;
using stats::MsgCat;

Bytes Tag(std::uint64_t v) {
  Writer w;
  w.u64(v);
  return w.take();
}

std::uint64_t UnTag(ByteSpan b) {
  Reader r(b);
  return r.u64();
}

/// One cluster's worth of transport, behind a uniform pump interface. The
/// tests know exactly how many packets each destination must receive, so
/// delivery is driven explicitly (Pump) — no background dispatchers racing
/// the assertions.
class Mesh {
 public:
  virtual ~Mesh() = default;
  virtual std::size_t nodes() const = 0;
  /// The transport to issue `src`-context calls on.
  virtual net::Transport& at(NodeId src) = 0;
  virtual void SetHandler(NodeId node, net::Transport::Handler h) = 0;
  /// Delivers (at least) `packets` packets addressed to `node`.
  virtual void Pump(NodeId node, std::size_t packets) = 0;
  /// Per-node recorders merged across the whole mesh.
  virtual stats::Recorder Merged() = 0;
  /// Whether Send may be called from concurrent threads (the simulator's
  /// kernel is single-baton by design).
  virtual bool concurrent_senders() const { return true; }
};

// --- simulated fabric -------------------------------------------------------

class SimMesh final : public Mesh {
 public:
  explicit SimMesh(std::size_t n)
      : network_(kernel_, net::HockneyModel(70.0, 12.5), n) {}

  std::size_t nodes() const override { return network_.node_count(); }
  net::Transport& at(NodeId) override { return network_; }
  void SetHandler(NodeId node, net::Transport::Handler h) override {
    network_.SetHandler(node, std::move(h));
  }
  void Pump(NodeId, std::size_t) override {
    // The kernel delivers everything in flight (and any follow-ons).
    kernel_.Run();
  }
  stats::Recorder Merged() override { return network_.Totals(); }
  bool concurrent_senders() const override { return false; }

 private:
  sim::Kernel kernel_;
  net::Network network_;
};

// --- in-process channels ----------------------------------------------------

class ChannelMesh final : public Mesh {
 public:
  explicit ChannelMesh(std::size_t n) : transport_(n) {}
  ~ChannelMesh() override { transport_.CloseAll(); }

  std::size_t nodes() const override { return transport_.node_count(); }
  net::Transport& at(NodeId) override { return transport_; }
  void SetHandler(NodeId node, net::Transport::Handler h) override {
    transport_.SetHandler(node, std::move(h));
  }
  void Pump(NodeId node, std::size_t packets) override {
    Packet p;
    for (std::size_t i = 0; i < packets; ++i) {
      ASSERT_TRUE(transport_.WaitPop(node, p));
      transport_.Dispatch(std::move(p));
    }
  }
  stats::Recorder Merged() override { return transport_.Totals(); }

 private:
  runtime::ChannelTransport transport_;
};

// --- TCP sockets ------------------------------------------------------------

class SocketMesh final : public Mesh {
 public:
  /// `ranks_per_proc` > 1 hosts consecutive ranks on one transport (the
  /// multi-rank-hosting shape the CLI's --ranks-per-proc forks), so
  /// same-group traffic crosses only local mailboxes while cross-group
  /// traffic takes the wire; `io_threads` sizes each reactor pool.
  /// `shm` switches on the shared-memory ring transport (every group here
  /// lives in one test process, i.e. trivially same-host). The same
  /// contract assertions must hold bit for bit on either wire.
  SocketMesh(std::size_t n, std::size_t ranks_per_proc,
             std::size_t io_threads, bool shm = false)
      : nodes_(n), rpp_(ranks_per_proc) {
    // Pre-bound ephemeral listeners, exactly like the self-fork launcher:
    // no fixed ports, so parallel test runs cannot collide. One listener
    // per process; all hosted ranks share their process's endpoint.
    const std::size_t procs = (n + rpp_ - 1) / rpp_;
    std::vector<int> fds;
    std::vector<std::uint16_t> ports;
    for (std::size_t p = 0; p < procs; ++p) {
      std::uint16_t port = 0;
      std::string error;
      netio::Fd fd = netio::ListenOn("127.0.0.1:0", &port, &error);
      HMDSM_CHECK_MSG(fd.valid(), "listen: " << error);
      fds.push_back(fd.release());
      ports.push_back(port);
    }
    std::vector<std::string> peers;
    for (std::size_t r = 0; r < n; ++r)
      peers.push_back("127.0.0.1:" + std::to_string(ports[r / rpp_]));
    for (std::size_t p = 0; p < procs; ++p) {
      netio::SocketTransportOptions o;
      o.rank = static_cast<NodeId>(p * rpp_);
      o.peers = peers;
      o.ranks_per_proc = rpp_;
      o.io_threads = io_threads;
      o.listen_fd = fds[p];
      o.shm = shm;
      groups_.push_back(std::make_unique<netio::SocketTransport>(o));
    }
    for (auto& t : groups_) t->Start();
    for (auto& t : groups_) t->AwaitConnected();
  }

  ~SocketMesh() override {
    for (auto& t : groups_) t->BeginShutdown();
    for (auto& t : groups_) t->Stop();
  }

  std::size_t nodes() const override { return nodes_; }
  net::Transport& at(NodeId src) override { return *groups_[src / rpp_]; }
  void SetHandler(NodeId node, net::Transport::Handler h) override {
    groups_[node / rpp_]->SetHandler(node, std::move(h));
  }
  void Pump(NodeId node, std::size_t packets) override {
    netio::SocketTransport& t = *groups_[node / rpp_];
    Packet p;
    for (std::size_t i = 0; i < packets; ++i) {
      ASSERT_TRUE(t.WaitPop(node, p));
      t.Dispatch(std::move(p));
    }
  }
  stats::Recorder Merged() override {
    stats::Recorder total;
    total.SetNodeCount(nodes_);
    for (std::size_t r = 0; r < nodes_; ++r)
      total.Merge(groups_[r / rpp_]->RecorderFor(static_cast<NodeId>(r)));
    return total;
  }

 private:
  std::size_t nodes_;
  std::size_t rpp_;
  std::vector<std::unique_ptr<netio::SocketTransport>> groups_;
};

// --- the parameterized suite ------------------------------------------------

enum class Impl {
  kSim,
  kChannel,
  kSocket,       // one rank per transport, default reactor pool, plain wire
  kSocketIo1,    // single reactor thread: serializes every peer's I/O
  kSocketShm,    // same-host shm rings carry the data frames
  kSocketMulti,  // two ranks per transport, shm rings on
};

std::string ImplName(const ::testing::TestParamInfo<Impl>& info) {
  switch (info.param) {
    case Impl::kSim: return "SimNetwork";
    case Impl::kChannel: return "ChannelTransport";
    case Impl::kSocket: return "SocketTransport";
    case Impl::kSocketIo1: return "SocketTransportSingleIoThread";
    case Impl::kSocketShm: return "SocketTransportShm";
    case Impl::kSocketMulti: return "SocketTransportMultiRank";
  }
  return "?";
}

std::unique_ptr<Mesh> MakeMesh(Impl impl, std::size_t nodes) {
  switch (impl) {
    case Impl::kSim: return std::make_unique<SimMesh>(nodes);
    case Impl::kChannel: return std::make_unique<ChannelMesh>(nodes);
    case Impl::kSocket: return std::make_unique<SocketMesh>(nodes, 1, 4);
    case Impl::kSocketIo1: return std::make_unique<SocketMesh>(nodes, 1, 1);
    case Impl::kSocketShm:
      return std::make_unique<SocketMesh>(nodes, 1, 4, /*shm=*/true);
    case Impl::kSocketMulti:
      return std::make_unique<SocketMesh>(nodes, 2, 4, /*shm=*/true);
  }
  return nullptr;
}

class TransportConformance : public ::testing::TestWithParam<Impl> {};

TEST_P(TransportConformance, PerSenderFifoOrder) {
  constexpr int kPerSender = 500;
  auto mesh = MakeMesh(GetParam(), 3);
  std::vector<std::uint64_t> seen_from[2];
  mesh->SetHandler(2, [&](Packet&& p) {
    ASSERT_LT(p.src, 2u);
    seen_from[p.src].push_back(UnTag(p.payload));
  });
  mesh->SetHandler(0, [](Packet&&) {});
  mesh->SetHandler(1, [](Packet&&) {});

  auto produce = [&](NodeId src) {
    for (int i = 0; i < kPerSender; ++i)
      mesh->at(src).Send(src, 2, MsgCat::kObj, Tag(i));
  };
  if (mesh->concurrent_senders()) {
    std::thread p0(produce, 0), p1(produce, 1);
    p0.join();
    p1.join();
  } else {
    // Interleave the two senders so FIFO is still non-trivially checked.
    for (int i = 0; i < kPerSender; ++i) {
      mesh->at(0).Send(0, 2, MsgCat::kObj, Tag(i));
      mesh->at(1).Send(1, 2, MsgCat::kObj, Tag(i));
    }
  }
  mesh->Pump(2, 2 * kPerSender);

  // Whatever the global interleaving, each sender's stream is in order.
  for (int s = 0; s < 2; ++s) {
    ASSERT_EQ(seen_from[s].size(), static_cast<std::size_t>(kPerSender));
    for (int i = 0; i < kPerSender; ++i)
      EXPECT_EQ(seen_from[s][i], static_cast<std::uint64_t>(i)) << "src " << s;
  }
}

TEST_P(TransportConformance, BroadcastReachesAllButSender) {
  auto mesh = MakeMesh(GetParam(), 4);
  std::vector<int> received(4, 0);
  for (NodeId n = 0; n < 4; ++n) {
    mesh->SetHandler(n, [&received, n](Packet&& p) {
      EXPECT_EQ(p.src, 1u);
      EXPECT_EQ(p.dst, n);
      ++received[n];
    });
  }
  mesh->at(1).Broadcast(1, MsgCat::kNotify, Tag(7));
  for (NodeId n = 0; n < 4; ++n) {
    if (n != 1) mesh->Pump(n, 1);
  }
  EXPECT_EQ(received, (std::vector<int>{1, 0, 1, 1}));
  const stats::Recorder totals = mesh->Merged();
  EXPECT_EQ(totals.Cat(MsgCat::kNotify).messages, 3u);
}

TEST_P(TransportConformance, MergedTotalsMatchPerNodeAttribution) {
  auto mesh = MakeMesh(GetParam(), 3);
  for (NodeId n = 0; n < 3; ++n) mesh->SetHandler(n, [](Packet&&) {});
  mesh->at(0).Send(0, 1, MsgCat::kObj, Tag(1));
  mesh->at(0).Send(0, 2, MsgCat::kDiff, Bytes(100));
  mesh->at(1).Send(1, 2, MsgCat::kObj, Bytes(30));
  mesh->at(2).Send(2, 0, MsgCat::kSync, Tag(4));
  mesh->Pump(1, 1);
  mesh->Pump(2, 2);
  mesh->Pump(0, 1);

  const stats::Recorder totals = mesh->Merged();
  // Totals really are the sum of the per-node recorders: the send halves
  // (recorded by senders) and receive halves (recorded by receivers) both
  // add up to the category totals, message for message, byte for byte.
  std::uint64_t sent_msgs = 0, recv_msgs = 0, sent_bytes = 0, recv_bytes = 0;
  for (NodeId n = 0; n < 3; ++n) {
    sent_msgs += totals.SentBy(n).messages;
    sent_bytes += totals.SentBy(n).bytes;
    recv_msgs += totals.ReceivedBy(n).messages;
    recv_bytes += totals.ReceivedBy(n).bytes;
  }
  EXPECT_EQ(sent_msgs, 4u);
  EXPECT_EQ(totals.TotalMessages(true), sent_msgs);
  EXPECT_EQ(totals.TotalSent().messages, sent_msgs);
  EXPECT_EQ(totals.TotalReceived().messages, recv_msgs);
  EXPECT_EQ(sent_msgs, recv_msgs);
  EXPECT_EQ(sent_bytes, recv_bytes);
  EXPECT_EQ(totals.TotalBytes(true), sent_bytes);
  // Every message is charged the fixed transport header.
  EXPECT_EQ(sent_bytes, (8u + 100u + 30u + 8u) +
                            4 * net::Transport::kHeaderBytes);
}

TEST_P(TransportConformance, SelfSendIsAsynchronousAndFree) {
  auto mesh = MakeMesh(GetParam(), 2);
  bool delivered = false;
  mesh->SetHandler(0, [&](Packet&& p) {
    EXPECT_EQ(p.src, 0u);
    delivered = true;
  });
  mesh->SetHandler(1, [](Packet&&) {});
  mesh->at(0).Send(0, 0, MsgCat::kDiff, Tag(9));
  // Never re-entrant: the handler must not have run inside Send.
  EXPECT_FALSE(delivered);
  mesh->Pump(0, 1);
  EXPECT_TRUE(delivered);
  const stats::Recorder totals = mesh->Merged();
  EXPECT_EQ(totals.TotalMessages(true), 0u);  // not charged to the wire
  EXPECT_EQ(totals.TotalSent().messages, 0u);
  EXPECT_EQ(totals.TotalReceived().messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformance,
                         ::testing::Values(Impl::kSim, Impl::kChannel,
                                           Impl::kSocket, Impl::kSocketIo1,
                                           Impl::kSocketShm,
                                           Impl::kSocketMulti),
                         ImplName);

}  // namespace
}  // namespace hmdsm
