// Deeper protocol-edge tests for the DSM agent: multi-migration chains
// under each notification mechanism, home-access trap re-arming, barrier
// generation reuse, lock fairness, piggyback forwarding after migration,
// and defensive limits.
#include <gtest/gtest.h>

#include "src/dsm/agent.h"
#include "src/dsm/cluster.h"

namespace hmdsm::dsm {
namespace {

using stats::Ev;
using stats::MsgCat;

constexpr sim::Time kStep = 50 * sim::kMillisecond;

struct World {
  Cluster cluster;
  explicit World(std::size_t nodes, DsmConfig cfg = {})
      : cluster(ClusterOptions{nodes, net::HockneyModel(70.0, 12.5),
                               std::move(cfg)}) {}
  void On(NodeId node, std::function<void(sim::Process&, Agent&)> fn) {
    cluster.kernel().Spawn("prog@" + std::to_string(node),
                           [this, node, fn = std::move(fn)](sim::Process& p) {
                             fn(p, cluster.agent(node));
                           });
  }
  void Run() { cluster.kernel().Run(); }
  stats::Recorder rec() const { return cluster.Totals(); }
};

DsmConfig Cfg(const std::string& policy) {
  DsmConfig cfg;
  cfg.policy = policy;
  return cfg;
}

/// Times of the traced events of one kind at `node` about `peer` and `id`.
std::vector<std::int64_t> EventTimes(const World& w, trace::What what,
                                     NodeId node, NodeId peer,
                                     std::uint64_t id) {
  std::vector<std::int64_t> at;
  for (const trace::Event& e : w.cluster.trace().events())
    if (e.what == what && e.node == node && e.peer == peer && e.id == id)
      at.push_back(e.at);
  return at;
}

void Burst(sim::Process& p, Agent& a, ObjectId obj, LockId lock, int count) {
  for (int i = 1; i <= count; ++i) {
    a.Acquire(p, lock);
    a.Write(p, obj, [&](MutByteSpan b) { b[0] = static_cast<Byte>(i); });
    a.Release(p, lock);
  }
}

// ---------------------------------------------------------------------------
// Multi-migration chains under each notification mechanism
// ---------------------------------------------------------------------------

class MultiMigration : public ::testing::TestWithParam<NotifyMechanism> {};

TEST_P(MultiMigration, HomeMovesThroughThreeNodesAndStaysConsistent) {
  DsmConfig cfg = Cfg("FT1");
  cfg.notify = GetParam();
  World w(5, std::move(cfg));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  // Three sequential lasting writers; each should win the home in turn.
  for (NodeId n = 1; n <= 3; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      p.Delay(n * kStep);
      Burst(p, a, obj, lock, 4);
    });
  }
  // Late reader with an untouched hint must still find the data.
  w.On(4, [&](sim::Process& p, Agent& a) {
    p.Delay(10 * kStep);
    Byte got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    EXPECT_EQ(got, 4);
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(3).IsHome(obj));
  EXPECT_EQ(w.rec().Count(Ev::kMigrations), 3u);
  EXPECT_EQ(w.cluster.agent(3).HomeState(obj).epoch, 3u);
  // Old homes form a chain 0→1→2→3.
  EXPECT_EQ(w.cluster.agent(0).ForwardTarget(obj), NodeId{1});
  EXPECT_EQ(w.cluster.agent(1).ForwardTarget(obj), NodeId{2});
  EXPECT_EQ(w.cluster.agent(2).ForwardTarget(obj), NodeId{3});
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, MultiMigration,
                         ::testing::Values(NotifyMechanism::kForwardingPointer,
                                           NotifyMechanism::kHomeManager,
                                           NotifyMechanism::kBroadcast));

TEST(AgentEdge, ManagerLearnsEveryMigration) {
  DsmConfig cfg = Cfg("FT1");
  cfg.notify = NotifyMechanism::kHomeManager;
  World w(4, std::move(cfg));
  const ObjectId obj = ObjectId::Make(0, 0, 1);  // manager = node 0
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    Burst(p, a, obj, lock, 3);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);
    Burst(p, a, obj, lock, 3);
  });
  // Node 3 asks with a stale hint: old home → "ask manager" → manager
  // (node 0) → current home (node 2).
  w.On(3, [&](sim::Process& p, Agent& a) {
    p.Delay(8 * kStep);
    Byte got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    EXPECT_EQ(got, 3);
    EXPECT_EQ(a.HintedHome(obj), NodeId{2});
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(2).IsHome(obj));
}

// ---------------------------------------------------------------------------
// Home-access traps: once per synchronization interval
// ---------------------------------------------------------------------------

TEST(AgentEdge, HomeTrapsFireOncePerInterval) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(1, 1);
  w.On(0, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Bytes(8, 0));
    a.Acquire(p, lock);
    // Five reads + five writes inside ONE interval: each trap fires once.
    for (int i = 0; i < 5; ++i) {
      a.Read(p, obj, [](ByteSpan) {});
      a.Write(p, obj, [](MutByteSpan b) { b[0] ^= 1; });
    }
    a.Release(p, lock);
    // New interval: traps re-arm.
    a.Acquire(p, lock);
    a.Read(p, obj, [](ByteSpan) {});
    a.Write(p, obj, [](MutByteSpan b) { b[0] ^= 1; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(w.rec().Count(Ev::kHomeReads), 2u);
  EXPECT_EQ(w.rec().Count(Ev::kHomeWrites), 2u);
}

TEST(AgentEdge, ExclusiveHomeWritesNeedNoInterveningRemote) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(1, 1);
  w.On(0, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Bytes(8, 0));
    for (int i = 0; i < 4; ++i) {
      a.Acquire(p, lock);
      a.Write(p, obj, [](MutByteSpan b) { b[0] ^= 1; });
      a.Release(p, lock);
    }
  });
  w.Run();
  // First home write is not exclusive; the remaining three are.
  EXPECT_EQ(w.rec().Count(Ev::kHomeWrites), 4u);
  EXPECT_EQ(w.rec().Count(Ev::kExclusiveHomeWrites), 3u);
}

// ---------------------------------------------------------------------------
// Locks and barriers
// ---------------------------------------------------------------------------

TEST(AgentEdge, LockGrantsAreFifoAcrossNodes) {
  World w(4, Cfg("NoHM"));
  const LockId lock = LockId::Make(0, 1);
  std::vector<NodeId> grant_order;
  for (NodeId n = 0; n < 4; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      // Deterministic staggered requests: node n asks n ms in.
      p.Delay(n * sim::kMillisecond);
      a.Acquire(p, lock);
      grant_order.push_back(n);
      p.Delay(20 * sim::kMillisecond);  // hold so everyone queues
      a.Release(p, lock);
    });
  }
  w.Run();
  EXPECT_EQ(grant_order, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(AgentEdge, BarrierIdReusableAcrossGenerations) {
  World w(3, Cfg("NoHM"));
  const BarrierId barrier = BarrierId::Make(0, 1);
  std::vector<int> generations_done(3, 0);
  for (NodeId n = 0; n < 3; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      for (int gen = 0; gen < 10; ++gen) {
        p.Delay((n + 1) * sim::kMillisecond);
        a.Barrier(p, barrier, 3);
        ++generations_done[n];
      }
    });
  }
  w.Run();
  EXPECT_EQ(generations_done, (std::vector<int>{10, 10, 10}));
}

TEST(AgentEdge, PiggybackedDiffForwardedAfterConcurrentMigration) {
  // Writer piggybacks a diff to the lock manager believing it is the home,
  // but the home migrates away first: the manager must forward the diff
  // along its fresh forwarding pointer, and the update must not be lost.
  World w(3, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock0 = LockId::Make(0, 1);   // manager = initial home
  const LockId lock2 = LockId::Make(2, 2);   // independent lock
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  // Node 2 acquires lock0 FIRST and holds it while node 1 migrates the
  // home away via lock2-protected writes; node 2's release then carries a
  // piggybacked diff addressed to node 0, which is obsolete by then.
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock0);
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(5 * kStep);  // home migrates 0→1 meanwhile
    a.Release(p, lock0); // diff piggybacked to node 0 → forwarded to 1
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    Burst(p, a, obj, lock2, 3);  // FT1 migrates the home to node 1
  });
  w.Run();
  ASSERT_TRUE(w.cluster.agent(1).IsHome(obj));
  EXPECT_EQ(w.cluster.agent(1).PeekHomeData(obj)[1], 0x22);  // not lost
  EXPECT_EQ(w.cluster.agent(1).PeekHomeData(obj)[0], 3);     // burst's last
}

TEST(AgentEdge, ForwardedPiggybackLandsBeforeTheLockHandoff) {
  // As above, with node 3 queued on lock0 behind node 2. The manager
  // forwards node 2's piggybacked diff to the moved home; it must not grant
  // lock0 to node 3 until that diff is applied there, or node 3 could fault
  // in a copy that misses node 2's write.
  World w(4, Cfg("FT1"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock0 = LockId::Make(0, 1);
  const LockId lock2 = LockId::Make(2, 2);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock0);
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(5 * kStep);
    a.Release(p, lock0);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    Burst(p, a, obj, lock2, 3);
  });
  w.On(3, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);
    a.Acquire(p, lock0);  // queued behind node 2
    Byte got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = b[1]; });
    EXPECT_EQ(got, 0x22);
    a.Release(p, lock0);
  });
  w.Run();
  ASSERT_TRUE(w.cluster.agent(1).IsHome(obj));

  const auto applied =
      EventTimes(w, trace::What::kDiffApplied, 1, 2, obj.value);
  const auto granted =
      EventTimes(w, trace::What::kLockGranted, 0, 3, lock0.value);
  ASSERT_EQ(applied.size(), 1u);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_LE(applied[0], granted[0]);
}

TEST(AgentEdge, ForwardedPiggybackLandsBeforeTheBarrierRelease) {
  // The barrier flavour: node 2's diff rides its (last) barrier arrival to
  // the manager after the home moved to node 1. The barrier must not
  // release until the forwarded diff is applied at node 1.
  World w(4, Cfg("FT1"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock2 = LockId::Make(2, 2);
  const BarrierId barrier = BarrierId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    Burst(p, a, obj, lock2, 3);  // FT1 migrates the home to node 1
    a.Barrier(p, barrier, 3);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(5 * kStep);
    a.Barrier(p, barrier, 3);  // diff piggybacked to node 0 → forwarded
  });
  w.On(3, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);
    a.Barrier(p, barrier, 3);
    Byte got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = b[1]; });
    EXPECT_EQ(got, 0x22);
  });
  w.Run();
  ASSERT_TRUE(w.cluster.agent(1).IsHome(obj));

  const auto applied =
      EventTimes(w, trace::What::kDiffApplied, 1, 2, obj.value);
  const auto done =
      EventTimes(w, trace::What::kBarrierDone, 0, kNoNode, barrier.value);
  ASSERT_EQ(applied.size(), 1u);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_LE(applied[0], done[0]);
}

// ---------------------------------------------------------------------------
// Defensive limits & misc
// ---------------------------------------------------------------------------

TEST(AgentEdge, RedirectHopGuardFailsLoudly) {
  DsmConfig cfg = Cfg("MH");
  cfg.max_redirect_hops = 2;  // artificially tight
  World w(5, std::move(cfg));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  for (NodeId n = 1; n <= 3; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      p.Delay(n * kStep);
      a.Acquire(p, lock);
      a.Write(p, obj, [](MutByteSpan b) { b[0] ^= 1; });
      a.Release(p, lock);
    });
  }
  // This walk needs 3 hops > 2 allowed.
  w.On(4, [&](sim::Process& p, Agent& a) {
    p.Delay(10 * kStep);
    a.Read(p, obj, [](ByteSpan) {});
  });
  EXPECT_THROW(w.Run(), CheckError);
}

TEST(AgentEdge, EmptyDiffIsElided) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(1, 1);
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0; });  // writes same value
    a.Release(p, lock);
  });
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.Run();
  EXPECT_EQ(w.rec().Count(Ev::kTwinsCreated), 1u);
  EXPECT_EQ(w.rec().Count(Ev::kDiffsCreated), 0u);  // elided
  EXPECT_EQ(w.rec().Cat(MsgCat::kDiff).messages, 0u);
}

TEST(AgentEdge, LargeObjectRoundTripKeepsEveryByte) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  Bytes init(16384);
  for (std::size_t i = 0; i < init.size(); ++i)
    init[i] = static_cast<Byte>(i * 31);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, init); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) {
      for (std::size_t i = 0; i < b.size(); i += 97) b[i] ^= 0xFF;
    });
    a.Release(p, lock);
  });
  w.Run();
  ByteSpan home = w.cluster.agent(0).PeekHomeData(obj);
  for (std::size_t i = 0; i < home.size(); ++i) {
    const Byte expect = static_cast<Byte>(
        (i % 97 == 0) ? (init[i] ^ 0xFF) : init[i]);
    ASSERT_EQ(home[i], expect) << "byte " << i;
  }
}

TEST(AgentEdge, SixteenNodeClusterSmoke) {
  World w(16, Cfg("AT"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(64, 0)); });
  for (NodeId n = 1; n < 16; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      p.Delay(sim::kMillisecond);
      for (int i = 0; i < 5; ++i) {
        a.Acquire(p, lock);
        a.Write(p, obj, [&](MutByteSpan b) { b[n] += 1; });
        a.Release(p, lock);
      }
    });
  }
  w.Run();
  // Every node's five increments landed.
  NodeId home = 0;
  for (NodeId n = 0; n < 16; ++n)
    if (w.cluster.agent(n).IsHome(obj)) home = n;
  ByteSpan data = w.cluster.agent(home).PeekHomeData(obj);
  for (NodeId n = 1; n < 16; ++n) ASSERT_EQ(data[n], 5) << "node " << n;
}

}  // namespace
}  // namespace hmdsm::dsm
