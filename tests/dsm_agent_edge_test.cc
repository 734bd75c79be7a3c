// Deeper protocol-edge tests for the DSM agent: multi-migration chains
// under each notification mechanism, home-access trap re-arming, barrier
// generation reuse, lock fairness, piggyback forwarding after migration,
// lock grants that carry data, sync fences, and defensive limits.
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
// Lock grants carry data
// ---------------------------------------------------------------------------

/// The copies-carried count the manager traced on its grants of `lock` to
/// `holder`, in grant order.
std::vector<std::int64_t> GrantCopies(const World& w, NodeId manager,
                                      NodeId holder, LockId lock) {
  std::vector<std::int64_t> copies;
  for (const trace::Event& e : w.cluster.trace().events())
    if (e.what == trace::What::kLockGranted && e.node == manager &&
        e.peer == holder && e.id == lock.value)
      copies.push_back(e.value);
  return copies;
}

TEST(GrantCopies, ContendedHandoffCarriesTheObjectAndSkipsTheFaultIn) {
  World w(3, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);  // homed at the manager
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(2 * kStep);  // node 2 queues meanwhile
    a.Release(p, lock);  // the diff rides the release: obj is guarded
  });
  Byte got = 0;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    a.Acquire(p, lock);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(got, 0x11);
  EXPECT_EQ(GrantCopies(w, 0, 2, lock), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(w.cluster.recorder(2).Count(Ev::kGrantCopies), 1u);
  EXPECT_EQ(w.cluster.recorder(2).Count(Ev::kFaultIns), 0u);
  EXPECT_EQ(w.cluster.recorder(2).Count(Ev::kLocalHits), 2u);
  // The write on the delivered copy still reaches the home as a diff.
  EXPECT_EQ(w.cluster.agent(0).PeekHomeData(obj)[1], 0x22);
}

TEST(GrantCopies, UncontendedGrantCarriesNothing) {
  World w(3, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    Burst(p, a, obj, lock, 1);  // obj becomes guarded by lock
  });
  Byte got = 0;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);  // the lock is free by now
    a.Acquire(p, lock);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(GrantCopies(w, 0, 2, lock), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(w.rec().Count(Ev::kGrantCopies), 0u);
  EXPECT_EQ(w.cluster.recorder(2).Count(Ev::kFaultIns), 1u);
}

TEST(GrantCopies, HandoffToTheManagerItselfCarriesNothing) {
  // The manager homes every object a grant could carry; its own handoff
  // must leave the home copy alone.
  World w(2, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Bytes(8, 0));
    p.Delay(2 * kStep);
    a.Acquire(p, lock);  // queued behind node 1
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x33; });
    a.Release(p, lock);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(2 * kStep);
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(GrantCopies(w, 0, 0, lock), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(w.rec().Count(Ev::kGrantCopies), 0u);
  EXPECT_TRUE(w.cluster.agent(0).IsHome(obj));
  EXPECT_EQ(w.cluster.agent(0).PeekHomeData(obj)[0], 0x11);
  EXPECT_EQ(w.cluster.agent(0).PeekHomeData(obj)[1], 0x33);
}

TEST(GrantCopies, CopyNeverLandsOnAPendingFetch) {
  // Node 2 runs two threads: one queues on the lock, the other faults the
  // object in over a slowed 2->0 link, so the handoff grant (carrying the
  // object) arrives while that fetch is still in flight. The copy must be
  // dropped: the fetch may be a migration, and its reply owns the entry.
  World w(3, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(5 * kStep);
    a.Release(p, lock);
  });
  Byte holder_got = 0;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    a.Acquire(p, lock);
    a.Read(p, obj, [&](ByteSpan b) { holder_got = b[0]; });
    a.Release(p, lock);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(6 * kStep);  // as node 1 releases
    w.cluster.network().SetLinkDelay(2, 0, 10 * sim::kMillisecond);
    a.Read(p, obj, [](ByteSpan) {});
  });
  w.Run();
  EXPECT_EQ(holder_got, 0x11);
  EXPECT_EQ(GrantCopies(w, 0, 2, lock), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(w.cluster.recorder(2).Count(Ev::kGrantCopies), 0u);
}

TEST(GrantCopies, CopyNeverReplacesAnEntryFlushedAfterTheRequest) {
  // Node 2 runs two threads. One queues on `lock` behind node 1. The other
  // then writes the object under `other` (same manager) and releases it,
  // the diff riding a slowed 2->0 link; its entry stays cached, clean and
  // newer than the manager's copy. Node 1's handoff grant carries a copy
  // taken before that diff lands: installing it would send the writer's
  // next read back in time.
  World w(3, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  const LockId other = LockId::Make(0, 2);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(4 * kStep);
    a.Release(p, lock);  // the diff rides: obj is guarded, node 2 is next
  });
  Bytes holder_got;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    a.Acquire(p, lock);
    a.Read(p, obj, [&](ByteSpan b) { holder_got = ToBytes(b); });
    a.Release(p, lock);
  });
  Byte writer_got[2] = {};
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);
    a.Acquire(p, other);
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x77; });
    w.cluster.network().SetLinkDelay(2, 0, 10 * kStep);
    a.Release(p, other);
    a.Read(p, obj, [&](ByteSpan b) { writer_got[0] = b[1]; });
    p.Delay(4 * kStep);  // the handoff grant lands meanwhile
    a.Read(p, obj, [&](ByteSpan b) { writer_got[1] = b[1]; });
  });
  w.Run();
  EXPECT_EQ(writer_got[0], 0x77);
  EXPECT_EQ(writer_got[1], 0x77);
  ASSERT_EQ(holder_got.size(), 8u);
  EXPECT_EQ(holder_got[0], 0x11);
  EXPECT_EQ(holder_got[1], 0x77);
  EXPECT_EQ(GrantCopies(w, 0, 2, lock), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(w.cluster.recorder(2).Count(Ev::kGrantCopies), 0u);
}

// ---------------------------------------------------------------------------
// Sync fences: a release's piggybacked diffs land before anyone can learn
// of the release through another manager
// ---------------------------------------------------------------------------

class SyncFence : public ::testing::TestWithParam<const char*> {};

TEST_P(SyncFence, BarrierAtAnotherManagerWaitsForTheReleasedDiffs) {
  // Node 0 releases a lock managed at node 3, the object's home, with the
  // diff riding the release over a slow 0->3 link. It then passes a barrier
  // managed at node 0 with node 1, which reads the object from node 3
  // right after. Nothing acknowledges a piggybacked diff, so without a
  // fence node 1's fault-in overtakes the release and reads the old byte.
  World w(4, Cfg(GetParam()));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock = LockId::Make(3, 1);
  const BarrierId barrier = BarrierId::Make(0, 1);
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(0, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x5A; });
    w.cluster.network().SetLinkDelay(0, 3, 20 * sim::kMillisecond);
    a.Release(p, lock);
    a.Barrier(p, barrier, 2);
  });
  Byte got = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Barrier(p, barrier, 2);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
  });
  w.Run();
  EXPECT_EQ(got, 0x5A);
}

TEST_P(SyncFence, NoFenceWhileSyncStaysAtOneManager) {
  // Releases and a barrier all at node 0 (the object's home and the
  // manager): FIFO on the one link already orders them, so no fence is
  // sent: three sync messages per lock round plus the barrier's two.
  World w(2, Cfg(GetParam()));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  const BarrierId barrier = BarrierId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Bytes(8, 0));
    a.Barrier(p, barrier, 2);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    Burst(p, a, obj, lock, 3);
    a.Barrier(p, barrier, 2);
  });
  w.Run();
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 3u * 3u + 2u);
}

TEST_P(SyncFence, SecondThreadWaitsForTheFenceInFlight) {
  // Node 0 runs two threads. The first releases a lock managed at node 3,
  // the object's home, with the diff riding a slow 0->3 link, then
  // acquires a lock at node 2, which fences node 3 first. While that fence
  // is in flight, the second thread passes a barrier at node 0 with node
  // 1, which then reads the object: the barrier must wait for the fence.
  World w(4, Cfg(GetParam()));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock3 = LockId::Make(3, 1);
  const LockId lock2 = LockId::Make(2, 2);
  const BarrierId barrier = BarrierId::Make(0, 1);
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(0, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock3);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x5A; });
    w.cluster.network().SetLinkDelay(0, 3, 10 * kStep);
    a.Release(p, lock3);
    a.Acquire(p, lock2);
    a.Release(p, lock2);
  });
  w.On(0, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    a.Barrier(p, barrier, 2);
  });
  Byte got = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Barrier(p, barrier, 2);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
  });
  w.Run();
  EXPECT_EQ(got, 0x5A);
  // Two lock rounds, node 1's barrier arrival and release, and one fence
  // round trip: the two threads share it.
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 3u + 3u + 2u + 2u);
}

/// Node 0 writes an object homed at node 3 under a lock managed there; the
/// home moves to node 2 while node 0 holds the lock, so node 0's release
/// (which still piggybacks the diff to node 3) is forwarded over a slow
/// 3->2 link. Node 0 then runs `between` and passes a barrier managed at
/// node 0 with node 1, which reads the object. Returns what node 1 read.
Byte ReadAfterForwardedRelease(
    const std::function<void(sim::Process&, Agent&)>& between) {
  World w(4, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock3 = LockId::Make(3, 1);
  const LockId lock2 = LockId::Make(2, 2);
  const BarrierId barrier = BarrierId::Make(0, 1);
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(0, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock3);
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(5 * kStep);  // FT1 moves the home to node 2 meanwhile
    w.cluster.network().SetLinkDelay(3, 2, 20 * sim::kMillisecond);
    a.Release(p, lock3);  // piggybacked to node 3, forwarded to node 2
    between(p, a);
    a.Barrier(p, barrier, 2);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    Burst(p, a, obj, lock2, 3);
  });
  Byte got = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Barrier(p, barrier, 2);
    a.Read(p, obj, [&](ByteSpan b) { got = b[1]; });
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(2).IsHome(obj));
  return got;
}

TEST(SyncFenceForwarded, FenceWaitsForTheDiffsTheManagerForwarded) {
  EXPECT_EQ(ReadAfterForwardedRelease([](sim::Process&, Agent&) {}), 0x22);
}

TEST(SyncFenceForwarded, GrantFromTheSameManagerWaitsForThemToo) {
  // A grant from node 3 lifts node 0's fence, so node 3 must hold it until
  // the forwarded diff is acknowledged.
  const LockId other = LockId::Make(3, 3);
  EXPECT_EQ(ReadAfterForwardedRelease([&](sim::Process& p, Agent& a) {
              a.Acquire(p, other);
              a.Release(p, other);
            }),
            0x22);
}

TEST(SyncFenceForwarded, ReplyWaitsOnlyForEarlierForwards) {
  // Node 3 manages the locks and was the home of two objects that FT1 has
  // moved to node 2. Node 0's release has its diff forwarded over a slow
  // 3->2 link, and node 1's grant, requested next, waits for it. Node 4's
  // release is forwarded only after that grant was queued: the grant must
  // not wait for it too.
  World w(5, Cfg("FT1"));
  w.cluster.trace().Enable();
  const ObjectId obj_a = ObjectId::Make(3, 3, 1);
  const ObjectId obj_b = ObjectId::Make(3, 3, 2);
  const LockId lock_a = LockId::Make(3, 1);
  const LockId lock_b = LockId::Make(3, 2);
  const LockId lock_c = LockId::Make(3, 3);
  const LockId lock2 = LockId::Make(2, 4);
  constexpr sim::Time kMs = sim::kMillisecond;
  w.On(3, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj_a, Bytes(8, 0));
    a.CreateObject(p, obj_b, Bytes(8, 0));
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    Burst(p, a, obj_a, lock2, 3);  // FT1 moves both homes to node 2
    Burst(p, a, obj_b, lock2, 3);
  });
  w.On(0, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock_a);
    a.Write(p, obj_a, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(5 * kStep);
    w.cluster.network().SetLinkDelay(3, 2, 20 * kMs);
    a.Release(p, lock_a);
  });
  w.On(4, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock_b);
    a.Write(p, obj_b, [](MutByteSpan b) { b[1] = 0x44; });
    p.Delay(5 * kStep + 10 * kMs);
    a.Release(p, lock_b);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(6 * kStep + 5 * kMs);
    a.Acquire(p, lock_c);
    a.Release(p, lock_c);
  });
  w.Run();
  ASSERT_TRUE(w.cluster.agent(2).IsHome(obj_a));
  ASSERT_TRUE(w.cluster.agent(2).IsHome(obj_b));
  const auto earlier =
      EventTimes(w, trace::What::kDiffApplied, 2, 0, obj_a.value);
  const auto later =
      EventTimes(w, trace::What::kDiffApplied, 2, 4, obj_b.value);
  const auto granted =
      EventTimes(w, trace::What::kLockGranted, 3, 1, lock_c.value);
  ASSERT_EQ(earlier.size(), 1u);
  ASSERT_EQ(later.size(), 1u);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_LT(earlier[0], granted[0]);
  EXPECT_LT(granted[0], later[0]);
}

INSTANTIATE_TEST_SUITE_P(Policies, SyncFence,
                         ::testing::Values("NoHM", "AT"));

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
