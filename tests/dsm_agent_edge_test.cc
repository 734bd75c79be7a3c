// Deeper protocol-edge tests for the DSM agent: multi-migration chains
// under each notification mechanism, home-access trap re-arming, barrier
// generation reuse, lock fairness, piggyback forwarding after migration,
// lock grants that carry data, sync fences, kept locks and recalls, and
// defensive limits.
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
  // sent: three sync messages per lock round plus the barrier's two. Under
  // AT the home moves to node 1 within the burst, so its last release
  // carries no diff and keeps the lock: one message fewer.
  const bool at = std::string(GetParam()) == "AT";
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
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 3u * 3u + 2u - (at ? 1 : 0));
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
  // round trip: the two threads share it. lock2 is uncontended and its
  // release carries nothing, so node 0 keeps it: no release message.
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 3u + 2u + 2u + 2u);
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
// Lock caching: an uncontended lock stays with its last holder until the
// manager recalls it
// ---------------------------------------------------------------------------

TEST(LockCache, KeptLockIsTakenAgainWithoutAMessage) {
  // The object is homed at the holder, so its releases carry nothing and
  // the lock (managed at node 0) stays at node 1.
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(1, 1, 1);
  const LockId lock = LockId::Make(0, 1);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Bytes(8, 0));
    Burst(p, a, obj, lock, 1);
    before = w.rec().TotalMessages();
    Burst(p, a, obj, lock, 2);
    after = w.rec().TotalMessages();
  });
  w.Run();
  EXPECT_EQ(after, before);
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 2u);  // acquire, grant
  EXPECT_EQ(w.cluster.recorder(1).Count(Ev::kLockLocalAcquires), 2u);
  EXPECT_EQ(w.rec().Count(Ev::kLockAcquires), 3u);
  EXPECT_EQ(w.rec().Count(Ev::kLockRecalls), 0u);
}

TEST(LockCache, ReleaseWithADiffForTheManagerReturnsTheLock) {
  // The object is homed at the manager: each release carries its diff
  // there, and with it the lock. Three sync messages per round.
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    Burst(p, a, obj, lock, 2);
  });
  w.Run();
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 2u * 3u);
  EXPECT_EQ(w.rec().Count(Ev::kLockLocalAcquires), 0u);
  EXPECT_EQ(w.cluster.agent(0).PeekHomeData(obj)[0], 2);
}

TEST(LockCache, RecallWhileBusyReturnsTheLockAtRelease) {
  // Node 1 holds the lock under a cacheable grant when node 2 asks: the
  // recall waits for node 1's release, which sends the lock back, and
  // node 2 reads what node 1 wrote (a standalone diff to node 3).
  World w(4, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  std::int64_t released_at = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(2 * kStep);  // node 2 asks meanwhile
    a.Release(p, lock);
    released_at = w.cluster.kernel().now();
  });
  Byte got = 0;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    a.Acquire(p, lock);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(got, 0x11);
  EXPECT_EQ(w.rec().Count(Ev::kLockRecalls), 1u);
  const auto granted = EventTimes(w, trace::What::kLockGranted, 0, 2,
                                  lock.value);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_GE(granted[0], released_at);
  // Acquire and grant each, the recall, node 1's release; node 2 keeps it.
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 2u + 2u + 1u + 1u);
}

TEST(LockCache, RecallWhileIdleReturnsTheLockAtOnce) {
  World w(3, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const LockId lock = LockId::Make(0, 1);
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Release(p, lock);  // kept
  });
  std::int64_t asked_at = 0;
  std::int64_t got_at = 0;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);
    asked_at = w.cluster.kernel().now();
    a.Acquire(p, lock);
    got_at = w.cluster.kernel().now();
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(w.rec().Count(Ev::kLockRecalls), 1u);
  // Node 2's acquire, the recall, node 1's return and the grant: four
  // one-way trips, nothing waits on a thread of node 1.
  EXPECT_LT(got_at - asked_at, kStep / 10);
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 2u + 4u);
}

TEST(LockCache, StaleRecallIsIgnored) {
  // Thread X of node 1 keeps the lock. Node 2's acquire sends a recall
  // that crawls over a slowed 0->1 link. Meanwhile X takes the lock again
  // locally, thread Y of node 1 asks the manager for it, so X's release
  // sends it back. The recall lands after that, while Y waits for its own
  // grant behind it: acting on it would return a lock Y is about to hold.
  World w(3, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {  // X
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Release(p, lock);  // kept
    w.cluster.network().SetLinkDelay(0, 1, 10 * kStep);
    p.Delay(2 * kStep);
    a.Acquire(p, lock);  // local: the recall is still on its way
    p.Delay(kStep);      // Y asks meanwhile
    a.Release(p, lock);  // Y waits: the lock goes back
  });
  w.On(1, [&](sim::Process& p, Agent& a) {  // Y
    p.Delay(3 * kStep + kStep / 2);
    a.Acquire(p, lock);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    a.Release(p, lock);  // the diff rides it: the lock goes back
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    a.Acquire(p, lock);
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(w.cluster.agent(0).PeekHomeData(obj)[0], 0x11);
  EXPECT_EQ(w.cluster.recorder(1).Count(Ev::kLockLocalAcquires), 1u);
  EXPECT_EQ(w.rec().Count(Ev::kLockRecalls), 1u);
  // X: acquire, grant, release. Node 2: acquire, recall, grant (a handoff
  // with Y queued: not cacheable), release. Y: acquire, grant, release.
  EXPECT_EQ(w.rec().Cat(MsgCat::kSync).messages, 3u + 4u + 3u);
}

TEST(LockCache, TwoThreadsOnOneNodeShareTheLock) {
  // Two threads of node 1 and one of node 2 increment a counter homed at
  // node 3 under a lock managed at node 0. Releases carry nothing to the
  // manager, so the lock is kept whenever nobody else waits.
  World w(4, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  const auto increments = [&](NodeId node, sim::Time start, int count) {
    w.On(node, [&, start, count](sim::Process& p, Agent& a) {
      p.Delay(start);
      for (int i = 0; i < count; ++i) {
        a.Acquire(p, lock);
        Byte v = 0;
        a.Read(p, obj, [&](ByteSpan b) { v = b[0]; });
        p.Delay(sim::kMillisecond);
        a.Write(p, obj, [&](MutByteSpan b) { b[0] = static_cast<Byte>(v + 1); });
        a.Release(p, lock);
        p.Delay(3 * sim::kMillisecond);
      }
    });
  };
  increments(1, kStep, 10);
  increments(1, kStep + 2 * sim::kMillisecond, 10);
  increments(2, kStep + 30 * sim::kMillisecond, 10);
  w.Run();
  EXPECT_EQ(w.cluster.agent(3).PeekHomeData(obj)[0], 30);
  EXPECT_GT(w.cluster.recorder(1).Count(Ev::kLockLocalAcquires), 0u);
  EXPECT_GT(w.rec().Count(Ev::kLockRecalls), 0u);
}

TEST(LockCache, ReleaseSendsTheLockBackWhenAnotherLocalThreadAsked) {
  // Thread B of node 1 asks the manager while thread A holds the kept
  // lock, over a slowed 0->1 link. A's release must send the lock back at
  // once rather than keep it until the recall crawls in: B then waits one
  // slow trip (the grant), not two (the recall and the grant).
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(1, 1, 1);
  const LockId lock = LockId::Make(0, 1);
  constexpr sim::Time kSlow = 20 * sim::kMillisecond;
  w.On(1, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Bytes(8, 0));
    p.Delay(kStep);
    Burst(p, a, obj, lock, 1);  // kept
    w.cluster.network().SetLinkDelay(0, 1, kSlow);
    a.Acquire(p, lock);  // local
    p.Delay(5 * sim::kMillisecond);  // B asks meanwhile
    a.Release(p, lock);
  });
  std::int64_t got_at = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep + sim::kMillisecond);
    a.Acquire(p, lock);
    got_at = w.cluster.kernel().now();
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x22; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_LT(got_at, kStep + 5 * sim::kMillisecond + kSlow + kSlow / 2);
  EXPECT_EQ(w.cluster.agent(1).PeekHomeData(obj)[0], 0x22);
}

TEST(LockCache, LocalAcquireIsStillAFlushPoint) {
  // A write made outside any lock reaches its home (node 2) before a
  // local acquire returns, as it would before an acquire message left.
  World w(3, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(2, 2, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(2, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  Byte at_home = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock);
    a.Release(p, lock);  // kept
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x77; });
    a.Acquire(p, lock);  // local
    at_home = w.cluster.agent(2).PeekHomeData(obj)[0];
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(w.cluster.recorder(1).Count(Ev::kLockLocalAcquires), 1u);
  EXPECT_EQ(at_home, 0x77);
}

TEST(LockCache, AcquireBehindAHeldGrantSendsNoRecall) {
  // Node 2 holds lock0 under a cacheable grant and returns it unasked: its
  // release piggybacks a diff that the manager must forward to the
  // object's new home over a slowed link. Node 3's acquire then gets the
  // lock, but its grant waits for the forward's ack. Node 4 asks in that
  // window: the release cleared the cached mark, so no recall goes out (it
  // would reach node 3 ahead of its grant).
  World w(5, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock0 = LockId::Make(0, 1);
  const LockId lock2 = LockId::Make(2, 2);
  constexpr sim::Time kMs = sim::kMillisecond;
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock0);
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(5 * kStep);  // the home migrates 0->1 meanwhile
    w.cluster.network().SetLinkDelay(0, 1, 20 * kMs);
    a.Release(p, lock0);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(2 * kStep);
    Burst(p, a, obj, lock2, 3);
  });
  Byte got[2] = {};
  for (NodeId n : {3, 4}) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      p.Delay(6 * kStep + (n == 3 ? 2 : 5) * kMs);
      a.Acquire(p, lock0);
      a.Read(p, obj, [&](ByteSpan b) { got[n - 3] = b[1]; });
      a.Release(p, lock0);
    });
  }
  w.Run();
  ASSERT_TRUE(w.cluster.agent(1).IsHome(obj));
  EXPECT_EQ(got[0], 0x22);
  EXPECT_EQ(got[1], 0x22);
  EXPECT_EQ(w.rec().Count(Ev::kLockRecalls), 0u);
}

TEST(LockCache, LocalAcquireFencesLikeAMessageAcquire) {
  // Node 0 keeps lock2 (managed at node 2), then releases lock3 with a
  // diff riding a slowed link to node 3, the object's home, and takes
  // lock2 again locally. A message acquire would fence node 3 before
  // syncing at node 2; the local one must too, so node 1, which recalls
  // lock2 meanwhile, reads the write.
  World w(4, Cfg("NoHM"));
  w.cluster.trace().Enable();
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock3 = LockId::Make(3, 1);
  const LockId lock2 = LockId::Make(2, 2);
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  std::int64_t acquired_at = 0;
  w.On(0, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock2);
    a.Release(p, lock2);  // kept
    a.Acquire(p, lock3);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x5A; });
    w.cluster.network().SetLinkDelay(0, 3, 10 * kStep);
    a.Release(p, lock3);
    a.Acquire(p, lock2);  // local
    acquired_at = w.cluster.kernel().now();
    p.Delay(kStep);
    a.Release(p, lock2);  // recalled: sent back
  });
  Byte got = 0;
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kStep);
    a.Acquire(p, lock2);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    a.Release(p, lock2);
  });
  w.Run();
  EXPECT_EQ(got, 0x5A);
  EXPECT_EQ(w.cluster.recorder(0).Count(Ev::kLockLocalAcquires), 1u);
  EXPECT_EQ(w.rec().Count(Ev::kLockRecalls), 1u);
  const auto applied =
      EventTimes(w, trace::What::kDiffApplied, 3, 0, obj.value);
  ASSERT_EQ(applied.size(), 1u);
  EXPECT_LE(applied[0], acquired_at);
}

// ---------------------------------------------------------------------------
// Defensive limits & misc
// ---------------------------------------------------------------------------

TEST(AgentEdge, AcquireFlushesAnotherThreadsDirtyCopy) {
  // Two threads of node 1. B writes the object (homed at node 3) inside
  // lock2. Node 2 writes another byte of it under lock0 and releases. A's
  // acquire of lock0 flushes B's copy, then waits for its grant over a
  // slowed 0->1 link, while B writes the object again. That copy holds B's
  // bytes over a base older than node 2's write: A must flush it rather
  // than keep it, and read node 2's byte. The ack of that flush crawls over
  // a slowed 3->1 link while B writes a third time, so A flushes again.
  World w(4, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock0 = LockId::Make(0, 1);
  const LockId lock2 = LockId::Make(2, 2);
  constexpr sim::Time kMs = sim::kMillisecond;
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  Bytes seen_a;
  Bytes seen_b;
  w.On(1, [&](sim::Process& p, Agent& a) {  // B
    p.Delay(kStep);
    a.Acquire(p, lock2);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(2 * kMs);  // A flushes and waits meanwhile
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    w.cluster.network().SetLinkDelay(3, 1, 5 * kMs);
    p.Delay(6 * kMs);  // A's grant lands, A flushes and waits meanwhile
    a.Write(p, obj, [](MutByteSpan b) { b[2] = 0x33; });
    p.Delay(10 * kMs);
    a.Read(p, obj, [&](ByteSpan b) { seen_b = ToBytes(b); });
    a.Release(p, lock2);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Acquire(p, lock0);
    a.Write(p, obj, [](MutByteSpan b) { b[5] = 0x55; });
    a.Release(p, lock0);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {  // A
    p.Delay(kStep + kMs);
    w.cluster.network().SetLinkDelay(0, 1, 5 * kMs);
    a.Acquire(p, lock0);
    a.Read(p, obj, [&](ByteSpan b) { seen_a = ToBytes(b); });
    a.Release(p, lock0);
  });
  w.Run();
  ASSERT_EQ(seen_a.size(), 8u);
  EXPECT_EQ(seen_a[5], 0x55);
  EXPECT_EQ(seen_a[1], 0x22);
  EXPECT_EQ(seen_a[2], 0x33);
  ASSERT_EQ(seen_b.size(), 8u);
  EXPECT_EQ(seen_b[0], 0x11);
  EXPECT_EQ(seen_b[1], 0x22);
  EXPECT_EQ(seen_b[2], 0x33);
  EXPECT_EQ(seen_b[5], 0x55);
  const Bytes home = ToBytes(w.cluster.agent(3).PeekHomeData(obj));
  EXPECT_EQ(home[0], 0x11);
  EXPECT_EQ(home[1], 0x22);
  EXPECT_EQ(home[2], 0x33);
  EXPECT_EQ(home[5], 0x55);
}

TEST(AgentEdge, BarrierFlushesAnotherThreadsDirtyCopy) {
  // As above, with a barrier: node 2 writes a byte of the object (homed at
  // node 3) before it arrives, while thread B of node 1 writes the object
  // inside a lock as thread A of node 1 waits at the barrier. A's departure
  // must flush B's copy rather than keep it, and read node 2's byte.
  World w(4, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock2 = LockId::Make(2, 2);
  const BarrierId barrier = BarrierId::Make(0, 1);
  constexpr sim::Time kMs = sim::kMillisecond;
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  Bytes seen_a;
  w.On(1, [&](sim::Process& p, Agent& a) {  // B
    p.Delay(kStep);
    a.Acquire(p, lock2);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(2 * kMs);  // A flushes and waits meanwhile
    a.Write(p, obj, [](MutByteSpan b) { b[1] = 0x22; });
    p.Delay(10 * kMs);  // node 2 arrives meanwhile
    a.Release(p, lock2);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep);
    a.Write(p, obj, [](MutByteSpan b) { b[5] = 0x55; });
    p.Delay(5 * kMs);
    a.Barrier(p, barrier, 2);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {  // A
    p.Delay(kStep + kMs);
    a.Barrier(p, barrier, 2);
    a.Read(p, obj, [&](ByteSpan b) { seen_a = ToBytes(b); });
  });
  w.Run();
  ASSERT_EQ(seen_a.size(), 8u);
  EXPECT_EQ(seen_a[0], 0x11);
  EXPECT_EQ(seen_a[1], 0x22);
  EXPECT_EQ(seen_a[5], 0x55);
  EXPECT_EQ(w.cluster.agent(3).PeekHomeData(obj)[1], 0x22);
}

TEST(AgentEdge, ReleaseWaitsForItsWritesAnotherThreadFlushed) {
  // Thread B of node 1 writes the object (homed at node 3) under lock0.
  // Thread A of node 1 acquires lock2 meanwhile, which flushes B's copy
  // over a slowed 1->3 link. B's release then finds nothing dirty, but its
  // write is still on the way: the release must wait for it, or node 2,
  // which takes lock0 next, reads the old byte.
  World w(4, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(3, 3, 1);
  const LockId lock0 = LockId::Make(0, 1);
  const LockId lock2 = LockId::Make(2, 2);
  constexpr sim::Time kMs = sim::kMillisecond;
  w.On(3, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Bytes(8, 0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {  // B
    p.Delay(kStep);
    a.Acquire(p, lock0);
    a.Write(p, obj, [](MutByteSpan b) { b[0] = 0x11; });
    p.Delay(2 * kMs);  // A flushes the write meanwhile
    a.Release(p, lock0);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {  // A
    p.Delay(kStep + kMs);
    w.cluster.network().SetLinkDelay(1, 3, 10 * kMs);
    a.Acquire(p, lock2);
    a.Release(p, lock2);
  });
  Byte got = 0;
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(kStep + 4 * kMs);
    a.Acquire(p, lock0);
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    a.Release(p, lock0);
  });
  w.Run();
  EXPECT_EQ(got, 0x11);
}

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
