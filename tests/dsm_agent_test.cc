// Integration tests for the DSM protocol engine over a simulated cluster:
// fault-in, diff propagation, locks, barriers, migration, redirection, and
// the notification mechanisms.
#include "src/dsm/agent.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/dsm/cluster.h"
#include "src/dsm/diff.h"

namespace hmdsm::dsm {
namespace {

using stats::Ev;
using stats::MsgCat;

constexpr sim::Time kSettle = 10 * sim::kMillisecond;

struct World {
  Cluster cluster;

  explicit World(std::size_t nodes, DsmConfig cfg = {})
      : cluster(ClusterOptions{nodes, net::HockneyModel(70.0, 12.5),
                               std::move(cfg)}) {}

  /// Runs a program on a node as a simulated process.
  void On(NodeId node, std::function<void(sim::Process&, Agent&)> fn,
          const std::string& name = "prog") {
    cluster.kernel().Spawn(name + "@" + std::to_string(node),
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

Bytes Val(std::uint64_t v) {
  Writer w;
  w.u64(v);
  return w.take();
}

std::uint64_t AsVal(ByteSpan b) {
  Reader r(b);
  return r.u64();
}

// ---------------------------------------------------------------------------
// Basics: creation, fault-in, diff propagation
// ---------------------------------------------------------------------------

TEST(Agent, LocalCreateAndAccessTouchesNoWire) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Val(7));
    std::uint64_t got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = AsVal(b); });
    EXPECT_EQ(got, 7u);
    a.Write(p, obj, [&](MutByteSpan b) { b[0] = 9; });
  });
  w.Run();
  EXPECT_EQ(w.rec().TotalMessages(), 0u);
  EXPECT_TRUE(w.cluster.agent(0).IsHome(obj));
}

TEST(Agent, RemoteCreateInstallsAtInitialHome) {
  World w(3, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(2, 0, 1);  // home = node 2
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(5)); });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(2).IsHome(obj));
  EXPECT_FALSE(w.cluster.agent(0).IsHome(obj));
  EXPECT_EQ(AsVal(w.cluster.agent(2).PeekHomeData(obj)), 5u);
  EXPECT_EQ(w.rec().Cat(MsgCat::kInit).messages, 2u);  // init + ack
}

TEST(Agent, RemoteReadFaultsInFromHome) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(42)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    std::uint64_t got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = AsVal(b); });
    EXPECT_EQ(got, 42u);
    // Second read hits the cached copy: no extra messages.
    a.Read(p, obj, [&](ByteSpan b) { got = AsVal(b); });
  });
  w.Run();
  EXPECT_EQ(w.rec().Cat(MsgCat::kObj).messages, 2u);  // request + reply
  EXPECT_EQ(w.rec().Count(Ev::kLocalHits), 1u);
  EXPECT_EQ(w.rec().Count(Ev::kRemoteReads), 1u);
}

TEST(Agent, WriteReleasePropagatesDiffToHome) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(1, 1);  // manager on node 1 ≠ home
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(1)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    a.Acquire(p, lock);
    a.Write(p, obj, [&](MutByteSpan b) {
      Writer wr;
      wr.u64(99);
      std::copy(wr.buffer().begin(), wr.buffer().end(), b.begin());
    });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(AsVal(w.cluster.agent(0).PeekHomeData(obj)), 99u);
  // Standalone diff + ack (home ≠ lock manager).
  EXPECT_EQ(w.rec().Cat(MsgCat::kDiff).messages, 2u);
  EXPECT_EQ(w.rec().Count(Ev::kTwinsCreated), 1u);
  EXPECT_EQ(w.rec().Count(Ev::kDiffsApplied), 1u);
  EXPECT_EQ(w.rec().Count(Ev::kRemoteWrites), 1u);
}

TEST(Agent, DiffPiggybacksWhenHomeIsLockManager) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);  // manager == home == node 0
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(1)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    a.Acquire(p, lock);
    a.Write(p, obj, [&](MutByteSpan b) { b[0] = 77; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_EQ(w.cluster.agent(0).PeekHomeData(obj)[0], 77);
  EXPECT_EQ(w.rec().Cat(MsgCat::kDiff).messages, 0u);  // rode the release
  EXPECT_EQ(w.rec().Count(Ev::kPiggybackedDiffs), 1u);
}

// ---------------------------------------------------------------------------
// Consistency: invalidate-on-acquire, lock mutual exclusion
// ---------------------------------------------------------------------------

TEST(Agent, AcquireInvalidatesStaleCachedCopy) {
  World w(3, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(10)); });
  // Node 1 reads (caches) the object early.
  // Node 2 then updates it under the lock.
  // Node 1 re-reads under the lock and must see the update.
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    std::uint64_t got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = AsVal(b); });
    EXPECT_EQ(got, 10u);
    p.Delay(10 * kSettle);
    a.Acquire(p, lock);
    a.Read(p, obj, [&](ByteSpan b) { got = AsVal(b); });
    a.Release(p, lock);
    EXPECT_EQ(got, 11u);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(3 * kSettle);
    a.Acquire(p, lock);
    a.Write(p, obj, [&](MutByteSpan b) {
      Writer wr;
      wr.u64(11);
      std::copy(wr.buffer().begin(), wr.buffer().end(), b.begin());
    });
    a.Release(p, lock);
  });
  w.Run();
}

TEST(Agent, LockSerializesIncrementsAcrossNodes) {
  World w(4, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  constexpr int kPerNode = 25;
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  for (NodeId n = 1; n < 4; ++n) {
    w.On(n, [&](sim::Process& p, Agent& a) {
      p.Delay(kSettle);
      for (int i = 0; i < kPerNode; ++i) {
        a.Acquire(p, lock);
        a.Write(p, obj, [&](MutByteSpan b) {
          Reader r(ByteSpan(b.data(), b.size()));
          const std::uint64_t v = r.u64();
          Writer wr;
          wr.u64(v + 1);
          std::copy(wr.buffer().begin(), wr.buffer().end(), b.begin());
        });
        a.Release(p, lock);
      }
    });
  }
  w.Run();
  EXPECT_EQ(AsVal(w.cluster.agent(0).PeekHomeData(obj)), 3u * kPerNode);
}

TEST(Agent, BarrierReleasesAllNodesTogether) {
  World w(4, Cfg("NoHM"));
  const BarrierId barrier = BarrierId::Make(0, 1);
  std::vector<sim::Time> arrive_done(4);
  for (NodeId n = 0; n < 4; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      p.Delay((n + 1) * sim::kMillisecond);  // staggered arrivals
      a.Barrier(p, barrier, 4);
      arrive_done[n] = w.cluster.kernel().now();
    });
  }
  w.Run();
  // Everyone leaves at/after the last arrival.
  for (NodeId n = 0; n < 4; ++n)
    EXPECT_GE(arrive_done[n], 4 * sim::kMillisecond);
}

TEST(Agent, BarrierFlushesWritesToHomes) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const BarrierId barrier = BarrierId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) {
    a.CreateObject(p, obj, Val(0));
    a.Barrier(p, barrier, 2);
    std::uint64_t got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = AsVal(b); });
    EXPECT_EQ(got, 123u);
  });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    a.Write(p, obj, [&](MutByteSpan b) {
      Writer wr;
      wr.u64(123);
      std::copy(wr.buffer().begin(), wr.buffer().end(), b.begin());
    });
    a.Barrier(p, barrier, 2);
  });
  w.Run();
}

// ---------------------------------------------------------------------------
// Home migration
// ---------------------------------------------------------------------------

// Drives the single-writer pattern: node `writer` updates `obj` under
// `lock` `count` times (fault + write + release per update). Writes start
// at 1 so the first update differs from the zero-initialized object (an
// unchanged write produces an empty diff, which the engine elides).
void SingleWriterBurst(sim::Process& p, Agent& a, ObjectId obj, LockId lock,
                       int count) {
  for (int i = 1; i <= count; ++i) {
    a.Acquire(p, lock);
    a.Write(p, obj, [&](MutByteSpan b) { b[0] = static_cast<Byte>(i); });
    a.Release(p, lock);
  }
}

TEST(Agent, FT1MigratesHomeToSingleWriter) {
  World w(2, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 5);
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(1).IsHome(obj));
  EXPECT_FALSE(w.cluster.agent(0).IsHome(obj));
  EXPECT_EQ(w.cluster.agent(0).ForwardTarget(obj), NodeId{1});
  EXPECT_EQ(w.rec().Count(Ev::kMigrations), 1u);
  EXPECT_EQ(w.rec().Cat(MsgCat::kMig).messages, 1u);
  // After migration the writer's updates are home writes: exclusive ones
  // accumulate (positive feedback).
  EXPECT_GE(w.rec().Count(Ev::kExclusiveHomeWrites), 2u);
}

TEST(Agent, NoHMNeverMigrates) {
  World w(2, Cfg("NoHM"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 8);
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(0).IsHome(obj));
  EXPECT_EQ(w.rec().Count(Ev::kMigrations), 0u);
}

TEST(Agent, FT2NeedsTwoConsecutiveWrites) {
  World w(2, Cfg("FT2"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    // Two updates: C reaches 2 only after the second release; the writer
    // never requests again, so FT2 does not migrate.
    SingleWriterBurst(p, a, obj, lock, 2);
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(0).IsHome(obj));
  EXPECT_EQ(w.rec().Count(Ev::kMigrations), 0u);
}

TEST(Agent, MigratedHomeServesOtherReaders) {
  World w(3, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 4);
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(50 * kSettle);
    // Reader with a stale hint (initial home node 0): gets redirected to
    // node 1 and still reads the latest value.
    Byte got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    EXPECT_EQ(got, 4);  // last write of the burst
    EXPECT_EQ(a.HintedHome(obj), NodeId{1});  // hint updated
  });
  w.Run();
  EXPECT_GE(w.rec().Cat(MsgCat::kRedir).messages, 1u);
  EXPECT_GE(w.rec().Count(Ev::kRedirectHops), 1u);
}

TEST(Agent, ForwardingChainAccumulatesHops) {
  // MH migrates on every write fault: rotate writers to build a chain,
  // then a reader with the original hint walks the whole chain.
  World w(5, Cfg("MH"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  for (NodeId n = 1; n <= 3; ++n) {
    w.On(n, [&, n](sim::Process& p, Agent& a) {
      p.Delay(n * 100 * sim::kMillisecond);  // strictly sequential writers
      a.Acquire(p, lock);
      a.Write(p, obj, [&](MutByteSpan b) { b[0] = static_cast<Byte>(n); });
      a.Release(p, lock);
    });
  }
  w.On(4, [&](sim::Process& p, Agent& a) {
    p.Delay(500 * sim::kMillisecond);
    Byte got = 0;
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    EXPECT_EQ(got, 3);  // last writer in the rotation was node 3
  });
  w.Run();
  // Homes went 0→1→2→3; node 4's request walked the chain (≥2 redirects —
  // redirection accumulation, paper Section 4.1) and, MH being MH, the
  // read fault then dragged the home to node 4 as well.
  EXPECT_TRUE(w.cluster.agent(4).IsHome(obj));
  EXPECT_GE(w.rec().Count(Ev::kRedirectHops), 2u);
}

TEST(Agent, WriteAfterMigrationFollowsRedirectedHome) {
  // A node with a stale hint faults, gets redirected to the migrated home,
  // and its subsequent diff lands at the new home.
  World w(3, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(2, 1);  // manager off the home path
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 3);  // home migrates to node 1
  });
  w.On(2, [&](sim::Process& p, Agent& a) {
    p.Delay(100 * kSettle);
    a.Acquire(p, lock);
    a.Write(p, obj, [&](MutByteSpan b) { b[1] = 0xEE; });
    a.Release(p, lock);
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(1).IsHome(obj));
  EXPECT_EQ(w.cluster.agent(1).PeekHomeData(obj)[1], 0xEE);
}

TEST(Agent, StandaloneDiffToObsoleteHomeIsForwarded) {
  // White-box: after the home moves 0→1, a raw diff aimed at the obsolete
  // home must chase the forwarding pointer and be applied at node 1 with
  // the original writer attributed.
  World w(3, Cfg("FT1"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 3);
  });
  w.On(2, [&](sim::Process& p, Agent&) {
    p.Delay(100 * kSettle);
    Bytes twin(8, 0), current(8, 0);
    current[1] = 0xEE;
    Bytes diff = Diff::Encode(twin, current);
    w.cluster.network().Send(
        2, 0, MsgCat::kDiff,
        proto::Encode(proto::DiffMsg{obj, std::move(diff), 0,
                                     /*ack_required=*/false, /*writer=*/2}));
  });
  w.Run();
  EXPECT_EQ(w.cluster.agent(1).PeekHomeData(obj)[1], 0xEE);
  // The remote write was attributed to node 2, not to the forwarding node.
  EXPECT_EQ(w.cluster.agent(1).HomeState(obj).consecutive_writer, NodeId{2});
}

TEST(Agent, ChainCompressionShortensFutureWalks) {
  // Build a 3-link chain under MH, then have node 4 walk it twice: with
  // compression on, the second walk from the same stale start is short.
  auto run = [](bool compress) {
    DsmConfig cfg = Cfg("MH");
    cfg.compress_chains = compress;
    World w(6, std::move(cfg));
    const ObjectId obj = ObjectId::Make(0, 0, 1);
    const LockId lock = LockId::Make(0, 1);
    w.On(0,
         [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
    for (NodeId n = 1; n <= 3; ++n) {
      w.On(n, [&, n](sim::Process& p, Agent& a) {
        p.Delay(n * 100 * sim::kMillisecond);
        a.Acquire(p, lock);
        a.Write(p, obj, [&](MutByteSpan b) { b[0] = static_cast<Byte>(n); });
        a.Release(p, lock);
      });
    }
    // Node 5 walks the chain first (possibly compressing node 0's fp),
    // then node 4 starts from the same stale hint (node 0).
    w.On(5, [&](sim::Process& p, Agent& a) {
      p.Delay(500 * sim::kMillisecond);
      a.Read(p, obj, [](ByteSpan) {});
    });
    std::uint32_t second_walk_hops = 0;
    w.On(4, [&](sim::Process& p, Agent& a) {
      p.Delay(800 * sim::kMillisecond);
      const auto before = w.rec().Count(Ev::kRedirectHops);
      a.Read(p, obj, [](ByteSpan) {});
      second_walk_hops =
          static_cast<std::uint32_t>(w.rec().Count(Ev::kRedirectHops) - before);
    });
    w.Run();
    return second_walk_hops;
  };
  const std::uint32_t without = run(false);
  const std::uint32_t with = run(true);
  EXPECT_GT(without, 1u);   // full chain walk
  EXPECT_LT(with, without); // node 0's pointer was compressed
}

// ---------------------------------------------------------------------------
// Notification mechanisms
// ---------------------------------------------------------------------------

class NotifyMechanismTest
    : public ::testing::TestWithParam<NotifyMechanism> {};

TEST_P(NotifyMechanismTest, StaleRequesterFindsMigratedHome) {
  DsmConfig cfg = Cfg("FT1");
  cfg.notify = GetParam();
  World w(4, std::move(cfg));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 4);
  });
  w.On(3, [&](sim::Process& p, Agent& a) {
    p.Delay(80 * kSettle);
    Byte got = 0xFF;
    a.Read(p, obj, [&](ByteSpan b) { got = b[0]; });
    EXPECT_EQ(got, 4);  // last write of the burst
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(1).IsHome(obj));
  if (GetParam() == NotifyMechanism::kBroadcast) {
    // Everyone was notified: migration broadcast messages on the wire.
    EXPECT_GE(w.rec().Cat(MsgCat::kNotify).messages, 3u);
  }
  if (GetParam() == NotifyMechanism::kHomeManager) {
    // The manager is the initial home, so the migration's update was a free
    // local post; the *miss* path is what hits the wire: redirect reply +
    // manager lookup + manager reply (the paper's three-visit sequence).
    EXPECT_GE(w.rec().Cat(MsgCat::kRedir).messages, 3u);
    EXPECT_GE(w.rec().Count(Ev::kRedirectHops), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMechanisms, NotifyMechanismTest,
                         ::testing::Values(NotifyMechanism::kForwardingPointer,
                                           NotifyMechanism::kHomeManager,
                                           NotifyMechanism::kBroadcast));

TEST(Agent, BroadcastUpdatesIdleNodesHints) {
  DsmConfig cfg = Cfg("FT1");
  cfg.notify = NotifyMechanism::kBroadcast;
  World w(4, std::move(cfg));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 4);
  });
  w.Run();
  // Node 3 never touched the object yet knows the new home.
  EXPECT_EQ(w.cluster.agent(3).HintedHome(obj), NodeId{1});
}

// ---------------------------------------------------------------------------
// Adaptive policy, end to end
// ---------------------------------------------------------------------------

TEST(Agent, ATMigratesOnLastingPattern) {
  World w(2, Cfg("AT"));
  const ObjectId obj = ObjectId::Make(0, 0, 1);
  const LockId lock = LockId::Make(0, 1);
  w.On(0, [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
  w.On(1, [&](sim::Process& p, Agent& a) {
    p.Delay(kSettle);
    SingleWriterBurst(p, a, obj, lock, 16);
  });
  w.Run();
  EXPECT_TRUE(w.cluster.agent(1).IsHome(obj));
  EXPECT_EQ(w.rec().Count(Ev::kMigrations), 1u);
  // Sensitivity: migration happened by the second update, so at most the
  // first two updates could fault remotely.
  EXPECT_LE(w.rec().Count(Ev::kRemoteReads), 2u);
}

TEST(Agent, ATInhibitsMigrationOnTransientPatternWhereFT1Thrashes) {
  // Writers rotate with bursts of 2 — the transient single-writer pattern.
  // FT1 migrates on nearly every burst; AT's threshold climbs after the
  // first round of negative feedback and migration stops (robustness).
  auto run = [](const std::string& policy) {
    World w(5, Cfg(policy));
    const ObjectId obj = ObjectId::Make(0, 0, 1);
    const LockId lock = LockId::Make(0, 1);
    w.On(0,
         [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
    for (NodeId n = 1; n <= 4; ++n) {
      w.On(n, [&, n](sim::Process& p, Agent& a) {
        for (int round = 0; round < 6; ++round) {
          // Strict rotation: writer n owns virtual-time slot
          // (round*4 + n-1); slots are far longer than a burst.
          const sim::Time slot_start =
              (round * 4 + (n - 1)) * 50 * sim::kMillisecond +
              sim::kMillisecond;
          const sim::Time now = w.cluster.kernel().now();
          if (slot_start > now) p.Delay(slot_start - now);
          SingleWriterBurst(p, a, obj, lock, 2);
        }
      });
    }
    w.Run();
    return std::pair{w.rec().Count(Ev::kMigrations),
                     w.rec().Count(Ev::kRedirectHops)};
  };
  const auto [mig_ft1, hops_ft1] = run("FT1");
  const auto [mig_at, hops_at] = run("AT");
  EXPECT_GE(mig_ft1, 10u);  // thrashing: ~one migration per burst
  // Robustness: the negative feedback inhibits most migrations. (AT keeps
  // a one-step memory — the threshold refreezes at migration time — so
  // occasional migrations recur, but an order fewer than FT1.)
  EXPECT_LE(mig_at * 4, mig_ft1);
  EXPECT_LT(hops_at, hops_ft1);
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(Agent, RunsAreBitDeterministic) {
  auto run = [] {
    World w(4, Cfg("AT"));
    const ObjectId obj = ObjectId::Make(0, 0, 1);
    const LockId lock = LockId::Make(0, 1);
    w.On(0,
         [&](sim::Process& p, Agent& a) { a.CreateObject(p, obj, Val(0)); });
    for (NodeId n = 1; n < 4; ++n) {
      w.On(n, [&](sim::Process& p, Agent& a) {
        p.Delay(kSettle);
        SingleWriterBurst(p, a, obj, lock, 8);
      });
    }
    w.Run();
    return std::tuple{w.cluster.kernel().now(), w.rec().TotalMessages(),
                      w.rec().TotalBytes(), w.rec().Count(Ev::kMigrations)};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace hmdsm::dsm
