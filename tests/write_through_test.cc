// Tests for the write-through (sequential-consistency-style) mode — the
// protocol family the paper's introduction contrasts LRC against.
#include <gtest/gtest.h>

#include "src/gos/global.h"
#include "src/gos/vm.h"

namespace hmdsm {
namespace {

using gos::Env;
using gos::GlobalScalar;
using gos::Thread;
using gos::Vm;
using gos::VmOptions;

VmOptions Opts(bool write_through, const std::string& policy = "NoHM") {
  VmOptions o;
  o.nodes = 4;
  o.dsm.policy = policy;
  o.dsm.write_through = write_through;
  return o;
}

TEST(WriteThrough, RemoteWriteVisibleWithoutSynchronization) {
  // The defining SC-style property our LRC mode deliberately lacks:
  // a write becomes visible to other nodes' reads with no lock protocol.
  Vm vm(Opts(true));
  vm.Run([&](Env& env) {
    auto x = GlobalScalar<int>::Create(env, 0, /*home=*/0);
    Thread* writer = vm.Spawn(1, [&](Env& me) { x.Set(me, 42); });
    vm.Join(env, writer);
    Thread* reader = vm.Spawn(2, [&](Env& me) {
      EXPECT_EQ(x.Get(me), 42);  // no acquire needed
    });
    vm.Join(env, reader);
  });
}

TEST(WriteThrough, LrcCachesStaleUntilAcquire) {
  // Contrast case: under LRC the reader's cached copy legitimately stays
  // stale until a synchronization point.
  Vm vm(Opts(false));
  vm.Run([&](Env& env) {
    auto x = GlobalScalar<int>::Create(env, 0, 0);
    gos::LockId lock = vm.CreateLock(0);
    int before_sync = -1, after_sync = -1;
    Thread* reader = vm.Spawn(2, [&](Env& me) {
      EXPECT_EQ(x.Get(me), 0);  // caches the copy
      me.Compute(0.1);          // writer updates meanwhile
      before_sync = x.Get(me);  // still the cached (stale) copy
      me.Synchronized(lock, [&] { after_sync = x.Get(me); });
    });
    Thread* writer = vm.Spawn(1, [&](Env& me) {
      me.Compute(0.05);
      me.Synchronized(lock, [&] { x.Set(me, 7); });
    });
    vm.Join(env, reader);
    vm.Join(env, writer);
    EXPECT_EQ(before_sync, 0);  // stale read allowed by LRC
    EXPECT_EQ(after_sync, 7);   // visible after the acquire
  });
}

TEST(WriteThrough, EveryAccessCommunicates) {
  // Paper intro: "sequential consistency suffers from poor performance due
  // to excessive data communication" — quantify it on the same access
  // sequence.
  auto run = [](bool write_through) {
    Vm vm(Opts(write_through));
    std::uint64_t messages = 0;
    vm.Run([&](Env& env) {
      auto x = GlobalScalar<long>::Create(env, 0, 0);
      vm.ResetMeasurement();
      Thread* t = vm.Spawn(1, [&](Env& me) {
        for (int i = 0; i < 10; ++i) {
          (void)x.Get(me);
          x.Update(me, [](long v) { return v + 1; });
        }
      });
      vm.Join(env, t);
      messages = vm.Report().messages;
    });
    return messages;
  };
  const std::uint64_t lrc = run(false);
  const std::uint64_t sc = run(true);
  // LRC: one fault, then every access is a local hit (no syncs here).
  EXPECT_LE(lrc, 4u);
  // Write-through: every read refetches, every write round-trips.
  EXPECT_GE(sc, 10u * 4u);
}

TEST(WriteThrough, LockedCountersStillExact) {
  // Write-through composes with the lock protocol: no lost updates.
  Vm vm(Opts(true));
  vm.Run([&](Env& env) {
    auto counter = GlobalScalar<long>::Create(env, 0, 0);
    gos::LockId lock = vm.CreateLock(0);
    std::vector<Thread*> workers;
    for (gos::NodeId n = 0; n < 4; ++n) {
      workers.push_back(vm.Spawn(n, [&](Env& me) {
        for (int i = 0; i < 10; ++i)
          me.Synchronized(lock, [&] {
            counter.Update(me, [](long v) { return v + 1; });
          });
      }));
    }
    for (Thread* w : workers) vm.Join(env, w);
    EXPECT_EQ(counter.Get(env), 40);
  });
}

TEST(WriteThrough, UncontendedLockStillGoesToTheManager) {
  // A sole locker's releases carry no diffs here (every write went to the
  // home already), but write-through mode keeps every sync message: no
  // grant lets the holder keep the lock.
  Vm vm(Opts(true));
  vm.Run([&](Env& env) {
    auto counter = GlobalScalar<long>::Create(env, 0, 0);
    gos::LockId lock = vm.CreateLock(0);
    vm.ResetMeasurement();
    Thread* t = vm.Spawn(1, [&](Env& me) {
      for (int i = 0; i < 10; ++i)
        me.Synchronized(lock, [&] {
          counter.Update(me, [](long v) { return v + 1; });
        });
    });
    vm.Join(env, t);
    const gos::RunReport r = vm.Report();
    EXPECT_EQ(r.lock_local_acquires, 0u);
    EXPECT_EQ(r.cat[static_cast<int>(stats::MsgCat::kSync)].messages, 30u);
  });
}

TEST(WriteThrough, ComposesWithMigration) {
  // A lasting single writer still attracts the home under AT, after which
  // its write-through accesses become free home writes.
  Vm vm(Opts(true, "AT"));
  vm.Run([&](Env& env) {
    auto x = GlobalScalar<long>::Create(env, 0, 0);
    Thread* writer = vm.Spawn(2, [&](Env& me) {
      for (int i = 0; i < 20; ++i) x.Update(me, [](long v) { return v + 1; });
    });
    vm.Join(env, writer);
    EXPECT_EQ(x.Get(env), 20);
    EXPECT_GE(vm.Report().migrations, 1u);
  });
}

TEST(PerNodeStats, AttributionMatchesTraffic) {
  Vm vm(Opts(false));
  vm.Run([&](Env& env) {
    auto x = GlobalScalar<long>::Create(env, 7, /*home=*/3);
    vm.ResetMeasurement();
    Thread* t = vm.Spawn(1, [&](Env& me) { (void)x.Get(me); });
    vm.Join(env, t);
    const stats::Recorder rec = vm.cluster().Totals();
    // One request node1→node3, one reply node3→node1.
    EXPECT_EQ(rec.SentBy(1).messages, 1u);
    EXPECT_EQ(rec.ReceivedBy(3).messages, 1u);
    EXPECT_EQ(rec.SentBy(3).messages, 1u);
    EXPECT_EQ(rec.ReceivedBy(1).messages, 1u);
    EXPECT_EQ(rec.SentBy(0).messages, 0u);
    EXPECT_EQ(rec.SentBy(1).bytes + rec.SentBy(3).bytes,
              rec.TotalBytes(true));
  });
}

}  // namespace
}  // namespace hmdsm
