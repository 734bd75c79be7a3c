// A rank's packets are received by whoever holds its agent lock: its
// parked guest, which polls for its own reply, or else its dispatcher; on
// the primary rank, once a ring link is up, that receiver also drains the
// process's shm rings (netio/socket_transport.h, "Thread layout"). These
// properties keep that design correct and fast:
//
//   * liveness: no thread that waits for room in a peer's full ring
//     sleeps while its own rings may hold bytes — it drains them
//     (ShmTransport::WriteFrame), whether it holds its agent lock (a
//     guest's send), runs a handler on the dispatcher or on a parked
//     guest, or holds the link lock a co-hosted rank's reply needs. With
//     16 KiB frames and 4 KiB rings every send fills a ring, so two
//     processes whose senders and handlers all send to each other
//     deadlock at once if that rule is broken;
//   * prompt wake-up: a parked dispatcher also waits on its mailbox, so
//     every push into it — a self-send, a co-hosted rank's send — knocks
//     the ring doorbell instead of waiting out the futex backstop;
//   * no cost without rings: while no link has a ring, the primary keeps
//     the mailbox wait every other rank uses;
//   * a parked guest handles its own reply while the dispatcher stays
//     parked, a guest busy elsewhere (Delay) leaves its frames to the
//     dispatcher at once, and the receive role passing between guests and
//     the dispatcher never reorders a sender's frames.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/socket.h"
#include "src/netio/socket_transport.h"
#include "src/runtime/runtime.h"
#include "src/util/check.h"
#include "src/util/serde.h"

namespace hmdsm::runtime {

/// A hosted node's agent lock: the lock every send from that node runs
/// under, guest operations and dispatched handlers alike.
struct AgentLockForTest {
  static std::mutex& Of(Runtime& rt, dsm::NodeId node) {
    return rt.cell(node).mu;
  }

  /// Takes the agent lock the way guests and dispatchers do.
  static std::unique_lock<std::mutex> Lock(Runtime& rt, dsm::NodeId node) {
    return Runtime::LockCell(rt.cell(node));
  }

  /// What a blocking agent call does: `send` under the guest's agent lock,
  /// then park until a handler unparks the guest.
  template <typename F>
  static void SendAndPark(Runtime& rt, Guest& guest, F send) {
    std::unique_lock lock = Lock(rt, guest.node());
    guest.active_lock_ = &lock;
    send();
    guest.Park();
    guest.active_lock_ = nullptr;
  }
};

}  // namespace hmdsm::runtime

namespace hmdsm::netio {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

template <typename F>
bool WaitUntil(F done, std::chrono::milliseconds limit) {
  const auto deadline = Clock::now() + limit;
  while (!done() && Clock::now() < deadline) std::this_thread::yield();
  return done();
}

/// One transport per process of a `ranks`-rank localhost mesh with
/// `ranks_per_proc` ranks each and shm on (off in the last process unless
/// `shm_everywhere`), wired like the conformance suite (pre-bound
/// ephemeral listeners, everything in this process).
std::vector<std::unique_ptr<SocketTransport>> MakeMesh(
    std::size_t ranks, std::size_t ranks_per_proc, std::size_t ring_bytes,
    bool shm_everywhere = true) {
  const std::size_t procs = (ranks + ranks_per_proc - 1) / ranks_per_proc;
  std::vector<int> fds;
  std::vector<std::string> ports;
  for (std::size_t p = 0; p < procs; ++p) {
    std::uint16_t port = 0;
    std::string error;
    Fd fd = ListenOn("127.0.0.1:0", &port, &error);
    HMDSM_CHECK_MSG(fd.valid(), error);
    fds.push_back(fd.release());
    ports.push_back("127.0.0.1:" + std::to_string(port));
  }
  std::vector<std::string> peers;
  for (std::size_t r = 0; r < ranks; ++r)
    peers.push_back(ports[r / ranks_per_proc]);
  std::vector<std::unique_ptr<SocketTransport>> mesh;
  for (std::size_t p = 0; p < procs; ++p) {
    SocketTransportOptions o;
    o.rank = static_cast<net::NodeId>(p * ranks_per_proc);
    o.peers = peers;
    o.ranks_per_proc = ranks_per_proc;
    o.io_threads = 1;
    o.listen_fd = fds[p];
    o.shm_ring_bytes = ring_bytes;
    o.shm = shm_everywhere || p + 1 < procs;
    mesh.push_back(std::make_unique<SocketTransport>(o));
  }
  return mesh;
}

void Connect(std::vector<std::unique_ptr<SocketTransport>>& mesh) {
  for (auto& t : mesh) t->Start();
  for (auto& t : mesh) t->AwaitConnected();
  for (auto& t : mesh) {
    for (const LinkStats& link : t->LinkSnapshots())
      HMDSM_CHECK_MSG(link.shm, "a link did not negotiate the shm ring");
  }
}

void Teardown(std::vector<std::unique_ptr<SocketTransport>>& mesh) {
  for (auto& t : mesh) t->BeginShutdown();
  for (auto& t : mesh) t->Stop();
}

constexpr std::size_t kFrameBytes = 16 * 1024;
constexpr std::size_t kRingBytes = 4 * 1024;

/// A 16 KiB payload: [u64 per-sender sequence][u8 kind][filler].
Buf Frame(std::uint64_t seq, std::uint8_t kind) {
  Writer w;
  w.u64(seq);
  w.u8(kind);
  Bytes b = w.take();
  b.resize(kFrameBytes, static_cast<Byte>(seq));
  return Buf(std::move(b));
}

/// Two processes of `ranks_per_proc` ranks, each hosted by a real
/// runtime::Runtime, exactly as on the mesh backend. Each process has two
/// senders toward the other's primary: a worker thread that sends under
/// its rank's agent lock (as a guest does) from the process's last rank,
/// and the primary's handler, which answers every worker frame with one
/// frame of its own from the thread that drained it. With `guest_worker`
/// the worker is a runtime::Guest on the primary that parks for each
/// answer, so it drains the rings and runs the handler itself while it
/// waits. Per-sender sequence numbers, drawn under the agent lock that
/// orders every send of the rank, check FIFO delivery.
void RunFullRings(std::size_t ranks_per_proc, bool guest_worker = false) {
  constexpr std::uint64_t kWorkerFrames = 64;
  constexpr std::uint8_t kFromWorker = 0, kFromHandler = 1;
  const std::size_t ranks = 2 * ranks_per_proc;
  auto mesh = MakeMesh(ranks, ranks_per_proc, kRingBytes);
  runtime::RuntimeOptions ro;
  ro.nodes = ranks;
  std::vector<std::unique_ptr<runtime::Runtime>> rts;
  for (auto& t : mesh) {
    rts.push_back(std::make_unique<runtime::Runtime>(
        ro, *t, std::vector<dsm::NodeId>(t->local_ranks().begin(),
                                         t->local_ranks().end())));
  }

  struct Proc {
    net::NodeId primary = 0, worker = 0, peer = 0;
    std::vector<std::uint64_t> next_seq;  // [rank], under its agent lock
    std::vector<std::uint64_t> expect;    // [src rank], primary's handler
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> out_of_order{0};
    std::unique_ptr<runtime::Guest> guest;  // guest_worker only
  };
  Proc procs[2];
  for (std::size_t p = 0; p < 2; ++p) {
    Proc& me = procs[p];
    me.primary = static_cast<net::NodeId>(p * ranks_per_proc);
    me.worker = static_cast<net::NodeId>(me.primary + ranks_per_proc - 1);
    me.peer = static_cast<net::NodeId>((1 - p) * ranks_per_proc);
    me.next_seq.assign(ranks, 0);
    me.expect.assign(ranks, 0);
    SocketTransport& t = *mesh[p];
    // Replaces the agents' handlers; no traffic flows before Start().
    for (const net::NodeId n : t.local_ranks()) {
      t.SetHandler(n,
                   [](net::Packet) { ADD_FAILURE() << "not the primary"; });
    }
    t.SetHandler(me.primary, [&me, &t](net::Packet pk) {
      Reader r(pk.payload.span());
      const std::uint64_t seq = r.u64();
      const std::uint8_t kind = r.u8();
      if (seq != me.expect[pk.src]) me.out_of_order++;
      me.expect[pk.src] = seq + 1;
      if (kind == kFromWorker) {
        t.Send(me.primary, me.peer, stats::MsgCat::kObj,
               Frame(me.next_seq[me.primary]++, kFromHandler));
      } else if (me.guest != nullptr) {
        me.guest->Unpark();
      }
      me.received.fetch_add(1, std::memory_order_release);
    });
    if (guest_worker) {
      HMDSM_CHECK(me.worker == me.primary);
      me.guest = std::make_unique<runtime::Guest>(*rts[p], me.worker);
    }
  }
  Connect(mesh);

  std::vector<std::thread> workers;
  for (std::size_t p = 0; p < 2; ++p) {
    workers.emplace_back([&, p] {
      Proc& me = procs[p];
      auto send = [&] {
        mesh[p]->Send(me.worker, me.peer, stats::MsgCat::kObj,
                      Frame(me.next_seq[me.worker]++, kFromWorker));
      };
      for (std::uint64_t i = 0; i < kWorkerFrames; ++i) {
        if (me.guest != nullptr) {
          runtime::AgentLockForTest::SendAndPark(*rts[p], *me.guest, send);
        } else {
          std::lock_guard lock(runtime::AgentLockForTest::Of(*rts[p],
                                                              me.worker));
          send();
        }
      }
    });
  }
  const bool done = WaitUntil(
      [&] {
        return procs[0].received.load(std::memory_order_acquire) ==
                   2 * kWorkerFrames &&
               procs[1].received.load(std::memory_order_acquire) ==
                   2 * kWorkerFrames;
      },
      30000ms);
  if (!done) {
    // The senders are deadlocked and can never be joined: report and leave.
    std::fprintf(stderr,
                 "FAILED: drainers stalled with full rings (%llu and %llu of "
                 "%llu frames delivered, %zu ranks per process)\n",
                 static_cast<unsigned long long>(procs[0].received.load()),
                 static_cast<unsigned long long>(procs[1].received.load()),
                 static_cast<unsigned long long>(2 * kWorkerFrames),
                 ranks_per_proc);
    std::fflush(stderr);
    std::_Exit(1);
  }
  for (std::thread& w : workers) w.join();
  for (auto& rt : rts) rt->Shutdown();
  EXPECT_EQ(procs[0].out_of_order.load(), 0u);
  EXPECT_EQ(procs[1].out_of_order.load(), 0u);
  EXPECT_EQ(mesh[0]->shm_msgs(), 2 * kWorkerFrames);
  Teardown(mesh);
}

TEST(ShmDrain, FullRingsNeverStallTheDrainingDispatchers) {
  RunFullRings(1);
}

TEST(ShmDrain, FullRingsNeverStallAParkedGuestThatDrains) {
  // The worker is a guest of the primary that parks for each answer: while
  // parked it drains the rings, and the peer's frames it hands to the
  // handler make it a ring writer too, blocked on the peer's full ring.
  RunFullRings(1, /*guest_worker=*/true);
}

TEST(ShmDrain, FullRingsNeverStallADrainerWaitingForALinkLock) {
  // Two ranks per process: the worker is a co-hosted rank, so it holds
  // the link lock toward the peer, not the drainer's agent lock, while it
  // waits for room in the peer's ring — and the drainer's own reply needs
  // that link lock.
  RunFullRings(2);
}

TEST(ShmDrain, ParkedDrainerWakesPromptlyForLocalSends) {
  // Process 0 hosts ranks 0 and 1; a dispatcher thread drains for rank 0.
  // Before each send the drainer's window has long expired and it is
  // parked on the ring doorbell; only the knock of the mailbox push can
  // wake it before the 50 ms futex backstop.
  auto mesh = MakeMesh(4, 2, 256 * 1024);
  std::atomic<std::uint64_t> delivered{0};
  mesh[0]->SetHandler(0, [&](net::Packet) {
    delivered.fetch_add(1, std::memory_order_release);
  });
  mesh[0]->SetHandler(1, [](net::Packet) {});
  mesh[1]->SetHandler(2, [](net::Packet) {});
  mesh[1]->SetHandler(3, [](net::Packet) {});
  // Started before the mesh, as runtime::Runtime does: the dispatcher
  // waits on its mailbox until the ring link comes up and releases it.
  std::thread dispatcher([&] {
    net::Packet p;
    while (mesh[0]->WaitPop(0, p)) mesh[0]->Dispatch(std::move(p));
  });
  Connect(mesh);

  constexpr int kTrips = 20;
  for (const net::NodeId src : {net::NodeId{0}, net::NodeId{1}}) {
    Clock::duration total{};
    for (int i = 0; i < kTrips; ++i) {
      const std::uint64_t parks = mesh[0]->drain_parks();
      ASSERT_TRUE(WaitUntil([&] { return mesh[0]->drain_parks() > parks; },
                            5000ms))
          << "the drainer never parked";
      std::this_thread::sleep_for(1ms);  // well into the park
      const std::uint64_t want = delivered.load() + 1;
      const auto t0 = Clock::now();
      const Byte b[1] = {static_cast<Byte>(i)};
      mesh[0]->Send(src, 0, stats::MsgCat::kObj, Buf::Copy(ByteSpan(b, 1)));
      ASSERT_TRUE(WaitUntil([&] { return delivered.load() >= want; }, 5000ms));
      total += Clock::now() - t0;
    }
    // A missed knock costs the full backstop: 20 trips would take >= 1 s.
    EXPECT_LT(total, 250ms) << "sender rank " << src;
  }
  mesh[0]->CloseAll();
  dispatcher.join();
  Teardown(mesh);
}

TEST(ShmDrain, PrimaryKeepsItsMailboxWaitWhileNoLinkHasARing) {
  // Process 0 creates a segment but process 1 has shm off, so the link
  // stays on TCP and nothing ever writes process 0's rings. Rank 0's
  // dispatcher must keep the plain mailbox wait: frames arrive, and it
  // never polls the rings or parks on their doorbell.
  auto mesh = MakeMesh(2, 1, 256 * 1024, /*shm_everywhere=*/false);
  std::atomic<std::uint64_t> delivered{0};
  mesh[0]->SetHandler(0, [&](net::Packet) {
    delivered.fetch_add(1, std::memory_order_release);
  });
  mesh[1]->SetHandler(1, [](net::Packet) {});
  std::thread dispatcher([&] {
    net::Packet p;
    while (mesh[0]->WaitPop(0, p)) mesh[0]->Dispatch(std::move(p));
  });
  for (auto& t : mesh) t->Start();
  for (auto& t : mesh) t->AwaitConnected();
  ASSERT_TRUE(mesh[0]->shm_active());
  for (const LinkStats& link : mesh[0]->LinkSnapshots())
    EXPECT_FALSE(link.shm);

  for (int i = 0; i < 20; ++i) {
    const Byte b[1] = {static_cast<Byte>(i)};
    const net::NodeId src = i % 2 == 0 ? 1 : 0;  // TCP and self-send
    mesh[src]->Send(src, 0, stats::MsgCat::kObj, Buf::Copy(ByteSpan(b, 1)));
    ASSERT_TRUE(WaitUntil(
        [&] { return delivered.load() >= static_cast<std::uint64_t>(i + 1); },
        5000ms));
    std::this_thread::sleep_for(1ms);  // past any poll window
  }
  EXPECT_FALSE(mesh[0]->rings_live());
  EXPECT_EQ(mesh[0]->drain_parks(), 0u);
  mesh[0]->CloseAll();
  dispatcher.join();
  Teardown(mesh);
}

/// Two processes of one rank each over a ring link, each hosted by a real
/// runtime::Runtime; rank 1's handler echoes every frame back to rank 0.
/// Rank 0's handler counts the echoes it runs on `guest_thread` and
/// elsewhere, and unparks `guest` if it waits.
struct EchoPair {
  EchoPair() : mesh(MakeMesh(2, 1, 256 * 1024)) {
    runtime::RuntimeOptions ro;
    ro.nodes = 2;
    for (auto& t : mesh) {
      rts.push_back(std::make_unique<runtime::Runtime>(
          ro, *t, t->local_ranks().front()));
    }
    guest = std::make_unique<runtime::Guest>(*rts[0], 0);
    mesh[1]->SetHandler(1, [this](net::Packet pk) {
      mesh[1]->Send(1, 0, stats::MsgCat::kObj, std::move(pk.payload));
    });
    mesh[0]->SetHandler(0, [this](net::Packet) {
      if (std::this_thread::get_id() == guest_thread) {
        on_guest.fetch_add(1, std::memory_order_relaxed);
      } else {
        elsewhere.fetch_add(1, std::memory_order_relaxed);
      }
      delivered.fetch_add(1, std::memory_order_release);
      if (waiting) {
        waiting = false;
        guest->Unpark();
      }
    });
    Connect(mesh);
  }
  ~EchoPair() {
    for (auto& rt : rts) rt->Shutdown();
    Teardown(mesh);
  }

  /// One round trip as a blocking agent call makes it: send, then park
  /// until the echo's handler unparks the guest. Call on guest_thread.
  void RoundTrip() {
    runtime::AgentLockForTest::SendAndPark(*rts[0], *guest, [&] {
      waiting = true;  // under the agent lock, like the handler's read
      const Byte b[1] = {7};
      mesh[0]->Send(0, 1, stats::MsgCat::kObj, Buf::Copy(ByteSpan(b, 1)));
    });
  }

  std::vector<std::unique_ptr<SocketTransport>> mesh;
  std::vector<std::unique_ptr<runtime::Runtime>> rts;
  std::unique_ptr<runtime::Guest> guest;
  std::thread::id guest_thread = std::this_thread::get_id();  // rank 0's lock
  bool waiting = false;  // under rank 0's agent lock
  std::atomic<std::uint64_t> on_guest{0}, elsewhere{0}, delivered{0};
};

TEST(GuestReceive, ParkedGuestHandlesItsOwnReplyWhileTheDispatcherSleeps) {
  EchoPair pair;
  SocketTransport& t = *pair.mesh[0];
  ASSERT_TRUE(WaitUntil([&] { return t.drain_parks() > 0; }, 5000ms))
      << "rank 0's dispatcher never parked";
  // Each echo lands within a round trip, inside the parked guest's window:
  // the guest drains it and runs its handler, and the ring write that
  // carried it does not wake the dispatcher. A woken dispatcher parks
  // again right away, so the park counter shows every wake; only its
  // 50 ms backstop (and a guest preempted past its window on a loaded
  // host) may add a few.
  constexpr std::uint64_t kTrips = 200;
  const std::uint64_t parks = t.drain_parks();
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kTrips; ++i) pair.RoundTrip();
  const auto backstops = (Clock::now() - t0) / 50ms + 1;
  EXPECT_GE(pair.on_guest.load(), kTrips * 9 / 10)
      << pair.elsewhere.load() << " echoes ran on another thread";
  EXPECT_LE(t.drain_parks() - parks,
            kTrips / 20 + static_cast<std::uint64_t>(backstops));
}

TEST(GuestReceive, AGuestInDelayLeavesItsFramesToTheDispatcher) {
  EchoPair pair;
  pair.RoundTrip();  // the guest received once and gave the role back
  const std::uint64_t on_guest = pair.on_guest.load();
  std::atomic<bool> delaying{false}, delayed{false};
  std::thread guest([&] {
    {
      std::lock_guard lock(runtime::AgentLockForTest::Of(*pair.rts[0], 0));
      pair.guest_thread = std::this_thread::get_id();
    }
    delaying = true;
    pair.guest->Delay(std::chrono::nanoseconds(400ms).count());
    delayed = true;
  });
  ASSERT_TRUE(WaitUntil([&] { return delaying.load(); }, 5000ms));
  // Frames from rank 1 while the guest computes: none may wait for the
  // guest (400 ms) or for the dispatcher's 50 ms futex backstop.
  Clock::duration worst{};
  bool all_delivered = true;
  for (int i = 0; i < 10 && all_delivered; ++i) {
    std::this_thread::sleep_for(2ms);  // the dispatcher is parked again
    const std::uint64_t want = pair.delivered.load() + 1;
    const auto t0 = Clock::now();
    {
      std::lock_guard lock(runtime::AgentLockForTest::Of(*pair.rts[1], 1));
      const Byte b[1] = {static_cast<Byte>(i)};
      pair.mesh[1]->Send(1, 0, stats::MsgCat::kObj, Buf::Copy(ByteSpan(b, 1)));
    }
    all_delivered =
        WaitUntil([&] { return pair.delivered.load() >= want; }, 5000ms);
    worst = std::max(worst, Clock::now() - t0);
  }
  EXPECT_TRUE(all_delivered) << "a frame was never delivered";
  EXPECT_FALSE(delayed.load()) << "the frames waited for the guest's delay";
  EXPECT_LT(worst, 25ms);
  EXPECT_EQ(pair.on_guest.load(), on_guest);
  guest.join();
}

TEST(GuestReceive, AReceivingGuestHandsTheLockToAThreadThatWaitsForIt) {
  // Rank 1 streams frames at rank 0 back to back, so the guest that parks
  // on rank 0 never sees an idle pass and would keep the agent lock for as
  // long as the stream lasts. A thread that needs the lock meanwhile — here
  // to unpark that guest, as another guest of the node releasing a lock
  // would — must get it long before the stream ends. The guest takes the
  // stream over only if it parks while the dispatcher is not already
  // waiting for the lock, so it parks again until it has.
  EchoPair pair;
  pair.mesh[1]->SetHandler(1, [](net::Packet) {});
  std::atomic<bool> streaming{true}, stop{false};
  std::uint64_t sent = 0;  // read after the stream thread is joined
  std::thread stream([&] {
    const auto until = Clock::now() + 5000ms;
    while (!stop.load() && Clock::now() < until) {
      std::lock_guard lock(runtime::AgentLockForTest::Of(*pair.rts[1], 1));
      const Byte b[1] = {1};
      pair.mesh[1]->Send(1, 0, stats::MsgCat::kObj, Buf::Copy(ByteSpan(b, 1)));
      ++sent;
    }
    streaming = false;
  });
  bool receiving = false, still_streaming = false;
  Clock::duration waited{};
  for (int attempt = 0; attempt < 50 && !receiving; ++attempt) {
    const std::uint64_t before = pair.on_guest.load();
    bool parked_guest = false;  // under rank 0's agent lock
    std::thread parked([&] {
      runtime::AgentLockForTest::SendAndPark(*pair.rts[0], *pair.guest, [&] {
        pair.guest_thread = std::this_thread::get_id();
        parked_guest = true;
      });
    });
    receiving = WaitUntil(
        [&] { return pair.on_guest.load() > before + 100; }, 100ms);
    const auto t0 = Clock::now();
    for (bool unparked = false; !unparked;) {
      auto lock = runtime::AgentLockForTest::Lock(*pair.rts[0], 0);
      if (parked_guest) pair.guest->Unpark();
      unparked = parked_guest;
    }
    waited = Clock::now() - t0;
    still_streaming = streaming.load();
    parked.join();
  }
  stop = true;
  stream.join();
  // Teardown closes the mailboxes, so the stream's tail must be in first.
  EXPECT_TRUE(
      WaitUntil([&] { return pair.delivered.load() == sent; }, 10000ms));
  EXPECT_TRUE(receiving) << "the parked guest never took over the stream";
  EXPECT_TRUE(still_streaming) << "the lock came free only with the stream";
  EXPECT_LT(waited, 100ms);
}

/// Two guests on `node` (hosted by process `home` of two, `ranks_per_proc`
/// ranks each, over a ring link or, without `shm`, over TCP with no shm
/// segment in process 1) take turns with the node's dispatcher as its
/// receiver while the other process's primary, `peer`, streams numbered
/// frames at it from a worker. Each guest parks for answers to its own
/// requests and computes a little between them, so the receive role
/// passes among the three. Every frame carries its sender's sequence
/// number, drawn under the agent lock that orders the sender's sends.
void RunAlternatingReceivers(std::size_t ranks_per_proc, std::size_t home,
                             net::NodeId node, bool shm) {
  constexpr std::uint64_t kStream = 3000, kRequests = 300;
  constexpr std::uint8_t kData = 0, kRequest = 1, kAnswer = 2;
  const std::size_t away = 1 - home;
  const net::NodeId peer = static_cast<net::NodeId>(away * ranks_per_proc);
  auto mesh = MakeMesh(2 * ranks_per_proc, ranks_per_proc, 256 * 1024,
                       /*shm_everywhere=*/shm);
  runtime::RuntimeOptions ro;
  ro.nodes = 2 * ranks_per_proc;
  std::vector<std::unique_ptr<runtime::Runtime>> rts;
  for (auto& t : mesh) {
    rts.push_back(std::make_unique<runtime::Runtime>(
        ro, *t, std::vector<dsm::NodeId>(t->local_ranks().begin(),
                                         t->local_ranks().end())));
  }
  std::uint64_t node_seq = 0, peer_seq = 0;  // under node's / peer's lock
  std::uint64_t expect_at_node = 0, expect_at_peer = 0;
  std::atomic<std::uint64_t> out_of_order{0}, received{0};
  // [0], [1]: guest threads; [2]: any other thread (the dispatcher).
  std::atomic<std::uint64_t> handled_by[3] = {};
  std::thread::id guest_threads[2];
  std::unique_ptr<runtime::Guest> guests[2];
  bool waiting[2] = {false, false};  // under node's agent lock
  auto payload = [](std::uint64_t seq, std::uint8_t kind, std::uint8_t who) {
    Writer w;
    w.u64(seq);
    w.u8(kind);
    w.u8(who);
    return Buf(w.take());
  };
  for (auto& t : mesh) {
    for (const net::NodeId n : t->local_ranks())
      t->SetHandler(n, [](net::Packet) { ADD_FAILURE() << "unused rank"; });
  }
  mesh[away]->SetHandler(peer, [&](net::Packet pk) {
    Reader r(pk.payload.span());
    const std::uint64_t seq = r.u64();
    r.u8();
    const std::uint8_t who = r.u8();
    if (seq != expect_at_peer) out_of_order++;
    expect_at_peer = seq + 1;
    mesh[away]->Send(peer, node, stats::MsgCat::kObj,
                     payload(peer_seq++, kAnswer, who));
  });
  mesh[home]->SetHandler(node, [&](net::Packet pk) {
    Reader r(pk.payload.span());
    const std::uint64_t seq = r.u64();
    const std::uint8_t kind = r.u8();
    const std::uint8_t who = r.u8();
    if (seq != expect_at_node) out_of_order++;
    expect_at_node = seq + 1;
    const std::thread::id me = std::this_thread::get_id();
    handled_by[me == guest_threads[0] ? 0 : me == guest_threads[1] ? 1 : 2]
        .fetch_add(1, std::memory_order_relaxed);
    if (kind == kAnswer && waiting[who]) {
      waiting[who] = false;
      guests[who]->Unpark();
    }
    received.fetch_add(1, std::memory_order_release);
  });
  for (std::uint8_t g = 0; g < 2; ++g)
    guests[g] = std::make_unique<runtime::Guest>(*rts[home], node);
  for (auto& t : mesh) t->Start();
  for (auto& t : mesh) t->AwaitConnected();
  for (const LinkStats& link : mesh[home]->LinkSnapshots())
    ASSERT_EQ(link.shm, shm);
  ASSERT_EQ(mesh[home]->shm_active(), shm || home == 0);

  std::vector<std::thread> threads;
  std::atomic<int> ready{0};
  for (std::uint8_t g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      guest_threads[g] = std::this_thread::get_id();
      ready++;
      while (ready.load() < 3) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kRequests; ++i) {
        runtime::AgentLockForTest::SendAndPark(*rts[home], *guests[g], [&] {
          waiting[g] = true;
          mesh[home]->Send(node, peer, stats::MsgCat::kObj,
                           payload(node_seq++, kRequest, g));
        });
        // Compute for a while now and then: the other guest, or with both
        // busy the dispatcher, takes the stream meanwhile.
        if (i % 4 == g) guests[g]->Delay(300'000);
      }
    });
  }
  threads.emplace_back([&] {
    ready++;
    while (ready.load() < 3) std::this_thread::yield();
    for (std::uint64_t i = 0; i < kStream; ++i) {
      std::lock_guard lock(runtime::AgentLockForTest::Of(*rts[away], peer));
      mesh[away]->Send(peer, node, stats::MsgCat::kObj,
                       payload(peer_seq++, kData, 0));
    }
  });
  for (std::thread& th : threads) th.join();
  if (!WaitUntil([&] { return received.load() == kStream + 2 * kRequests; },
                 10000ms)) {
    // Frames were lost; the runtimes could never reach quiescence.
    std::fprintf(stderr,
                 "FAILED: %llu of %llu frames reached node %u (%llu out of "
                 "order)\n",
                 static_cast<unsigned long long>(received.load()),
                 static_cast<unsigned long long>(kStream + 2 * kRequests),
                 node, static_cast<unsigned long long>(out_of_order.load()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  for (auto& rt : rts) rt->Shutdown();
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_GT(handled_by[0].load(), 0u) << "guest 0 never received";
  EXPECT_GT(handled_by[1].load(), 0u) << "guest 1 never received";
  EXPECT_GT(handled_by[2].load(), 0u) << "the dispatcher never received";
  Teardown(mesh);
}

TEST(GuestReceive, ReceiveRoleAlternatesWithoutReorderingOnARingPrimary) {
  RunAlternatingReceivers(1, 0, 0, /*shm=*/true);
}

TEST(GuestReceive, ReceiveRoleAlternatesWithoutReorderingOnACoHostedRank) {
  // Rank 1's ring frames are drained by rank 0's receiver, then popped by
  // rank 1's own.
  RunAlternatingReceivers(2, 0, 1, /*shm=*/true);
}

TEST(GuestReceive, ReceiveRoleAlternatesWithoutReorderingOverTcp) {
  // Process 1 has no shm segment: its reactor feeds the mailbox.
  RunAlternatingReceivers(1, 1, 1, /*shm=*/false);
}

}  // namespace
}  // namespace hmdsm::netio
