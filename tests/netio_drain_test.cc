// The primary rank's dispatcher drains its process's shm rings itself
// once a ring link is up (netio/socket_transport.h, "Thread layout on a
// shm mesh"). These properties keep that design correct and fast:
//
//   * liveness: the drainer never blocks while its rings hold bytes — not
//     while it waits for its agent lock (Runtime::DispatchLoop drains
//     through MailboxTransport::Progress), not while it waits for room in
//     a peer's full ring (ShmTransport::WriteFrame drains on the
//     drainer's thread), and not while it waits for a link lock held by a
//     co-hosted rank's sender (SocketTransport::SendData). With 16 KiB
//     frames and 4 KiB rings every send fills a ring, so two processes
//     whose workers and handlers all send to each other deadlock at once
//     if any of these rules is broken;
//   * prompt wake-up: a parked drainer also waits on its mailbox, so every
//     push into it — a self-send, a co-hosted rank's send — knocks the
//     ring doorbell instead of waiting out the futex backstop;
//   * no cost without rings: while no link has a ring, the primary keeps
//     the mailbox wait every other rank uses.
#include <gtest/gtest.h>

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
/// runtime::Runtime so its primary's dispatcher is the drainer, exactly as
/// on the mesh backend. Each process has two senders toward the other's
/// primary: a worker thread that sends under its rank's agent lock (as a
/// guest does) from the process's last rank, and the primary's handler,
/// which answers every worker frame with one frame of its own from the
/// draining dispatcher. Per-sender sequence numbers, drawn under the agent
/// lock that orders every send of the rank, check FIFO delivery.
void RunFullRings(std::size_t ranks_per_proc) {
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
      }
      me.received.fetch_add(1, std::memory_order_release);
    });
  }
  Connect(mesh);

  std::vector<std::thread> workers;
  for (std::size_t p = 0; p < 2; ++p) {
    workers.emplace_back([&, p] {
      Proc& me = procs[p];
      for (std::uint64_t i = 0; i < kWorkerFrames; ++i) {
        std::lock_guard lock(runtime::AgentLockForTest::Of(*rts[p],
                                                            me.worker));
        mesh[p]->Send(me.worker, me.peer, stats::MsgCat::kObj,
                      Frame(me.next_seq[me.worker]++, kFromWorker));
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
  EXPECT_FALSE(mesh[0]->DrainsOnWait(0));
  EXPECT_EQ(mesh[0]->drain_parks(), 0u);
  mesh[0]->CloseAll();
  dispatcher.join();
  Teardown(mesh);
}

}  // namespace
}  // namespace hmdsm::netio
