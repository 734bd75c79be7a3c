// Poll-before-park on the mesh's receive paths (runtime/poll_window.h): the
// primary rank's dispatcher, which drains its process's shm rings, and the
// reactor I/O threads keep polling for kReceivePollWindow after their last
// event and only then block. These tests pin the four properties that
// make that safe and worth it:
//
//   * frames that arrive inside the window are delivered without the
//     drainer parking (so the writer skips FUTEX_WAKE and the drainer
//     skips a scheduler wake-up);
//   * an idle drainer does park once the window has passed, and burns no
//     CPU while parked;
//   * closing the mailboxes (Runtime::Shutdown) or stopping the transport
//     while the drainer polls releases it promptly;
//   * an idle reactor goes back to blocking epoll_wait(-1): it burns no
//     CPU.
#include <gtest/gtest.h>

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/socket.h"
#include "src/netio/socket_transport.h"
#include "src/runtime/poll_window.h"
#include "src/util/check.h"

namespace hmdsm::netio {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using runtime::kReceivePollWindow;
using runtime::PollWindow;

/// CPU time consumed by every thread of this process.
std::chrono::nanoseconds ProcessCpu() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::chrono::seconds(ts.tv_sec) + std::chrono::nanoseconds(ts.tv_nsec);
}

/// Spins until `done()` holds or `limit` passes; returns done().
template <typename F>
bool WaitUntil(F done, std::chrono::milliseconds limit = 5000ms) {
  const auto deadline = Clock::now() + limit;
  while (!done() && Clock::now() < deadline) std::this_thread::yield();
  return done();
}

/// Two single-rank processes' transports in this process with shm on, so
/// rank 1's data frames travel rank 0's inbound ring. A dispatcher thread
/// runs rank 0 exactly as runtime::Runtime's would (WaitPop, Dispatch), so
/// it is the drainer; its handler counts deliveries.
struct DrainPair {
  DrainPair() {
    std::vector<int> fds;
    std::vector<std::string> peers;
    for (int p = 0; p < 2; ++p) {
      std::uint16_t port = 0;
      std::string error;
      Fd fd = ListenOn("127.0.0.1:0", &port, &error);
      HMDSM_CHECK_MSG(fd.valid(), error);
      fds.push_back(fd.release());
      peers.push_back("127.0.0.1:" + std::to_string(port));
    }
    for (int p = 0; p < 2; ++p) {
      SocketTransportOptions o;
      o.rank = static_cast<net::NodeId>(p);
      o.peers = peers;
      o.io_threads = 1;
      o.listen_fd = fds[p];
      mesh.push_back(std::make_unique<SocketTransport>(o));
    }
    mesh[0]->SetHandler(0, [this](net::Packet) {
      delivered.fetch_add(1, std::memory_order_release);
    });
    mesh[1]->SetHandler(1, [](net::Packet) {});
    for (auto& t : mesh) t->Start();
    for (auto& t : mesh) t->AwaitConnected();
    HMDSM_CHECK_MSG(mesh[1]->LinkSnapshots().front().shm,
                    "the link did not negotiate the shm ring");
    dispatcher = std::thread([this] {
      net::Packet p;
      while (mesh[0]->WaitPop(0, p)) mesh[0]->Dispatch(std::move(p));
      released_at = Clock::now();
    });
  }
  ~DrainPair() {
    for (auto& t : mesh) t->BeginShutdown();
    if (dispatcher.joinable()) {
      mesh[0]->CloseAll();
      dispatcher.join();
    }
    for (auto& t : mesh) t->Stop();
  }

  std::uint64_t parks() const { return mesh[0]->drain_parks(); }
  void Send() {
    const Byte frame[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    mesh[1]->Send(1, 0, stats::MsgCat::kObj,
                  Buf::Copy(ByteSpan(frame, sizeof frame)));
  }
  /// Sends one frame and waits for the drainer to run its handler.
  void RoundTrip() {
    const std::uint64_t want = delivered.load(std::memory_order_acquire) + 1;
    Send();
    HMDSM_CHECK(WaitUntil(
        [&] { return delivered.load(std::memory_order_acquire) >= want; }));
  }
  /// Lets `release` end the drainer's WaitPop and returns how long the
  /// dispatcher took to come out of it.
  template <typename F>
  std::chrono::microseconds TimeRelease(F release) {
    const auto t0 = Clock::now();
    release();
    dispatcher.join();
    return std::chrono::duration_cast<std::chrono::microseconds>(
        released_at - t0);
  }

  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::unique_ptr<SocketTransport>> mesh;
  std::thread dispatcher;
  Clock::time_point released_at;
};

TEST(ReceivePoll, ShmFramesInsideTheWindowDoNotParkTheDrainer) {
  DrainPair shm;
  ASSERT_TRUE(WaitUntil([&] { return shm.parks() > 0; }))
      << "an idle drainer parks once its first window has passed";
  shm.RoundTrip();  // wakes the parked drainer and opens its window
  // Each next frame is written microseconds after the last was handled —
  // well inside the window. Without the window the drainer would park
  // once per frame; a few parks are allowed for this thread being
  // preempted past the window on a loaded host.
  constexpr std::uint64_t kFrames = 400;
  const std::uint64_t before = shm.parks();
  for (std::uint64_t i = 0; i < kFrames; ++i) shm.RoundTrip();
  EXPECT_LT(shm.parks() - before, kFrames / 4);
}

TEST(ReceivePoll, IdleDrainerParksOnceTheWindowHasPassed) {
  DrainPair shm;
  ASSERT_TRUE(WaitUntil([&] { return shm.parks() > 0; }));
  const std::uint64_t before = shm.parks();
  shm.RoundTrip();
  EXPECT_TRUE(WaitUntil([&] { return shm.parks() > before; }))
      << "the drainer never parked after its last frame";
  // Parked, it burns nothing: well under a fifth of one core over a
  // stretch a thousand windows long (a polling drainer would burn most of
  // one). The two reactors wake only for heartbeats meanwhile.
  std::this_thread::sleep_for(10ms);
  const auto cpu0 = ProcessCpu();
  std::this_thread::sleep_for(200ms);
  EXPECT_LT(ProcessCpu() - cpu0, 40ms);
}

TEST(ReceivePoll, CloseOrStopInTheMiddleOfAPollReleasesTheDrainer) {
  // Release the drainer right after a delivery, while it is polling —
  // by closing the mailboxes (what Runtime::Shutdown does) or by stopping
  // the transport. It sees the close on its next pass, never as late as
  // the 50 ms futex backstop. The median over several pairs keeps a
  // preempted thread from deciding the test.
  std::vector<std::chrono::microseconds> closes, stops;
  for (int i = 0; i < 5; ++i) {
    {
      DrainPair shm;
      shm.RoundTrip();
      closes.push_back(shm.TimeRelease([&] { shm.mesh[0]->CloseAll(); }));
    }
    {
      DrainPair shm;
      shm.RoundTrip();
      for (auto& t : shm.mesh) t->BeginShutdown();
      stops.push_back(shm.TimeRelease([&] { shm.mesh[0]->Stop(); }));
    }
  }
  std::sort(closes.begin(), closes.end());
  std::sort(stops.begin(), stops.end());
  EXPECT_LT(closes[closes.size() / 2], 25ms);
  EXPECT_LT(stops[stops.size() / 2], 25ms);
}

TEST(ReceivePoll, IdleReactorGoesBackToBlockingWait) {
  // Two single-rank processes' transports in this process, plain TCP (no
  // shm rings, so every dispatcher pops its mailbox), one reactor thread
  // each.
  std::vector<int> fds;
  std::vector<std::string> peers;
  for (int p = 0; p < 2; ++p) {
    std::uint16_t port = 0;
    std::string error;
    Fd fd = ListenOn("127.0.0.1:0", &port, &error);
    ASSERT_TRUE(fd.valid()) << error;
    fds.push_back(fd.release());
    peers.push_back("127.0.0.1:" + std::to_string(port));
  }
  std::vector<std::unique_ptr<SocketTransport>> mesh;
  for (int p = 0; p < 2; ++p) {
    SocketTransportOptions o;
    o.rank = static_cast<net::NodeId>(p);
    o.peers = peers;
    o.io_threads = 1;
    o.listen_fd = fds[p];
    o.shm = false;
    mesh.push_back(std::make_unique<SocketTransport>(o));
  }
  for (int p = 0; p < 2; ++p)
    mesh[p]->SetHandler(static_cast<net::NodeId>(p), [](net::Packet) {});
  for (auto& t : mesh) t->Start();
  for (auto& t : mesh) t->AwaitConnected();

  // Traffic keeps rank 1's reactor busy; then it falls idle.
  for (int i = 0; i < 200; ++i) {
    const Byte b[1] = {static_cast<Byte>(i)};
    mesh[0]->Send(0, 1, stats::MsgCat::kObj, Buf::Copy(ByteSpan(b, 1)));
    net::Packet p;
    ASSERT_TRUE(mesh[1]->WaitPop(1, p));
    mesh[1]->Dispatch(std::move(p));
  }
  // Back in epoll_wait(-1), both reactors wake only for heartbeats (one
  // tick and one peer beat per 250 ms), each followed by one window; a
  // reactor that kept polling would burn most of a core.
  std::this_thread::sleep_for(20ms);
  const auto cpu0 = ProcessCpu();
  std::this_thread::sleep_for(200ms);
  EXPECT_LT(ProcessCpu() - cpu0, 40ms);

  for (auto& t : mesh) t->BeginShutdown();
  for (auto& t : mesh) t->Stop();
}

TEST(ReceivePoll, WindowClosedUntilBusyThenExpires) {
  PollWindow window;
  EXPECT_FALSE(window.YieldWithin()) << "a fresh window must be closed";
  const auto opened = Clock::now();
  window.Busy();
  const bool open = window.YieldWithin();
  if (Clock::now() - opened < kReceivePollWindow) {
    EXPECT_TRUE(open);
  }
  std::this_thread::sleep_for(kReceivePollWindow + 1ms);
  EXPECT_FALSE(window.YieldWithin());
}

}  // namespace
}  // namespace hmdsm::netio
