// Poll-before-park on the process-level receive threads (netio/poll_window.h):
// the shm ring reader and the reactor I/O threads keep polling for
// kReceivePollWindow after their last event and only then block. These
// tests pin the four properties that make that safe and worth it:
//
//   * frames that arrive inside the window are delivered without the
//     reader parking (so the writer skips FUTEX_WAKE and the reader skips
//     a scheduler wake-up);
//   * an idle reader does park once the window has passed, and burns no
//     CPU while parked;
//   * Stop() issued while the reader polls returns promptly;
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

#include "src/netio/poll_window.h"
#include "src/netio/shm.h"
#include "src/netio/socket.h"
#include "src/netio/socket_transport.h"
#include "src/util/bufpool.h"
#include "src/util/check.h"

namespace hmdsm::netio {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

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

/// Two same-process shm endpoints: `writer` (group 1) writes into the
/// inbound ring of `reader` (group 0), whose reader thread counts frames.
struct ShmPair {
  ShmPair() {
    ShmTransportOptions o;
    o.group_count = 2;
    o.self_group = 0;
    std::string error;
    reader = ShmTransport::Create(o, &error);
    HMDSM_CHECK_MSG(reader != nullptr, error);
    o.self_group = 1;
    writer = ShmTransport::Create(o, &error);
    HMDSM_CHECK_MSG(writer != nullptr, error);
    HMDSM_CHECK_MSG(writer->AttachPeer(0, reader->segment_name(), &error),
                    error);
    reader->StartReader(
        [this](std::size_t, Buf) {
          delivered.fetch_add(1, std::memory_order_release);
        },
        [](const std::string& why) { HMDSM_CHECK_MSG(false, why); }, &pool);
  }
  ~ShmPair() {
    writer->Stop();
    reader->Stop();
  }

  void Send() {
    const Byte frame[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    HMDSM_CHECK(writer->WriteFrame(0, ByteSpan(frame, sizeof frame)));
  }
  /// Sends one frame and waits for the reader thread to hand it over.
  void RoundTrip() {
    const std::uint64_t want = delivered.load(std::memory_order_acquire) + 1;
    Send();
    HMDSM_CHECK(WaitUntil(
        [&] { return delivered.load(std::memory_order_acquire) >= want; }));
  }

  BufferPool pool;
  std::atomic<std::uint64_t> delivered{0};
  std::unique_ptr<ShmTransport> reader;
  std::unique_ptr<ShmTransport> writer;
};

TEST(ReceivePoll, ShmFramesInsideTheWindowDoNotParkTheReader) {
  ShmPair shm;
  ASSERT_TRUE(WaitUntil([&] { return shm.reader->parks() > 0; }))
      << "a fresh reader has no window open and parks at once";
  shm.RoundTrip();  // wakes the parked reader and opens its window
  // Each next frame is written microseconds after the last was handed
  // over — well inside the window. Without the window the reader would
  // park once per frame; a few parks are allowed for this thread being
  // preempted past the window on a loaded host.
  constexpr std::uint64_t kFrames = 400;
  const std::uint64_t before = shm.reader->parks();
  for (std::uint64_t i = 0; i < kFrames; ++i) shm.RoundTrip();
  EXPECT_LT(shm.reader->parks() - before, kFrames / 4);
}

TEST(ReceivePoll, IdleShmReaderParksOnceTheWindowHasPassed) {
  ShmPair shm;
  ASSERT_TRUE(WaitUntil([&] { return shm.reader->parks() > 0; }));
  const std::uint64_t before = shm.reader->parks();
  shm.RoundTrip();
  EXPECT_TRUE(WaitUntil([&] { return shm.reader->parks() > before; }))
      << "the reader never parked after its last frame";
  // Parked, it burns nothing: well under a fifth of one core over a
  // stretch a thousand windows long (a polling reader would burn most of
  // one).
  std::this_thread::sleep_for(10ms);
  const auto cpu0 = ProcessCpu();
  std::this_thread::sleep_for(200ms);
  EXPECT_LT(ProcessCpu() - cpu0, 40ms);
}

TEST(ReceivePoll, StopInTheMiddleOfAPollReturnsPromptly) {
  // Stop right after a delivery, while the reader is polling: the stop
  // flag is seen on the next pass, never as late as the 50 ms futex
  // backstop. The median over several pairs keeps a preempted join from
  // deciding the test.
  std::vector<std::chrono::microseconds> stops;
  for (int i = 0; i < 9; ++i) {
    ShmPair shm;
    shm.RoundTrip();
    const auto t0 = Clock::now();
    shm.reader->Stop();
    stops.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              t0));
  }
  std::sort(stops.begin(), stops.end());
  EXPECT_LT(stops[stops.size() / 2], 25ms);
}

TEST(ReceivePoll, IdleReactorGoesBackToBlockingWait) {
  // Two single-rank processes' transports in this process, plain TCP (no
  // shm reader), one reactor thread each.
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
