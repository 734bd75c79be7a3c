// runtime::PollWindow — poll-before-park for every receive path.
//
// The protocol is round trips (fault-ins, lock grants, barriers): the next
// message usually lands within tens of microseconds of the last one, while
// a parked thread costs a scheduler wake-up on top of it, and waking it
// costs the sender a syscall. So after its last message or event a receive
// path keeps polling, yielding between passes, and parks only once its
// window has passed. Four paths use it:
//
//   * a guest parked in runtime::Guest::Park receives its node's messages
//     itself for kReceivePollWindow (runtime.h), popping the mailbox and,
//     on a mesh primary whose shm rings are live, draining the rings;
//   * a mesh primary's dispatcher drains its process's rings and watches
//     its mailbox for kReceivePollWindow before it parks on the ring
//     doorbell (netio/socket_transport.h, AwaitReceive);
//   * each reactor I/O thread calls epoll_wait(..., 0) for
//     kReceivePollWindow before it blocks (same file);
//   * every other dispatcher watches its mailbox for kMailboxPollWindow
//     before it parks on the mailbox condvar (runtime/channel.h, Await).
//
// Every pass still sees a mailbox close, the reactor's wake eventfd and
// its heartbeat timer, so teardown and liveness do not depend on the
// window.
//
// Why 200 us against 20 us: a receive path that drains rings or sockets,
// or a guest waiting for its own reply, waits out a whole hop — its next
// frame can only come back after a remote dispatcher, agent and sender
// ran. A dispatcher that only watches its mailbox bridges the gap between
// two pushes made inside its own process. 200 us was the smallest window
// near the best of a 100 us - 1 ms sweep with the repo benchmark on all
// three workloads, taken when the rings still had a reader thread of
// their own; it has not been swept since the dispatcher and then the
// parked guest took the rings over. The price is CPU while traffic flows;
// README ("Receive paths poll before they park") has it measured, quiet
// and under CPU contention.
#pragma once

#include <chrono>
#include <thread>

namespace hmdsm::runtime {

/// How long a guest, a ring-draining dispatcher or a reactor thread polls
/// after its last event before it parks.
inline constexpr std::chrono::microseconds kReceivePollWindow{200};
/// How long a dispatcher that only watches its mailbox polls.
inline constexpr std::chrono::microseconds kMailboxPollWindow{20};

/// One receive path's window. Busy() after a pass that found work;
/// YieldWithin() after one that found none — it yields and returns true
/// while the window is open, false once the thread should park. A fresh
/// window is closed: an idle thread parks at once.
class PollWindow {
 public:
  explicit PollWindow(std::chrono::microseconds window = kReceivePollWindow)
      : window_(window) {}

  void Busy() { deadline_ = Clock::now() + window_; }

  bool YieldWithin() {
    if (Clock::now() >= deadline_) return false;
    std::this_thread::yield();
    return true;
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::chrono::microseconds window_;
  Clock::time_point deadline_{};
};

}  // namespace hmdsm::runtime
