// netio::PollWindow — poll-before-park for the mesh's receive paths: the
// primary rank's dispatcher, which drains its process's shm rings itself
// (netio/socket_transport.h, DrainPop), and each reactor I/O thread
// (same file).
//
// The protocol is round trips (fault-ins, lock grants, barriers): the next
// frame usually lands within tens of microseconds of the last one, while a
// parked thread costs a scheduler wake-up on top of it — and a parked
// drainer makes every ring writer pay a FUTEX_WAKE syscall. So after its
// last frame or event a receive path keeps polling (its mailbox and rings,
// or epoll_wait(..., 0)), yielding between passes, for kReceivePollWindow,
// and only then parks. Every pass still sees the mailbox close, the wake
// eventfd and the heartbeat timer, so teardown and liveness do not change.
//
// Why 200 us when a plain mailbox wait spins 20 us (runtime/channel.h
// WaitPop): a receive path's next frame is usually a reply, which can only
// come back after a remote dispatcher, agent and sender ran, so its window
// must span a whole hop; a dispatcher that only pops its mailbox bridges
// the gap between two pushes of its own process's reactor threads. Swept
// with the repo benchmark while a separate thread still read the rings
// (10 s runs, seed 2, 4 processes on a 4-vCPU VM, runs taken while host
// steal stayed under 1%): writer_churn 112k-116k ops/s at 100 us,
// 125k-126k at 200, 120k-139k at 300, 134k-139k at 500 and 123k-137k at
// 1000, against 48k-56k parked; hot_home 88k-109k at 100, 105k-106k at
// 200, 97k-111k at 300 and 100k-112k at 500; read_share_tcp, whose three
// reactor threads per process all poll, 141k-181k at 100, 138k-180k at 200
// and 148k-160k at 300-500. 200 us is the smallest window near the best on
// all three; it was not swept again when the dispatcher took over the
// rings. The price is CPU while traffic flows; README ("Receive paths poll
// before they park") has it measured, quiet and under CPU contention.
#pragma once

#include <chrono>
#include <thread>

namespace hmdsm::netio {

/// How long a receive path polls after its last event before it parks.
inline constexpr std::chrono::microseconds kReceivePollWindow{200};

/// One receive path's window. Busy() after a pass that found work;
/// YieldWithin() after one that found none — it yields and returns true
/// while the window is open, false once the thread should park. A fresh
/// window is closed: an idle thread parks at once.
class PollWindow {
 public:
  void Busy() { deadline_ = Clock::now() + kReceivePollWindow; }

  bool YieldWithin() {
    if (Clock::now() >= deadline_) return false;
    std::this_thread::yield();
    return true;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline_{};
};

}  // namespace hmdsm::netio
