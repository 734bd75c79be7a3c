// In-process channel transport for the threads backend.
//
// Every node owns one mailbox (an MPSC channel: any node's thread may push;
// only the holder of the node's agent lock pops — the node's dispatcher,
// or a guest of the node while it is parked, see mailbox_transport.h).
// The mailbox fast path is a bounded
// lock-free MPSC ring (MpscRing below) with a locked overflow deque behind
// it, so concurrent senders to a hot node do not serialize on a mutex. A
// message is one serialized proto::wire payload — exactly what the
// simulated network carries — so the protocol cannot tell the backends
// apart except through timing.
//
// Ordering: Agent code always sends while holding its own node's agent
// lock, so all pushes from one source node are serialized; each push
// claims a ring slot (or an overflow deque position) atomically, in a
// total order the consumer pops in. Together that yields the per-sender
// FIFO the protocol relies on (the sim gets the same property from NIC
// transmit serialization; Channel's comment argues the ring/overflow
// transitions). Self-sends go through the mailbox too, so a handler never
// runs re-entrantly inside the sender's call stack.
//
// Statistics: per-node recorders, send half recorded by the sender, receive
// half by the receiving thread at delivery (each under its node's agent
// lock).
// The enqueued/dispatched counters feed Runtime::AwaitQuiescence.
//
// Latency injection (optional): EnableLatencyInjection stamps every
// cross-node Send with a delivery deadline of Now() + scale *
// HockneyModel::Latency(wire bytes); the dispatcher holds each popped
// packet (AwaitDeliveryTime) until its deadline before delivering. The
// sleep happens between pop and dispatch, outside the agent lock, so an
// injecting transport does not lend its mailboxes to parked guests
// (LendsReceive): its dispatchers keep popping with WaitPop. The
// semantics are deadline-based, not cumulative sleep: packets queued
// behind a sleeping dispatcher age toward their own deadlines meanwhile,
// so same-size fan-in latencies overlap like the simulator's pipeline
// latencies. Delivery stays per-destination FIFO, though, so a small
// packet queued behind a large one inherits the larger deadline
// (head-of-line blocking — a receive-side serialization the simulator
// does not model; it bounds measured-vs-modeled fidelity for mixed-size
// fan-in). hol_inherited() counts exactly those packets — deliveries whose
// own deadline had already expired by the time the dispatcher reached them
// — so measured-vs-modeled divergence is attributable to a number, not a
// hunch. Statistics are untouched — injection shapes time, not traffic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/hockney.h"
#include "src/runtime/mailbox_transport.h"
#include "src/runtime/poll_window.h"
#include "src/util/check.h"

namespace hmdsm::runtime {

using net::NodeId;

/// Sleeps `dt` nanoseconds with sub-scheduler-jiffy accuracy: a coarse
/// sleep_for for the bulk, then a yield-spin to the deadline. Plain
/// sleep_for routinely overshoots by tens of microseconds — the same order
/// as a modeled message latency or compute delay, which would swamp
/// injected Hockney delays and Env::Compute sleeps.
void PreciseSleepFor(sim::Time dt);

/// Bounded lock-free multi-producer single-consumer packet ring (Vyukov
/// sequence-number scheme). Producers claim a slot with one CAS and publish
/// it with one release store; the consumer pops in claim order with plain
/// loads/stores — no mutex anywhere on the fast path. TryPush fails (never
/// blocks) when the ring is full; Channel falls back to its locked overflow
/// deque, so the protocol keeps its unbounded-mailbox semantics.
class MpscRing {
 public:
  explicit MpscRing(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Multi-producer. False when the ring is full; `packet` is untouched
  /// then (the caller still owns it).
  bool TryPush(net::Packet&& packet) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[pos & mask_];
      const std::size_t seq = slot.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.packet = std::move(packet);
          slot.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: a whole lap behind the consumer
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer. False when the next slot holds no published packet —
  /// either the ring is empty or a producer is mid-publish (Empty()
  /// distinguishes the two).
  bool TryPop(net::Packet& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head & mask_];
    const std::size_t seq = slot.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(head + 1) < 0) {
      return false;
    }
    out = std::move(slot.packet);
    slot.packet = net::Packet{};  // drop the payload ref promptly
    slot.seq.store(head + mask_ + 1, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  /// True when no producer has even *claimed* a slot ahead of the
  /// consumer. (!Empty() after a failed TryPop means a publish is in
  /// flight and will complete momentarily.) Also a peek for threads that
  /// wait to become the consumer: head_ is atomic for them.
  bool Empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    net::Packet packet;
  };

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  // producers
  alignas(64) std::atomic<std::size_t> head_{0};  // written by the consumer
};

/// One node's mailbox: multi-producer, single-consumer (whoever holds the
/// node's agent lock: its dispatcher, or a parked guest that borrowed the
/// mailbox with Lend).
///
/// Fast path is the lock-free MpscRing — a push is one CAS plus one release
/// store, so concurrent senders never serialize on a mailbox mutex. When
/// the ring fills, producers fall back to a locked overflow deque; once any
/// packet sits in overflow, *all* producers keep using it until the
/// consumer drains it, and the consumer always exhausts the ring before
/// touching overflow. Per-sender FIFO survives both transitions:
///   * ring -> overflow: a sender's earlier ring packets are popped (ring
///     is exhausted first) before its overflow packets;
///   * overflow -> ring: a sender re-enters the ring only after the
///     overflow is empty, i.e. its overflow packets were already popped.
///
/// The overflow queue is an intrusive singly-linked list whose nodes come
/// from a bounded free list, so a mailbox that oscillates across the
/// ring-full boundary stops allocating after warm-up — overflow bursts are
/// exactly the moments the allocator lock would hurt most. overflow_allocs()
/// counts the nodes that had to come from the allocator; steady state means
/// the counter stops moving.
class Channel {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 512;
  /// Free nodes kept for reuse; beyond this, pops release to the allocator.
  /// Sized to a few ring capacities: an overflow deeper than that is a
  /// sustained imbalance, not a burst worth holding memory for.
  static constexpr std::size_t kMaxFreeNodes = 1024;

  explicit Channel(std::size_t ring_capacity = kDefaultRingCapacity)
      : ring_(ring_capacity) {}

  ~Channel() {
    FreeList(ov_head_);
    FreeList(free_);
  }

  /// A push that starts after Close() throws "send on closed channel"; a
  /// push racing Close() may instead land and be dropped with the rest of
  /// the queue (identical to losing the same race against the old mutex —
  /// close drops all remaining packets either way).
  void Push(net::Packet&& packet) {
    HMDSM_CHECK_MSG(!closed_.load(std::memory_order_acquire),
                    "send on closed channel");
    if (overflow_active_.load(std::memory_order_acquire) ||
        !ring_.TryPush(std::move(packet))) {
      std::lock_guard lock(mu_);
      HMDSM_CHECK_MSG(!closed_.load(std::memory_order_relaxed),
                      "send on closed channel");
      OvNode* node = free_;
      if (node != nullptr) {
        free_ = node->next;
        --free_count_;
      } else {
        node = new OvNode;
        overflow_allocs_.fetch_add(1, std::memory_order_relaxed);
      }
      node->packet = std::move(packet);
      node->next = nullptr;
      if (ov_tail_ != nullptr) {
        ov_tail_->next = node;
      } else {
        ov_head_ = node;
      }
      ov_tail_ = node;
      overflow_active_.store(true, std::memory_order_release);
    }
    Knock();
  }

  /// Blocks until a packet is ready to pop, without popping it; false
  /// when the channel is closed (remaining packets are dropped: close
  /// means the run is over) or when Interrupt() released a parked wait;
  /// closed() tells the two apart.
  ///
  /// Spin-then-block: protocol traffic is bursty request/response chains
  /// where the next packet typically lands within microseconds, while a
  /// condvar block costs a scheduler wake (tens of microseconds) — the same
  /// order as a modeled message latency, which would distort
  /// measured-vs-modeled comparisons. A kMailboxPollWindow spin absorbs the
  /// common case; idle consumers still park on the condvar. While the
  /// mailbox is lent to a parked guest the waiter neither spins nor
  /// returns: the guest pops, pushes do not notify, and Reclaim() notifies
  /// if packets are left.
  bool Await() {
    PollWindow window(kMailboxPollWindow);
    window.Busy();
    while (!lent_.load(std::memory_order_relaxed)) {
      if (closed_.load(std::memory_order_acquire)) return false;
      if (HasPacket()) return true;
      if (!window.YieldWithin()) break;
    }
    for (;;) {
      // Eventcount handshake with Knock() and Reclaim(): the waiting_ store
      // and the producers' publish (or the lender's return) are both
      // sequenced by seq_cst fences, so either the check below sees the
      // packet or the other side sees waiting_ and takes the mutex to
      // notify. The timed wait is a pure backstop.
      waiting_.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (!lent_.load(std::memory_order_seq_cst) && HasPacket()) {
        waiting_.store(false, std::memory_order_relaxed);
        return true;
      }
      {
        std::unique_lock lock(mu_);
        if (closed_.load(std::memory_order_relaxed) || interrupted_) {
          interrupted_ = false;
          waiting_.store(false, std::memory_order_relaxed);
          return false;
        }
        if (lent_.load(std::memory_order_relaxed) || !HasPacket()) {
          cv_.wait_for(lock, std::chrono::milliseconds(10));
        }
      }
      waiting_.store(false, std::memory_order_relaxed);
    }
  }

  /// Await, then pop: blocks until a packet is available or the channel is
  /// closed. For a consumer that needs no baton (it is the only one).
  bool WaitPop(net::Packet& out) {
    while (Await()) {
      if (TryPop(out)) return true;
    }
    return false;
  }

  /// A peek any thread may take: a packet is published or being published
  /// (TryPop then completes the publish), in the ring or in overflow.
  bool HasPacket() const {
    return !ring_.Empty() || overflow_active_.load(std::memory_order_acquire);
  }

  /// The consumer's parked guest starts polling: pushes stop notifying a
  /// waiter, whose Await stands down until Reclaim.
  void Lend() { lent_.store(true, std::memory_order_seq_cst); }

  /// Ends Lend: notifies a parked waiter when a packet is left, since the
  /// pushes meanwhile did not. Same fence pairing as Knock.
  void Reclaim() {
    lent_.store(false, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_seq_cst) && HasPacket()) {
      std::lock_guard lock(mu_);
      cv_.notify_one();
    }
  }

  /// Makes the consumer's parked Await — or its next one to park —
  /// return false without a packet, so it can switch to another wait.
  void Interrupt() {
    {
      std::lock_guard lock(mu_);
      interrupted_ = true;
    }
    cv_.notify_all();
  }

  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Overflow nodes that had to come from the allocator (free list empty).
  /// Flat after warm-up = allocation-free steady state.
  std::uint64_t overflow_allocs() const {
    return overflow_allocs_.load(std::memory_order_relaxed);
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Single consumer, non-blocking: the next packet if one is published.
  /// Ring strictly first, overflow only once the ring is fully drained
  /// (see the class comment for why that ordering is what preserves
  /// per-sender FIFO).
  bool TryPop(net::Packet& out) {
    for (;;) {
      if (ring_.TryPop(out)) return true;
      if (ring_.Empty()) break;
      // A producer claimed the head slot but has not published it yet.
      // Everything in overflow is newer than that claim, so skipping ahead
      // would reorder; spin the publish out instead (it is two machine
      // stores away).
      std::this_thread::yield();
    }
    if (!overflow_active_.load(std::memory_order_acquire)) return false;
    std::lock_guard lock(mu_);
    if (ov_head_ == nullptr) return false;
    OvNode* node = ov_head_;
    ov_head_ = node->next;
    if (ov_head_ == nullptr) {
      ov_tail_ = nullptr;
      overflow_active_.store(false, std::memory_order_release);
    }
    out = std::move(node->packet);
    node->packet = net::Packet{};  // drop the payload ref promptly
    if (free_count_ < kMaxFreeNodes) {
      node->next = free_;
      free_ = node;
      ++free_count_;
    } else {
      delete node;
    }
    return true;
  }

 private:
  /// Producer-side wake: only touches the mutex when the consumer is
  /// (about to be) parked and no guest polls in its place, so the hot path
  /// stays lock-free.
  void Knock() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiting_.load(std::memory_order_seq_cst) &&
        !lent_.load(std::memory_order_seq_cst)) {
      std::lock_guard lock(mu_);
      cv_.notify_one();
    }
  }

  struct OvNode {
    net::Packet packet;
    OvNode* next = nullptr;
  };

  static void FreeList(OvNode* node) {
    while (node != nullptr) {
      OvNode* next = node->next;
      delete node;
      node = next;
    }
  }

  MpscRing ring_;
  std::atomic<bool> closed_{false};
  std::atomic<bool> overflow_active_{false};
  std::atomic<bool> waiting_{false};
  std::atomic<bool> lent_{false};  // a parked guest polls (Lend/Reclaim)
  mutable std::mutex mu_;  // overflow list + free list + eventcount sleep
  std::condition_variable cv_;
  OvNode* ov_head_ = nullptr;  // FIFO overflow queue
  OvNode* ov_tail_ = nullptr;
  OvNode* free_ = nullptr;  // recycled nodes, bounded by kMaxFreeNodes
  std::size_t free_count_ = 0;
  bool interrupted_ = false;  // guarded by mu_
  std::atomic<std::uint64_t> overflow_allocs_{0};
};

/// The threads backend's Transport: wall clock, per-node mailboxes.
class ChannelTransport final : public MailboxTransport {
 public:
  explicit ChannelTransport(std::size_t node_count);

  std::size_t node_count() const override { return channels_.size(); }

  void SetHandler(NodeId node, Handler handler) override {
    HMDSM_CHECK(node < handlers_.size());
    handlers_[node] = std::move(handler);
  }

  /// Enqueues the packet into the destination mailbox. Called with the
  /// sender's node serialization in force (agent lock), which is what makes
  /// the per-node send accounting race-free.
  void Send(NodeId src, NodeId dst, stats::MsgCat cat, Buf payload) override;

  /// Enables wall-clock latency injection (see file comment). `scale`
  /// multiplies the modeled latency; <= 0 disables injection entirely.
  /// Call before traffic starts flowing.
  void EnableLatencyInjection(const net::HockneyModel& model, double scale) {
    inject_model_ = model;
    inject_scale_ = scale;
  }
  bool latency_injection_enabled() const { return inject_scale_ > 0; }

  /// Injection sleeps between pop and dispatch, which must not happen
  /// under the agent lock: an injecting transport keeps its mailboxes to
  /// the WaitPop dispatchers.
  bool LendsReceive() const override { return inject_scale_ <= 0; }

  /// Blocks until `packet`'s injected delivery deadline. No-op when
  /// injection is off or the deadline already passed — but an
  /// already-passed deadline means the packet waited behind an earlier
  /// (larger) packet's sleep and effectively inherited its delivery time,
  /// so it is counted in hol_inherited(). Dispatchers call this after
  /// popping and *before* taking the destination agent lock, so a sleeping
  /// delivery never blocks the node's guests (and guests, which would
  /// receive under that lock, never receive while injection is on).
  void AwaitDeliveryTime(const net::Packet& packet) const override {
    if (packet.deliver_after <= 0) return;
    const sim::Time wait = packet.deliver_after - Now();
    if (wait > 0) {
      PreciseSleepFor(wait);
    } else {
      hol_inherited_.fetch_add(1, std::memory_order_acq_rel);
    }
  }

  /// Latency injection only: packets delivered *after* their own injected
  /// deadline because the dispatcher was busy sleeping out an earlier
  /// packet's (head-of-line) deadline. The modeled network pipelines these
  /// deliveries instead, so this counter bounds how far a measured run can
  /// diverge from the model on mixed-size fan-in.
  std::uint64_t hol_inherited() const {
    return hol_inherited_.load(std::memory_order_acquire);
  }

  /// Wall-clock nanoseconds since transport construction.
  sim::Time Now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  stats::Recorder& RecorderFor(NodeId node) override {
    HMDSM_CHECK(node < recorders_.size());
    return recorders_[node];
  }
  const stats::Recorder& RecorderFor(NodeId node) const override {
    HMDSM_CHECK(node < recorders_.size());
    return recorders_[node];
  }

  // ---- dispatcher plumbing (Runtime's per-node threads) ----

  bool AwaitReceive(NodeId node) override {
    HMDSM_CHECK(node < channels_.size());
    return channels_[node].Await();
  }
  bool TryReceive(NodeId node, net::Packet& out) override {
    return channels_[node].TryPop(out);
  }
  void LendReceive(NodeId node) override { channels_[node].Lend(); }
  void ReclaimReceive(NodeId node) override { channels_[node].Reclaim(); }

  /// Delivers one popped packet: receive accounting plus the registered
  /// handler. Must be called under the destination node's agent lock.
  void Dispatch(net::Packet&& packet) override;

  /// Closes every mailbox; dispatchers drain out of their waits with false.
  void CloseAll() override {
    for (Channel& c : channels_) c.Close();
  }

  /// Messages enqueued / fully handled so far. `enqueued() == dispatched()`
  /// while no worker is running means the cluster is quiescent (a handler
  /// increments `dispatched` only after it returns, and any message it sent
  /// bumped `enqueued` first).
  std::uint64_t enqueued() const override {
    return enqueued_.load(std::memory_order_acquire);
  }
  std::uint64_t dispatched() const override {
    return dispatched_.load(std::memory_order_acquire);
  }

  /// Total messages delivered so far (self-sends excluded).
  std::uint64_t packets_sent() const {
    return packets_sent_.load(std::memory_order_acquire);
  }

  /// Also snapshots per-mailbox overflow-alloc baselines, so the measured
  /// window reports only steady-state allocations (which should be zero —
  /// the whole point of the node pool).
  void ResetStats() override;

  /// Folds the mailbox overflow-alloc counter into `node`'s snapshot.
  void AugmentSnapshot(net::NodeId node, stats::Recorder& into) const override;

 private:
  std::deque<Channel> channels_;           // per node; deque: stable refs
  std::vector<std::uint64_t> overflow_alloc_base_;  // ResetStats snapshots
  std::vector<Handler> handlers_;          // written before dispatch starts
  std::deque<stats::Recorder> recorders_;  // per node; deque: stable refs
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::atomic<std::uint64_t> packets_sent_{0};
  mutable std::atomic<std::uint64_t> hol_inherited_{0};
  std::chrono::steady_clock::time_point epoch_;
  net::HockneyModel inject_model_{70.0, 12.5};  // written before dispatch
  double inject_scale_ = 0.0;                   // starts; read-only after
};

}  // namespace hmdsm::runtime
