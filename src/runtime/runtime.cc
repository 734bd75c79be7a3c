#include "src/runtime/runtime.h"

#include <chrono>
#include <utility>

#include "src/runtime/poll_window.h"

namespace hmdsm::runtime {

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(RuntimeOptions options)
    : options_(std::move(options)),
      owned_transport_(std::make_unique<ChannelTransport>(options_.nodes)),
      transport_(*owned_transport_) {
  if (options_.inject_latency_scale > 0) {
    owned_transport_->EnableLatencyInjection(options_.model,
                                             options_.inject_latency_scale);
  }
  local_nodes_.reserve(options_.nodes);
  for (dsm::NodeId n = 0; n < options_.nodes; ++n) local_nodes_.push_back(n);
  Init();
}

Runtime::Runtime(RuntimeOptions options, MailboxTransport& transport,
                 std::vector<dsm::NodeId> local_nodes)
    : options_(std::move(options)), transport_(transport) {
  HMDSM_CHECK_MSG(transport_.node_count() == options_.nodes,
                  "external transport sized for " << transport_.node_count()
                                                  << " nodes, options say "
                                                  << options_.nodes);
  HMDSM_CHECK_MSG(options_.inject_latency_scale <= 0,
                  "latency injection is the channel transport's feature");
  HMDSM_CHECK_MSG(!local_nodes.empty(), "a process must host at least one "
                                        "rank");
  for (const dsm::NodeId n : local_nodes) HMDSM_CHECK(n < options_.nodes);
  local_nodes_ = std::move(local_nodes);
  Init();
}

Runtime::Runtime(RuntimeOptions options, MailboxTransport& transport,
                 dsm::NodeId local_node)
    : Runtime(std::move(options), transport,
              std::vector<dsm::NodeId>{local_node}) {}

void Runtime::Init() {
  HMDSM_CHECK_MSG(options_.nodes >= 1 && options_.nodes <= 0x10000,
                  "node count out of range");
  cells_.resize(options_.nodes);
  for (dsm::NodeId n : local_nodes_) {
    auto cell = std::make_unique<NodeCell>();
    cell->agent = std::make_unique<dsm::Agent>(n, transport_, options_.dsm,
                                               options_.trace);
    cells_[n] = std::move(cell);
  }
  // Handlers are all registered (agent constructors); only now may traffic
  // start flowing, so the dispatcher threads start last.
  dispatchers_.reserve(local_nodes_.size());
  for (dsm::NodeId n : local_nodes_)
    dispatchers_.emplace_back([this, n] { DispatchLoop(n); });
}

Runtime::~Runtime() { Shutdown(); }

void Runtime::DispatchLoop(dsm::NodeId node) {
  NodeCell& cell = *cells_[node];
  net::Packet packet;
  if (!transport_.LendsReceive()) {
    // Injected Hockney delay between pop and dispatch, outside the agent
    // lock: a delivery sleeping toward its deadline must not block the
    // node's guests. This thread is the mailbox's only consumer.
    while (transport_.WaitPop(node, packet)) {
      transport_.AwaitDeliveryTime(packet);
      std::lock_guard lock(cell.mu);
      Handle(std::move(packet));
    }
    return;
  }
  // The agent lock is the mailbox's consumer baton: a packet is popped and
  // handled under it, by this thread or by a parked guest, so the node's
  // packets run in mailbox order (per-sender FIFO) whoever pops them. One
  // packet per hold, so guests waiting for the lock get their turn.
  while (transport_.AwaitReceive(node)) {
    const auto lock = LockCell(cell);
    if (transport_.TryReceive(node, packet)) Handle(std::move(packet));
  }
}

void Runtime::ReceiveWhileParked(dsm::NodeId node,
                                 std::unique_lock<std::mutex>& lock,
                                 const bool& done) {
  NodeCell& cell = *cells_[node];
  if (cell.receiving || !transport_.LendsReceive()) return;
  cell.receiving = true;
  transport_.LendReceive(node);
  PollWindow window(kReceivePollWindow);
  window.Busy();
  net::Packet packet;
  while (!done) {
    // Someone waits for the lock: a guest a handler here unparked, a guest
    // starting an operation, the sampler. Their progress may be what this
    // guest waits for, so the dispatcher takes over.
    if (cell.contenders.load(std::memory_order_relaxed) != 0) break;
    if (transport_.TryReceive(node, packet)) {
      Handle(std::move(packet));
      window.Busy();
      continue;
    }
    // Idle pass: the lock goes to whoever waits for it (another guest the
    // last handler unparked, the sampler) while this thread yields.
    lock.unlock();
    const bool open = window.YieldWithin();
    lock.lock();
    if (!open) break;
  }
  transport_.ReclaimReceive(node);
  cell.receiving = false;
}

dsm::ObjectId Runtime::NewObjectId(dsm::NodeId initial_home,
                                   dsm::NodeId creator) {
  return dsm::ObjectId::Make(initial_home, creator, next_object_seq_++);
}

dsm::LockId Runtime::NewLockId(dsm::NodeId manager) {
  return dsm::LockId::Make(manager, next_lock_seq_++);
}

dsm::BarrierId Runtime::NewBarrierId(dsm::NodeId manager) {
  return dsm::BarrierId::Make(manager, next_barrier_seq_++);
}

void Runtime::AwaitQuiescence() {
  for (;;) {
    // Order matters: read dispatched first. If both reads then agree, every
    // enqueued message had completed its handler at the time of the second
    // read — a handler still running would hold dispatched below enqueued,
    // and any message it sends bumps enqueued before it finishes.
    const std::uint64_t dispatched = transport_.dispatched();
    const std::uint64_t enqueued = transport_.enqueued();
    if (dispatched == enqueued) {
      // One confirmation pass after a yield, guarding against a dispatcher
      // between "popped the packet" and "ran the handler".
      std::this_thread::yield();
      if (transport_.dispatched() == dispatched &&
          transport_.enqueued() == dispatched) {
        return;
      }
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void Runtime::ResetMeasurement() {
  AwaitQuiescence();
  for (dsm::NodeId n : local_nodes_) {
    // The lock both serializes against any straggling handler and gives the
    // reset visibility to the node's future recorder writes.
    const auto lock = LockCell(*cells_[n]);
  }
  transport_.ResetStats();
  measure_start_ = transport_.Now();
  // Prime the sampling cursors at the measured window's start: even a run
  // shorter than one poll interval then yields one full-run sample per node
  // when the final gather closes the window.
  SampleTimeseries();
}

double Runtime::ElapsedSeconds() const {
  return sim::ToSeconds(transport_.Now() - measure_start_);
}

stats::Recorder Runtime::Totals() const {
  stats::Recorder total;
  total.SetNodeCount(cells_.size());
  for (dsm::NodeId n : local_nodes_) {
    stats::Recorder snap;
    {
      const auto lock = LockCell(*cells_[n]);
      snap = transport_.RecorderFor(n);
    }
    // Transport extras (wire counters, write-latency histograms) fold into
    // the snapshot outside the agent lock — they have their own guards.
    transport_.AugmentSnapshot(n, snap);
    total.Merge(snap);
  }
  return total;
}

bool Runtime::SampleTimeseries() {
  bool moved = false;
  const sim::Time now = transport_.Now();
  for (dsm::NodeId n : local_nodes_) {
    // Same serialization as Totals(): the node's recorder is only ever
    // mutated under its agent lock, and the sampler is one more mutator.
    const auto lock = LockCell(*cells_[n]);
    if (transport_.RecorderFor(n).SampleTimeseries(n, now)) moved = true;
  }
  return moved;
}

void Runtime::Shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  // Drain before closing: a blocking op that just returned (a fault-in, a
  // lock release) can leave follow-on traffic in flight — a migration
  // notification, a forwarded diff — and the dispatcher handling it would
  // otherwise send into a closed mailbox. With guests idle, quiescence
  // means no handler is running and none will send again.
  AwaitQuiescence();
  transport_.CloseAll();
  for (std::thread& t : dispatchers_) t.join();
}

// ---------------------------------------------------------------------------
// Guest
// ---------------------------------------------------------------------------

Guest::Guest(Runtime& rt, dsm::NodeId node, std::string name)
    : rt_(rt), node_(node), name_(std::move(name)) {
  HMDSM_CHECK(node < rt_.nodes());
  if (name_.empty()) name_ = "guest@n" + std::to_string(node);
}

template <typename Fn>
void Guest::WithAgent(Fn&& fn) {
  Runtime::NodeCell& cell = rt_.cell(node_);
  std::unique_lock<std::mutex> lock = Runtime::LockCell(cell);
  active_lock_ = &lock;
  struct Clear {  // reset even if the protocol CHECK-throws
    Guest* g;
    ~Clear() { g->active_lock_ = nullptr; }
  } clear{this};
  fn(*cell.agent);
}

void Guest::CreateObject(dsm::ObjectId obj, ByteSpan initial) {
  WithAgent([&](dsm::Agent& a) { a.CreateObject(*this, obj, initial); });
}

void Guest::Read(dsm::ObjectId obj,
                 const std::function<void(ByteSpan)>& fn) {
  WithAgent([&](dsm::Agent& a) { a.Read(*this, obj, fn); });
}

void Guest::Write(dsm::ObjectId obj,
                  const std::function<void(MutByteSpan)>& fn) {
  WithAgent([&](dsm::Agent& a) { a.Write(*this, obj, fn); });
}

void Guest::Acquire(dsm::LockId lock) {
  WithAgent([&](dsm::Agent& a) { a.Acquire(*this, lock); });
}

void Guest::Release(dsm::LockId lock) {
  WithAgent([&](dsm::Agent& a) { a.Release(*this, lock); });
}

void Guest::Barrier(dsm::BarrierId barrier, std::uint32_t expected) {
  WithAgent([&](dsm::Agent& a) { a.Barrier(*this, barrier, expected); });
}

void Guest::MarkPhase() {
  WithAgent([&](dsm::Agent& a) { a.MarkPhase(); });
}

void Guest::Delay(sim::Time dt) {
  HMDSM_CHECK_MSG(active_lock_ == nullptr,
                  "Delay inside an agent call in guest '" << name_ << "'");
  HMDSM_CHECK_MSG(dt >= 0, "negative delay in guest '" << name_ << "'");
  // Precise, not plain sleep_for: modeled compute delays are often a few
  // microseconds, and coarse-sleep overshoot would dwarf them (breaking the
  // measured-vs-modeled comparison latency injection exists for).
  PreciseSleepFor(dt);
}

std::uint64_t Guest::Park() {
  HMDSM_CHECK_MSG(active_lock_ != nullptr && active_lock_->owns_lock(),
                  "Park outside an agent call in guest '" << name_ << "'");
  HMDSM_CHECK(!parked_);
  parked_ = true;
  // The reply is usually a round trip away: handle the node's packets
  // here until it arrives or a poll window passes without any.
  rt_.ReceiveWhileParked(node_, *active_lock_, notified_);
  if (!notified_) {
    // Release the agent lock while waiting — the dispatcher takes over
    // the node, exactly like the simulator's baton handoff to the kernel.
    waiting_ = true;
    cv_.wait(*active_lock_, [&] { return notified_; });
    waiting_ = false;
    rt_.cell(node_).contenders.fetch_sub(1, std::memory_order_relaxed);
  }
  parked_ = false;
  notified_ = false;
  return token_;
}

void Guest::Unpark(std::uint64_t token) {
  // Caller holds this node's agent lock (handlers and guests only run
  // under it), which is what makes this state change safe.
  HMDSM_CHECK_MSG(parked_ && !notified_,
                  "unparking guest '" << name_ << "' that is not parked");
  token_ = token;
  notified_ = true;
  // A guest in its condvar wait needs the agent lock back; one still in
  // its receive window (this very thread, usually) holds it.
  if (waiting_) {
    rt_.cell(node_).contenders.fetch_add(1, std::memory_order_relaxed);
    cv_.notify_one();
  }
}

}  // namespace hmdsm::runtime
