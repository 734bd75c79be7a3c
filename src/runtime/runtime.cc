#include "src/runtime/runtime.h"

#include <chrono>
#include <utility>

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
  net::Packet packet;
  while (transport_.WaitPop(node, packet)) {
    // Injected Hockney delay first, outside the agent lock: a delivery
    // sleeping toward its deadline must not block the node's guests.
    transport_.AwaitDeliveryTime(packet);
    // The agent lock serializes this handler against the node's guests
    // (and is the lock their Park waits release). A dispatcher that drains
    // its process's shm rings keeps draining while it waits: the guest
    // holding the lock may be blocked writing into a peer's full ring, and
    // that peer's drainer may in turn wait for room in ours. Asked per
    // packet, since the rings come up after the dispatchers start.
    std::unique_lock lock(cells_[node]->mu, std::defer_lock);
    if (transport_.DrainsOnWait(node)) {
      while (!lock.try_lock()) transport_.Progress(node);
    } else {
      lock.lock();
    }
    transport_.Dispatch(std::move(packet));
  }
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
    std::lock_guard lock(cells_[n]->mu);
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
      std::lock_guard lock(cells_[n]->mu);
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
    std::lock_guard lock(cells_[n]->mu);
    if (transport_.RecorderFor(n).SampleTimeseries(n, now)) moved = true;
  }
  return moved;
}

stats::Recorder Runtime::SnapshotRecorder(dsm::NodeId node) const {
  HMDSM_CHECK(node < cells_.size() && cells_[node] != nullptr);
  stats::Recorder snap;
  {
    std::lock_guard lock(cells_[node]->mu);
    snap = transport_.RecorderFor(node);
  }
  transport_.AugmentSnapshot(node, snap);
  return snap;
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
  std::unique_lock<std::mutex> lock(cell.mu);
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
  // Releases the agent lock while waiting — the dispatcher takes over the
  // node, exactly like the simulator's baton handoff to the kernel.
  cv_.wait(*active_lock_, [&] { return notified_; });
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
  cv_.notify_one();
}

}  // namespace hmdsm::runtime
