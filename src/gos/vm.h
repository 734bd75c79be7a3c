// The Global Object Space runtime — the distributed-JVM stand-in.
//
// The paper implements its protocol inside a distributed JVM whose GOS
// "virtualizes" one object heap across the cluster: Java threads are
// dispatched to nodes, `synchronized` blocks drive the consistency actions,
// and every object access passes an access check. This module provides the
// same execution model in C++: a Vm owns a cluster; distributed threads are
// spawned onto nodes and receive an Env with shared-memory, lock, and
// barrier operations; typed wrappers (GlobalArray / GlobalScalar) stand in
// for Java objects.
//
// The Vm is a facade over one of three execution backends
// (VmOptions::backend), all running the identical dsm::Agent protocol
// engine through the net::Transport / runtime::Exec seams:
//
//   * kSim — the discrete-event simulator: distributed threads are
//     cooperative sim::Processes, time is virtual, scheduling is
//     bit-deterministic, and the Hockney model prices every message.
//   * kThreads — real OS threads: every Spawn starts a std::thread entering
//     the DSM through a runtime::Guest, Join is a real thread join, time is
//     the wall clock, and Env::Compute is a real (precise) sleep. With
//     VmOptions::inject_latency the channel transport additionally holds
//     each delivery until its Hockney deadline, so wall-clock runs
//     reproduce the modeled network regime and the two backends' times are
//     directly comparable.
//   * kSockets — a real distributed system: one OS process per node and a
//     TCP mesh (netio::SocketTransport). Every process runs the same
//     program (SPMD): setup replicates deterministically so ids and
//     spawned-thread closures exist everywhere, but only the start-node
//     rank ("lead") executes main-thread DSM operations — on the other
//     ranks the main replica is a ghost whose ops are no-ops, and spawned
//     bodies run for real only on their home rank, gated on the lead's
//     start signal. Results cross processes through shared objects or
//     Env::PublishResult. Constraint: create objects/locks/barriers from
//     the main thread before the workers that use them are spawned
//     (every app and the scenario runner already do).
//
// Application code (src/apps, examples, the workload runner) is written
// once against Env/Vm and runs on both.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "src/dsm/cluster.h"

namespace hmdsm::runtime {
class Runtime;
}  // namespace hmdsm::runtime

namespace hmdsm::gos {

using dsm::BarrierId;
using dsm::LockId;
using dsm::NodeId;
using dsm::ObjectId;

class Vm;

/// Handle for joining a distributed thread. Owned by the Vm; the concrete
/// type is backend-private (a simulated process, a std::thread, or a
/// possibly-remote sockets-backend thread).
class Thread {
 public:
  virtual ~Thread() = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  /// True once the thread body has returned. On the threads backend this is
  /// a racy peek — Join for a happens-before edge.
  virtual bool done() const = 0;

  /// The payload the body passed to Env::PublishResult (empty if none).
  /// Valid after Join on the joining rank — on the sockets backend this is
  /// how small worker results (not shared objects) cross process
  /// boundaries, riding the thread-completion control frame.
  const Bytes& result() const { return result_; }

 protected:
  friend class Env;
  Thread() = default;
  Bytes result_;
};

/// Per-thread execution context: every GOS operation goes through an Env.
/// Backends supply the implementation (a node's agent + sim::Process on the
/// simulator, a runtime::Guest on the threads backend); application code
/// only ever sees this interface, which is what lets the same app source
/// run on either backend.
class Env {
 public:
  virtual ~Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  Vm& vm() { return vm_; }
  virtual NodeId node() const = 0;
  virtual dsm::Agent& agent() = 0;

  // ---- shared memory (untyped; see global.h for typed wrappers) ----
  virtual void Read(ObjectId obj, const std::function<void(ByteSpan)>& fn) = 0;
  virtual void Write(ObjectId obj,
                     const std::function<void(MutByteSpan)>& fn) = 0;

  // ---- synchronization ----
  virtual void Acquire(LockId lock) = 0;
  virtual void Release(LockId lock) = 0;
  virtual void Barrier(BarrierId barrier, std::uint32_t participants) = 0;

  /// Java-style synchronized block. Releases on exception too: a throwing
  /// body (a protocol CHECK, app code) must not leave the distributed lock
  /// held — on the threads backend a peer blocked in Acquire would hang
  /// Run's straggler join and swallow the original error.
  void Synchronized(LockId lock, const std::function<void()>& body) {
    Acquire(lock);
    try {
      body();
    } catch (...) {
      Release(lock);
      throw;
    }
    Release(lock);
  }

  /// Integral-nanosecond delay (the workload op unit): virtual time on the
  /// simulator, a precise wall-clock sleep on the threads backend.
  virtual void Delay(sim::Time ns) = 0;

  /// Workload phase-transition marker: tells this node's agent the access
  /// pattern just shifted, arming the adaptation-latency clock (closed by
  /// the next home migration installed on the node). Default no-op — ghost
  /// replicas on non-lead sockets ranks must not arm foreign clocks.
  virtual void PhaseMark() {}

  /// Models local computation: advances this thread's virtual time (sim) or
  /// really sleeps (threads), so compute/communication balance carries
  /// across backends.
  void Compute(double seconds) {
    if (seconds > 0) Delay(sim::FromSeconds(seconds));
  }

  /// Publishes a small result payload for this thread, readable via
  /// Thread::result() on the joining rank after Join. The only way (other
  /// than shared objects) for worker data to reach the application main
  /// thread on the multi-process sockets backend — captured locals stay in
  /// the worker's process. No-op from the main thread (it has no handle).
  void PublishResult(Bytes result) {
    if (self_ != nullptr) self_->result_ = std::move(result);
  }

 protected:
  explicit Env(Vm& vm, Thread* self = nullptr) : vm_(vm), self_(self) {}

 private:
  Vm& vm_;
  Thread* self_;  // the handle of the thread this Env belongs to, if any
};

using ThreadBody = std::function<void(Env&)>;

/// Which execution backend runs the protocol.
enum class Backend {
  kSim,      // deterministic discrete-event simulator
  kThreads,  // real OS threads + in-process channels (runtime::Runtime)
  kSockets,  // one OS process per node + TCP mesh (netio::SocketTransport)
};

std::string_view BackendName(Backend backend);

/// Checks a requested app/flag combination against a backend; returns an
/// empty string when runnable, else the human-readable rejection reason.
/// (The CLI and the benches share this; util_flags_test pins the matrix.)
std::string ValidateBackendRequest(Backend backend, std::string_view app,
                                   bool record, bool inject_latency);

struct VmOptions {
  std::size_t nodes = 8;
  NodeId start_node = 0;  // where the "application" (main thread) runs
  net::HockneyModel model{70.0, 12.5};
  dsm::DsmConfig dsm;
  bool model_tx_occupancy = true;  // NIC transmit serialization (sim only)
  /// Which execution backend the Vm builds (and RunScenario dispatches on).
  Backend backend = Backend::kSim;
  /// Threads backend only: hold every delivery until its Hockney deadline —
  /// Now() at send + model.Latency(wire bytes) * inject_scale — so measured
  /// wall-clock runs reproduce the modeled network regime. Rejected on the
  /// sim backend (which already prices messages in virtual time).
  bool inject_latency = false;
  double inject_scale = 1.0;
  /// Sockets backend only: this process's rank and the full peer list
  /// ("host:port" per rank, index = rank; every process gets the identical
  /// list, and `nodes` must equal its size). `listen_fd` optionally adopts
  /// a pre-bound listening socket (the self-fork launcher).
  struct SocketsConfig {
    /// This process's primary (lowest hosted) rank; a multiple of
    /// ranks_per_proc.
    std::uint32_t rank = 0;
    std::vector<std::string> peers;
    /// Consecutive ranks this process hosts (one agent + dispatcher each);
    /// every process in the mesh must agree. `--nodes=128
    /// --ranks-per-proc=16` runs the cluster in 8 OS processes.
    std::size_t ranks_per_proc = 1;
    /// Epoll-reactor I/O threads servicing the peer sockets — per-process
    /// thread cost independent of rank count.
    std::size_t io_threads = 4;
    int listen_fd = -1;
    /// Link-liveness heartbeat period (ms): each peer-process link is
    /// probed from the reactor's timer, feeding per-link RTT histograms
    /// and the coordinator's healthy → suspect → dead state machine. 0
    /// disables the beat traffic (hard link failures are still detected).
    std::size_t heartbeat_interval_ms = 250;
    /// >= 0: the lead process serves GET /metrics (Prometheus text
    /// format) and GET /healthz (JSON) on 127.0.0.1:<port> for the run's
    /// duration (0 picks an ephemeral port; the bound port is printed to
    /// stderr). -1 disables the exporter. Non-lead processes ignore it.
    int metrics_port = -1;
    /// Shared-memory transport: processes that negotiate the same host
    /// identity in the Hello handshake move all data frames onto per-pair
    /// shm rings (netio/shm.h) and keep only control/heartbeats on TCP.
    /// On by default (it degrades to TCP automatically off-host).
    bool shm = true;
  };
  SocketsConfig sockets;
  /// Latency histograms (fault-in RTT, mailbox dwell, socket-write syscall,
  /// migration→first-access). On by default; off removes every per-packet
  /// clock read the instrumentation costs (throughput baselines).
  bool histograms = true;
  /// Non-empty: write a Chrome trace-event / Perfetto JSON protocol trace
  /// here at teardown. On the sockets backend each rank writes
  /// `<path>.rank<R>` and the self-fork launcher (or the operator) merges
  /// the shards with trace::MergeChromeShards.
  std::string trace_out;
  /// > 0 starts the live metrics plane at this interval (clamped to >=
  /// 10ms by the CLI). On sockets the lead's coordinator polls every
  /// rank's counters and prints a cluster ops/s line (see
  /// netio::Coordinator::StartPolling); on threads a sampler thread (and
  /// on sim a virtual-time tick chain) closes per-node time-series windows
  /// at the same cadence, so every backend grows a stats::Timeseries.
  double poll_interval_s = 0;
  /// Non-empty (reporting rank only): write the cluster-merged migration
  /// decision ledger here as JSON at the end of the run.
  std::string audit_out;
  /// Non-empty (sockets lead rank only): persist the live StatsPoll
  /// snapshots here as JSON when polling stops.
  std::string poll_out;
};

/// Five-number summary of one stats::Histogram (all values nanoseconds).
struct HistSummary {
  std::uint64_t count = 0;
  double mean = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p95 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

HistSummary Summarize(const stats::Histogram& h);

/// Snapshot of run metrics since the last ResetMeasurement().
struct RunReport {
  double seconds = 0;  // virtual time (sim) or wall time (threads)
  std::uint64_t messages = 0;          // all categories
  std::uint64_t messages_nosync = 0;   // paper Fig. 5 convention
  std::uint64_t bytes = 0;
  std::uint64_t bytes_nosync = 0;
  stats::MsgTotals cat[stats::kNumMsgCats] = {};
  std::uint64_t migrations = 0;
  /// Policy consultations whose verdict was "stay put"; migrations +
  /// mig_rejections equals the total decision count (ledger size +
  /// evictions) when auditing is on.
  std::uint64_t mig_rejections = 0;
  std::uint64_t redirect_hops = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t exclusive_home_writes = 0;
  std::uint64_t fault_ins = 0;
  /// Per-node attribution sums: sends counted by senders, receives by
  /// receivers. Equal at quiescence iff no message was lost — the
  /// cross-process conformance suite asserts it on every backend.
  std::uint64_t sent_messages = 0;
  std::uint64_t received_messages = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t received_bytes = 0;
  /// Wire-level counters (sockets backend): the transport folds its atomics
  /// into every recorder snapshot, so these ride the coordinator's gather
  /// and are **cluster totals** across all ranks (wire writes issued,
  /// frames enqueued toward the wire, frames that rode inside a coalesced
  /// Batch write). Zero on the other backends.
  std::uint64_t socket_writes = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_frames_coalesced = 0;
  /// The retired wire delta encoding's counters. They always read 0 and
  /// are kept only because the repo benchmark (meshbench/launch.cc) still
  /// reads them.
  std::uint64_t wire_delta_hits = 0;
  std::uint64_t wire_delta_misses = 0;
  std::uint64_t wire_delta_bytes_saved = 0;
  /// Data frames that rode a same-host shm ring instead of TCP (sockets
  /// backend, cluster total like the above).
  std::uint64_t shm_msgs = 0;
  /// Allocation-pooling watermarks (cluster totals): mailbox overflow
  /// nodes allocated past the pool (steady state: stays flat) and rx
  /// frame buffers allocated past the pool.
  std::uint64_t mailbox_overflow_allocs = 0;
  std::uint64_t rx_buffer_allocs = 0;
  /// Threads backend, latency injection only: deliveries that overshot
  /// their own deadline behind a head-of-line sleep (runtime/channel.h).
  std::uint64_t hol_inherited = 0;
  /// Latency histograms (empty when VmOptions::histograms is off). RTT is
  /// the fault-in request→reply round trip bucketed by the reply category
  /// (kObj plain, kMig home-migrating; redirect hops included in the trip).
  HistSummary rtt[stats::kNumMsgCats] = {};
  HistSummary mailbox_dwell;
  HistSummary socket_write_ns;
  HistSummary migration_first_access;
  /// Workload phase marker → first home migration installed on the marking
  /// node (ROADMAP's "how fast does the protocol re-home" metric).
  HistSummary adaptation;
  /// Decision audit trail and windowed counter deltas (cluster-merged on
  /// the reporting rank; empty when DsmConfig::audit is off / no sampler
  /// ran). Carried whole — not summarized — so callers can dump, export,
  /// or re-aggregate them.
  stats::DecisionLedger ledger;
  stats::Timeseries series;
  /// Mesh health at report time (sockets backend, lead rank only): one
  /// entry per remote process. Plain strings/numbers so gos stays
  /// decoupled from netio's liveness types.
  struct PeerReport {
    std::uint32_t primary = 0;  // the peer process's lowest rank
    std::string state;          // "healthy" / "suspect" / "dead"
    std::uint64_t missed_beats = 0;
    std::uint64_t hb_sent = 0;
    std::uint64_t hb_acked = 0;
    double rtt_p50_us = -1;  // heartbeat round trip; -1 = no samples
    double rtt_p99_us = -1;
    std::string why;  // non-empty for hard-dead links
  };
  std::vector<PeerReport> peer_health;
};

/// Builds a RunReport from merged per-node statistics. Shared between the
/// sim backend and the threads backend.
RunReport MakeRunReport(const stats::Recorder& totals, double seconds);

/// Internal: one execution backend behind the Vm facade. Everything the
/// facade forwards is defined here; each backend lives in its own TU
/// (vm_sim.cc / vm_threads.cc).
class VmBackend {
 public:
  virtual ~VmBackend() = default;

  virtual std::size_t nodes() const = 0;
  virtual void Run(ThreadBody main) = 0;
  virtual Thread* Spawn(NodeId node, ThreadBody body, std::string name) = 0;
  virtual void Join(Env& env, Thread* t) = 0;
  virtual void Quiesce(Env& env) = 0;
  virtual ObjectId CreateObject(Env& env, NodeId home, ByteSpan initial) = 0;
  virtual LockId CreateLock(NodeId manager) = 0;
  virtual BarrierId CreateBarrier(NodeId manager) = 0;
  virtual void ResetMeasurement() = 0;
  virtual double ElapsedSeconds() const = 0;
  /// Non-const: the sockets backend's report is a cluster-wide *gather*
  /// (control-plane round trips that mutate coordinator state), not a
  /// local read.
  virtual RunReport Report() = 0;

  /// Whether this process reports results (always, except sockets-backend
  /// ghost replicas — every rank but the start node).
  virtual bool reporting() const { return true; }

  /// Backend-specific escape hatches (null on the other backends).
  virtual dsm::Cluster* cluster() { return nullptr; }
  virtual runtime::Runtime* runtime() { return nullptr; }
};

std::unique_ptr<VmBackend> MakeSimVmBackend(Vm& vm, const VmOptions& options);
std::unique_ptr<VmBackend> MakeThreadsVmBackend(Vm& vm,
                                                const VmOptions& options);
std::unique_ptr<VmBackend> MakeSocketsVmBackend(Vm& vm,
                                                const VmOptions& options);

class Vm {
 public:
  explicit Vm(VmOptions options);
  ~Vm();
  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  std::size_t nodes() const { return impl_->nodes(); }
  const VmOptions& options() const { return options_; }
  Backend backend() const { return options_.backend; }

  /// Whether this process is the one whose results count. True on the
  /// in-process backends; on the multi-process sockets backend only the
  /// start-node rank runs the real application main thread — the other
  /// replicas are ghosts whose main-thread reads return nothing, so their
  /// checksums/reports are meaningless and must not be printed or
  /// asserted on.
  bool reporting() const { return impl_->reporting(); }

  /// The simulated cluster — sim backend only (CHECKs otherwise).
  dsm::Cluster& cluster();
  /// The thread runtime — threads backend only (CHECKs otherwise).
  runtime::Runtime& runtime();

  /// Runs `main` as the application thread on the start node and drives
  /// execution until it (and, on the threads backend, every spawned thread)
  /// finishes and all in-flight protocol traffic has settled.
  void Run(ThreadBody main) { impl_->Run(std::move(main)); }

  /// Spawns a distributed thread on `node` (the paper's thread dispatch).
  Thread* Spawn(NodeId node, ThreadBody body, std::string name = {}) {
    return impl_->Spawn(node, std::move(body), std::move(name));
  }

  /// Blocks `env`'s thread until `t` finishes. Each thread has one joiner.
  void Join(Env& env, Thread* t) { impl_->Join(env, t); }

  /// Blocks `env`'s thread until the cluster is quiescent: every in-flight
  /// protocol message (and any follow-on traffic its handlers generate) has
  /// been delivered and handled. Use before digesting final shared-object
  /// state — workers may finish with unacknowledged traffic still in
  /// flight (a release's piggybacked diff, a notification broadcast). On
  /// the threads backend, call only while no other spawned thread is
  /// actively issuing operations (e.g., after joining the workers).
  void Quiesce(Env& env) { impl_->Quiesce(env); }

  // ---- shared-object / lock / barrier factories ----

  /// Creates a shared object with `initial` bytes homed at `home`.
  /// Blocking (callable from thread bodies only).
  ObjectId CreateObject(Env& env, NodeId home, ByteSpan initial) {
    return impl_->CreateObject(env, home, initial);
  }

  LockId CreateLock(NodeId manager) { return impl_->CreateLock(manager); }
  BarrierId CreateBarrier(NodeId manager) {
    return impl_->CreateBarrier(manager);
  }

  // ---- measurement ----

  /// Starts the measured window: zeroes counters and marks the clock. Call
  /// after setup/data creation (the paper's timings exclude JVM startup).
  void ResetMeasurement() { impl_->ResetMeasurement(); }

  /// Metrics accumulated since the last ResetMeasurement().
  RunReport Report() { return impl_->Report(); }

  /// Seconds since the last ResetMeasurement(): virtual on the simulator,
  /// wall-clock on the threads backend.
  double ElapsedSeconds() const { return impl_->ElapsedSeconds(); }

 private:
  VmOptions options_;
  std::unique_ptr<VmBackend> impl_;
};

}  // namespace hmdsm::gos
