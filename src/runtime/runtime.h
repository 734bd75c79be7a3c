// The multi-threaded execution backend: the DSM protocol on real OS
// threads instead of the discrete-event simulator.
//
// Topology mirrors the simulator exactly — one dsm::Agent per node — but
// execution is real:
//
//   * every node has a *dispatcher* std::thread draining its mailbox and
//     running the agent's message handlers;
//   * application workers are plain std::threads that enter the blocking
//     Agent API through a Guest context bound to one node;
//   * one mutex per node (the "agent lock") serializes all access to that
//     node's Agent — dispatcher and guests alike. Guest::Park releases the
//     lock while blocked (condition-variable style), which is the threads
//     equivalent of the simulator's single-baton handoff;
//   * the clock is the wall clock.
//
// Protocol races that the simulator schedules deterministically — migration
// decisions racing fault-ins, redirect chains racing chain updates, lock
// handoffs racing diff flushes — happen here under genuine concurrency.
// Data integrity must not depend on the interleaving: the cross-backend
// tests assert that a scenario's checksum is identical on both backends.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/dsm/agent.h"
#include "src/dsm/config.h"
#include "src/runtime/channel.h"
#include "src/runtime/exec.h"

namespace hmdsm::runtime {

struct RuntimeOptions {
  std::size_t nodes = 8;
  dsm::DsmConfig dsm;
  /// Interconnect model used for latency injection (callers typically also
  /// derive the adaptive policy's α from it, as dsm::Cluster does).
  net::HockneyModel model{70.0, 12.5};
  /// > 0 enables wall-clock latency injection: each cross-node delivery is
  /// held until send-time + model.Latency(wire bytes) * this scale, so the
  /// measured run reproduces the modeled network regime (see channel.h).
  double inject_latency_scale = 0.0;
  /// Event sink shared by every hosted agent (nullptr: tracing off). The
  /// caller owns it and must keep it alive for the Runtime's lifetime.
  trace::Trace* trace = nullptr;
};

class Guest;

/// A cluster of agents on real threads. One instance per run.
///
/// Two hosting modes share the same dispatcher/guest machinery:
///   * in-process (threads backend): the Runtime owns a ChannelTransport
///     and hosts every cluster node — one agent + dispatcher per node;
///   * external transport (sockets backend): the caller supplies a
///     MailboxTransport (netio::SocketTransport) and the Runtime hosts the
///     given set of local ranks — one agent + dispatcher each; the other
///     ranks live in other OS processes reached over the wire.
class Runtime {
 public:
  explicit Runtime(RuntimeOptions options);
  /// External-transport mode: host `local_nodes` of the cluster behind
  /// `transport` (which the caller owns and must outlive this Runtime) —
  /// one agent + dispatcher per hosted node; the remaining ranks live in
  /// other OS processes reached over the wire. Latency injection is the
  /// channel transport's feature — rejected here.
  Runtime(RuntimeOptions options, MailboxTransport& transport,
          std::vector<dsm::NodeId> local_nodes);
  /// Single-rank convenience overload (one hosted node per process).
  Runtime(RuntimeOptions options, MailboxTransport& transport,
          dsm::NodeId local_node);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  std::size_t nodes() const { return cells_.size(); }
  const RuntimeOptions& options() const { return options_; }
  /// The owned channel transport (in-process mode only; CHECKs otherwise).
  ChannelTransport& transport() {
    HMDSM_CHECK_MSG(owned_transport_ != nullptr,
                    "transport() needs the in-process channel mode");
    return *owned_transport_;
  }
  MailboxTransport& mailbox() { return transport_; }

  /// True when this process hosts `node`'s agent (always, in-process).
  bool hosts(dsm::NodeId node) const {
    return node < cells_.size() && cells_[node] != nullptr;
  }

  /// Copy of a hosted node's recorder, taken under its agent lock (so it is
  /// consistent even against a straggling handler).
  stats::Recorder SnapshotRecorder(dsm::NodeId node) const;

  /// Fresh identifiers, allocated centrally like dsm::Cluster's (identical
  /// sequences, so a scenario materializes the same ids on both backends).
  /// Call from the coordinating thread only.
  dsm::ObjectId NewObjectId(dsm::NodeId initial_home, dsm::NodeId creator);
  dsm::LockId NewLockId(dsm::NodeId manager);
  dsm::BarrierId NewBarrierId(dsm::NodeId manager);

  /// Blocks until no message is in flight or being handled. Callable only
  /// while no application worker is running (workers could always send
  /// more); with workers joined, dispatchers are the only senders and they
  /// only send from inside handlers. In external-transport mode this is
  /// *local* quiescence only — cluster-wide quiescence additionally needs
  /// the wire counters matched across ranks (netio::Coordinator).
  void AwaitQuiescence();

  /// Starts the measured window: drains in-flight traffic, zeroes every
  /// per-node recorder, marks the wall clock.
  void ResetMeasurement();

  /// Wall-clock seconds since the last ResetMeasurement().
  double ElapsedSeconds() const;

  /// Merged per-node statistics. Takes every agent lock, so it is safe
  /// (and consistent) even while traffic is in flight.
  stats::Recorder Totals() const;

  /// Closes one time-series window on every hosted node's recorder: each
  /// local node gets a counter-delta Sample stamped with the transport
  /// clock (under its agent lock). Returns true if any node's counters
  /// moved since the previous call. The first call only primes baselines.
  bool SampleTimeseries();

  /// Closes the mailboxes and joins the dispatcher threads. Idempotent;
  /// the destructor calls it. All guests must be done first.
  void Shutdown();

 private:
  friend class Guest;

  /// One node: the agent plus the lock that serializes all access to it.
  struct NodeCell {
    mutable std::mutex mu;
    std::unique_ptr<dsm::Agent> agent;
  };

  NodeCell& cell(dsm::NodeId node) {
    HMDSM_CHECK_MSG(hosts(node), "node " << node << " is not hosted by this "
                                            "process");
    return *cells_[node];
  }

  void Init();
  void DispatchLoop(dsm::NodeId node);

  RuntimeOptions options_;
  std::unique_ptr<ChannelTransport> owned_transport_;  // in-process mode
  MailboxTransport& transport_;
  std::vector<dsm::NodeId> local_nodes_;  // nodes hosted by this process
  std::vector<std::unique_ptr<NodeCell>> cells_;  // indexed by node id
  std::vector<std::thread> dispatchers_;
  bool shut_down_ = false;
  sim::Time measure_start_ = 0;  // transport Now() at ResetMeasurement
  std::uint32_t next_object_seq_ = 1;
  std::uint64_t next_lock_seq_ = 1;
  std::uint64_t next_barrier_seq_ = 1;
};

/// A real-thread execution context bound to one node — the threads
/// backend's counterpart of (gos::Env + sim::Process). Each std::thread
/// that wants to touch the DSM creates its own Guest; the blocking ops
/// take the node's agent lock for the duration of the call, and Park
/// releases it while waiting (so the dispatcher can run the handlers that
/// will eventually Unpark us).
class Guest final : public Exec {
 public:
  Guest(Runtime& rt, dsm::NodeId node, std::string name = {});

  dsm::NodeId node() const { return node_; }
  const std::string& name() const { return name_; }
  dsm::Agent& agent() { return *rt_.cell(node_).agent; }

  // ---- blocking DSM operations (mirror gos::Env) ----

  void CreateObject(dsm::ObjectId obj, ByteSpan initial);
  void Read(dsm::ObjectId obj, const std::function<void(ByteSpan)>& fn);
  void Write(dsm::ObjectId obj, const std::function<void(MutByteSpan)>& fn);
  void Acquire(dsm::LockId lock);
  void Release(dsm::LockId lock);
  void Barrier(dsm::BarrierId barrier, std::uint32_t expected);
  /// Arms this node's adaptation-latency clock (non-blocking).
  void MarkPhase();

  // ---- Exec ----

  /// Wall-clock sleep. Callable only outside the blocking ops above.
  void Delay(sim::Time dt) override;
  std::uint64_t Park() override;
  void Unpark(std::uint64_t token = 0) override;

 private:
  /// Runs `fn(agent)` under the node's agent lock, exposing the lock to
  /// Park for the duration.
  template <typename Fn>
  void WithAgent(Fn&& fn);

  Runtime& rt_;
  dsm::NodeId node_;
  std::string name_;
  // Park/Unpark state; guarded by the node's agent lock.
  std::unique_lock<std::mutex>* active_lock_ = nullptr;
  std::condition_variable cv_;
  bool parked_ = false;
  bool notified_ = false;
  std::uint64_t token_ = 0;
};

}  // namespace hmdsm::runtime
