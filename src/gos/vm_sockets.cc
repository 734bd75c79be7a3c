// The multi-process sockets backend behind the gos::Vm facade: each OS
// process hosts `ranks_per_proc` consecutive cluster nodes, protocol
// traffic over a TCP mesh (netio::SocketTransport), control plane via
// netio::Coordinator.
//
// Execution model (SPMD with a lead): every process runs the identical
// application program. Setup — object/lock/barrier creation and the spawn
// sequence — replicates deterministically, so ids and thread closures
// exist in every process without shipping code over the wire. Only the
// process hosting the start node (the "lead" process) executes real
// main-thread DSM operations, on the start-node rank itself; on the other
// processes the main replica is a ghost whose operations are no-ops (its
// reads return nothing, which is why only the lead's results are
// meaningful — Vm::reporting()). A spawned body runs for real exactly on
// the rank it is dispatched to; bodies hosted by non-lead processes are
// gated on the lead's StartThread frame so no worker can race ahead of
// the lead's acknowledged setup; completion (plus the body's published
// result and any error) travels back to the lead on a ThreadDone frame,
// which is what the lead's Join blocks on.
//
// End of run: the lead waits for every spawned body everywhere, drives
// cluster-wide quiescence, then runs the shutdown barrier; every rank acks
// after its local threads are joined, and only then do sockets close.
// Abort (an exception out of the lead's main) is best-effort: the abort
// flag rides the shutdown frame, unstarted bodies are cancelled, and
// stuck ones are detached — a crashed run fails loudly rather than hangs.
#include <atomic>
#include <cstdio>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/gos/guest_env.h"
#include "src/gos/vm.h"
#include "src/netio/coordinator.h"
#include "src/netio/socket_transport.h"
#include "src/obs/metrics.h"
#include "src/runtime/runtime.h"
#include "src/sim/time.h"

namespace hmdsm::gos {
namespace {

/// The ghost main-thread Env on non-lead ranks: keeps the replicated
/// program's control flow intact (same Spawn/Create sequences) while
/// executing nothing. Read/Write do not invoke their callbacks — replica
/// code must not branch on shared data between setup calls, which no app
/// or the scenario runner does.
class GhostEnv final : public Env {
 public:
  GhostEnv(Vm& vm, NodeId lead) : Env(vm), lead_(lead) {}

  NodeId node() const override { return lead_; }  // mirrors the real main
  dsm::Agent& agent() override {
    throw CheckError("ghost main replica has no agent");
  }

  void Read(ObjectId, const std::function<void(ByteSpan)>&) override {}
  void Write(ObjectId, const std::function<void(MutByteSpan)>&) override {}
  void Acquire(LockId) override {}
  void Release(LockId) override {}
  void Barrier(BarrierId, std::uint32_t) override {}
  void Delay(sim::Time) override {}  // ghosts do not burn real time

 private:
  NodeId lead_;
};

class SockThread final : public Thread {
 public:
  bool done() const override { return done_.load(std::memory_order_acquire); }

 private:
  friend class SocketsBackend;
  std::uint64_t seq_ = 0;  // cluster-wide id: replicas allocate identically
  NodeId node_ = 0;
  bool local_ = false;     // hosted by this process
  std::thread th_;         // local threads only
  std::atomic<bool> done_{false};
  std::exception_ptr error_;  // local threads; remote errors arrive as text
  bool joined_ = false;       // guarded by SocketsBackend::mu_
};

runtime::RuntimeOptions ToRuntimeOptions(const VmOptions& o,
                                         trace::Trace* trace) {
  runtime::RuntimeOptions r;
  r.nodes = o.nodes;
  r.dsm = o.dsm;
  // Same policy parameterization as the other backends: the adaptive
  // policy's α tracks the configured interconnect model unless pinned.
  if (!r.dsm.pin_half_peak)
    r.dsm.adaptive.half_peak_bytes = o.model.half_peak_bytes();
  r.model = o.model;
  r.inject_latency_scale = 0;  // sockets pay real latency
  r.trace = trace;
  return r;
}

netio::SocketTransportOptions ToSocketOptions(const VmOptions& o) {
  HMDSM_CHECK_MSG(o.sockets.peers.size() == o.nodes,
                  "sockets backend: " << o.nodes << " nodes but "
                                      << o.sockets.peers.size()
                                      << " peer endpoints");
  netio::SocketTransportOptions s;
  s.rank = o.sockets.rank;
  s.peers = o.sockets.peers;
  s.ranks_per_proc = o.sockets.ranks_per_proc;
  s.io_threads = o.sockets.io_threads;
  s.listen_fd = o.sockets.listen_fd;
  s.heartbeat_interval_ms = o.sockets.heartbeat_interval_ms;
  s.shm = o.sockets.shm;
  return s;
}

std::vector<dsm::NodeId> LocalRanks(const netio::SocketTransport& t) {
  return {t.local_ranks().begin(), t.local_ranks().end()};
}

class SocketsBackend final : public VmBackend {
 public:
  SocketsBackend(Vm& vm, const VmOptions& options)
      : vm_(vm),
        options_(options),
        transport_(ToSocketOptions(options)),
        rt_(ToRuntimeOptions(options, &trace_), transport_,
            LocalRanks(transport_)),
        coord_(transport_, rt_, options.start_node),
        lead_(transport_.is_local(options.start_node)) {
    if (!options_.trace_out.empty()) trace_.Enable();
    transport_.Start();
    transport_.AwaitConnected();
  }

  ~SocketsBackend() override {
    // Run() normally tears the mesh down; this covers a Vm dropped without
    // (or mid-) Run — treat it as an abort so peers fail fast, not hang.
    std::exception_ptr ignored;
    try {
      Teardown(/*abort=*/true, &ignored);
    } catch (...) {
    }
  }

  std::size_t nodes() const override { return rt_.nodes(); }
  bool reporting() const override { return lead_; }
  runtime::Runtime* runtime() override { return &rt_; }

  void Run(ThreadBody main) override {
    std::exception_ptr error;
    if (lead_) {
      double poll_s = options_.poll_interval_s;
      // The exporter serves the poll loop's merged counters, so metrics
      // without an explicit poll cadence imply a default one.
      if (poll_s <= 0 && options_.sockets.metrics_port >= 0) poll_s = 0.5;
      if (poll_s > 0) coord_.StartPolling(poll_s, options_.poll_out);
      StartMetricsServer();
    }
    if (lead_) {
      {
        // The real main runs on the start node itself, which this (lead)
        // process hosts — not necessarily as its primary rank.
        runtime::Guest guest(rt_, options_.start_node, "main");
        GuestEnv env(vm_, guest);
        try {
          main(env);
        } catch (...) {
          error = std::current_exception();
        }
      }
      if (error == nullptr) {
        try {
          // The run ends only when every spawned body everywhere has
          // finished (remote hosts report ThreadDone unconditionally) and
          // all follow-on protocol traffic has settled.
          AwaitAllThreadBodies(&error);
          coord_.GlobalQuiesce();
        } catch (...) {
          if (error == nullptr) error = std::current_exception();
        }
      }
    } else {
      GhostEnv env(vm_, options_.start_node);
      try {
        main(env);
      } catch (...) {
        error = std::current_exception();
      }
    }
    Teardown(error != nullptr, &error);
    if (error != nullptr) std::rethrow_exception(error);
  }

  Thread* Spawn(NodeId node, ThreadBody body, std::string name) override {
    HMDSM_CHECK(node < rt_.nodes());
    std::lock_guard lock(mu_);
    spawned_workers_ = true;
    threads_.emplace_back();
    SockThread* t = &threads_.back();
    t->seq_ = next_seq_++;
    t->node_ = node;
    t->local_ = rt_.hosts(node);
    if (name.empty()) name = "thread" + std::to_string(next_thread_idx_);
    ++next_thread_idx_;
    name += "@n" + std::to_string(node);
    if (!t->local_) {
      // The lead's Spawn is the cluster-wide start signal; other replicas
      // just record the stub so sequence numbers stay aligned.
      if (lead_) coord_.StartRemoteThread(node, t->seq_);
      return t;
    }
    // On the lead, reaching Spawn is itself the start condition; elsewhere
    // the body holds until the lead's StartThread frame — which the lead
    // only sends after its acknowledged setup, so the body cannot observe
    // half-installed objects.
    const bool gated = !lead_;
    t->th_ = std::thread([this, t, node, name, gated,
                          body = std::move(body)] {
      if (gated && !coord_.AwaitStart(t->seq_)) {
        t->done_.store(true, std::memory_order_release);
        return;  // run aborted before this body started
      }
      runtime::Guest guest(rt_, node, name);
      GuestEnv env(vm_, guest, t);
      std::string error_msg;
      try {
        body(env);
      } catch (const std::exception& e) {
        t->error_ = std::current_exception();
        error_msg = e.what();
      } catch (...) {
        t->error_ = std::current_exception();
        error_msg = "unknown exception";
      }
      t->done_.store(true, std::memory_order_release);
      if (!lead_) coord_.NotifyThreadDone(t->seq_, error_msg, t->result_);
    });
    return t;
  }

  void Join(Env&, Thread* thread) override {
    HMDSM_CHECK(thread != nullptr);
    auto* t = static_cast<SockThread*>(thread);
    if (t->local_) {
      bool owner = false;
      {
        std::lock_guard lock(mu_);
        if (!t->joined_) t->joined_ = owner = true;
      }
      if (owner) {
        t->th_.join();
        if (t->error_) std::rethrow_exception(t->error_);
        return;
      }
      while (!t->done()) std::this_thread::yield();
      return;
    }
    // Remote thread: only the lead has a completion channel; ghost
    // replicas' joins are no-ops (their subsequent main ops are too).
    if (!lead_) return;
    const netio::Coordinator::RemoteDone done = coord_.AwaitThreadDone(t->seq_);
    t->result_ = done.result;
    t->done_.store(true, std::memory_order_release);
    if (!done.error.empty()) {
      throw std::runtime_error("remote thread on node " +
                               std::to_string(t->node_) +
                               " failed: " + done.error);
    }
  }

  void Quiesce(Env&) override {
    if (lead_) coord_.GlobalQuiesce();
    // Ghost mains have nothing to wait for: quiescence is cluster state
    // and only the lead's program drives (and therefore awaits) it.
  }

  ObjectId CreateObject(Env& env, NodeId home, ByteSpan initial) override {
    ObjectId id;
    {
      std::lock_guard lock(mu_);
      // Replicated id allocation only works while every replica takes the
      // identical path — i.e. main-thread setup. Worker-side creation
      // would desynchronize the ghosts' counters silently; refuse loudly.
      HMDSM_CHECK_MSG(!spawned_workers_,
                      "sockets backend: create shared objects from the main "
                      "thread before spawning workers");
      id = rt_.NewObjectId(home, env.node());
    }
    if (lead_) static_cast<GuestEnv&>(env).guest().CreateObject(id, initial);
    return id;
  }

  LockId CreateLock(NodeId manager) override {
    std::lock_guard lock(mu_);
    return rt_.NewLockId(manager);
  }
  BarrierId CreateBarrier(NodeId manager) override {
    std::lock_guard lock(mu_);
    return rt_.NewBarrierId(manager);
  }

  void ResetMeasurement() override {
    // The lead resets the whole cluster (quiesce + broadcast + acks); the
    // ghosts' replicas of this call are no-ops — their local reset happens
    // when the lead's ResetStats frame arrives, strictly before any
    // measured-phase traffic can reach them.
    if (lead_) coord_.GlobalResetStats();
  }

  double ElapsedSeconds() const override { return rt_.ElapsedSeconds(); }

  RunReport Report() override {
    // Every recorder snapshot (local or gathered) already carries the wire
    // counters and write-latency histogram its transport folded in, so the
    // lead's report shows cluster totals — not lead-process-only numbers.
    // GatherStats is a genuine mutation (control-plane round trips), which
    // is why Report() is non-const across the backends.
    RunReport report =
        lead_ ? MakeRunReport(coord_.GatherStats(), rt_.ElapsedSeconds())
              : MakeRunReport(rt_.Totals(), rt_.ElapsedSeconds());
    if (lead_ && transport_.process_count() > 1) {
      const netio::Coordinator::HealthView hv = coord_.HealthSnapshot();
      for (const netio::PeerHealth& p : hv.peers) {
        RunReport::PeerReport pr;
        pr.primary = p.peer;
        pr.state = netio::PeerStateName(p.state);
        pr.missed_beats = p.missed;
        pr.why = p.why;
        for (const netio::LinkStats& l : hv.links) {
          if (l.primary != p.peer) continue;
          pr.hb_sent = l.hb_sent;
          pr.hb_acked = l.hb_acked;
          if (!l.rtt.empty()) {
            pr.rtt_p50_us = l.rtt.Quantile(0.5) * 1e-3;
            pr.rtt_p99_us = l.rtt.Quantile(0.99) * 1e-3;
          }
        }
        report.peer_health.push_back(std::move(pr));
      }
    }
    return report;
  }

 private:
  /// Lead only: binds the /metrics + /healthz exporter when configured.
  /// A bind failure is loud — a run launched for scraping that cannot be
  /// scraped is misconfigured, not degraded.
  void StartMetricsServer() {
    if (!lead_ || options_.sockets.metrics_port < 0) return;
    std::string err;
    const bool ok = metrics_.Start(
        static_cast<std::uint16_t>(options_.sockets.metrics_port),
        [this](const obs::HttpRequest& req) {
          return obs::HandleObsRequest(req, [this] { return GatherView(); });
        },
        &err);
    HMDSM_CHECK_MSG(ok, "metrics exporter: " << err);
    std::fprintf(stderr,
                 "hmdsm metrics: rank %u serving http://127.0.0.1:%u/metrics\n",
                 transport_.rank(), metrics_.port());
  }

  /// Assembles one scrape's view, called from the exporter thread. The
  /// coordinator's health/poll snapshots are the only shared state it
  /// touches, and both are thread-safe by design.
  obs::MeshView GatherView() {
    obs::MeshView v;
    v.node_count = static_cast<std::uint32_t>(rt_.nodes());
    v.ranks_per_proc = transport_.ranks_per_proc();
    v.process_count = transport_.process_count();
    v.lead = options_.start_node;
    v.self_primary = transport_.rank();
    v.uptime_s = sim::ToSeconds(transport_.Now());
    v.health = coord_.HealthSnapshot();
    v.poll = coord_.LatestPoll();
    return v;
  }

  /// Lead only: blocks until every spawned body (local or remote) has
  /// finished, joining local threads and folding their errors into
  /// `error`. Remote ThreadDone frames arrive whether or not the
  /// application joined, so unjoined threads cannot leak past the run.
  void AwaitAllThreadBodies(std::exception_ptr* error) {
    std::vector<SockThread*> local, remote;
    {
      std::lock_guard lock(mu_);
      for (SockThread& t : threads_) {
        if (t.joined_) continue;
        t.joined_ = true;
        (t.local_ ? local : remote).push_back(&t);
      }
    }
    for (SockThread* t : local) {
      t->th_.join();
      if (*error == nullptr && t->error_) *error = t->error_;
    }
    for (SockThread* t : remote) {
      if (t->done()) continue;
      const netio::Coordinator::RemoteDone done =
          coord_.AwaitThreadDone(t->seq_);
      t->result_ = done.result;
      t->done_.store(true, std::memory_order_release);
      if (*error == nullptr && !done.error.empty()) {
        *error = std::make_exception_ptr(std::runtime_error(
            "remote thread on node " + std::to_string(t->node_) +
            " failed: " + done.error));
      }
    }
  }

  /// Joins this rank's local threads; on an aborted run, threads that are
  /// not done (stuck in protocol waits the dead lead will never answer)
  /// are detached — failing loudly beats hanging the mesh.
  void JoinLocalThreads(std::exception_ptr* error, bool aborted) {
    std::vector<SockThread*> pending;
    {
      std::lock_guard lock(mu_);
      for (SockThread& t : threads_) {
        if (!t.local_ || t.joined_) continue;
        t.joined_ = true;
        pending.push_back(&t);
      }
    }
    for (SockThread* t : pending) {
      if (!t->th_.joinable()) continue;
      if (aborted && !t->done()) {
        t->th_.detach();
        continue;
      }
      t->th_.join();
      if (error != nullptr && *error == nullptr && t->error_)
        *error = t->error_;
    }
  }

  /// The shutdown barrier plus local teardown; idempotent.
  void Teardown(bool abort, std::exception_ptr* error) {
    if (torn_down_) return;
    torn_down_ = true;
    metrics_.Stop();       // no scrape may observe a half-torn-down mesh
    coord_.StopPolling();  // no poll may straddle the shutdown barrier
    try {
      if (lead_) {
        JoinLocalThreads(error, abort);
        coord_.ShutdownMesh(abort);
      } else {
        const bool lead_aborted = coord_.AwaitShutdown();
        JoinLocalThreads(error, abort || lead_aborted);
        coord_.AckShutdown();
        coord_.AwaitShutdownDone();
        if (lead_aborted && error != nullptr && *error == nullptr) {
          *error = std::make_exception_ptr(
              CheckError("run aborted by the lead rank"));
        }
      }
    } catch (...) {
      if (error != nullptr && *error == nullptr)
        *error = std::current_exception();
    }
    rt_.Shutdown();
    transport_.Stop();
    // Each rank writes its own trace shard; the launcher (or the operator)
    // merges `<path>.rank<R>` shards into one Perfetto-loadable file. The
    // rank's own time-series rides along as counter tracks (pid = rank).
    if (!options_.trace_out.empty()) {
      const stats::Timeseries series = rt_.Totals().Series();
      const net::NodeId first = transport_.local_ranks().front();
      const net::NodeId last = transport_.local_ranks().back();
      const std::string label =
          first == last
              ? "hmdsm rank " + std::to_string(first)
              : "hmdsm ranks " + std::to_string(first) + "-" +
                    std::to_string(last);
      trace::WriteChromeShard(options_.trace_out, transport_.rank(),
                              trace_.events(), label, &series);
    }
  }

  Vm& vm_;
  VmOptions options_;
  trace::Trace trace_;  // must outlive rt_ (agents hold a pointer)
  netio::SocketTransport transport_;
  runtime::Runtime rt_;
  netio::Coordinator coord_;
  const bool lead_;
  obs::HttpServer metrics_;  // lead only; serves /metrics and /healthz

  std::mutex mu_;  // spawn bookkeeping + id sequences
  std::deque<SockThread> threads_;
  std::uint64_t next_seq_ = 0;
  int next_thread_idx_ = 0;
  bool spawned_workers_ = false;
  bool torn_down_ = false;
};

}  // namespace

std::unique_ptr<VmBackend> MakeSocketsVmBackend(Vm& vm,
                                                const VmOptions& options) {
  return std::make_unique<SocketsBackend>(vm, options);
}

}  // namespace hmdsm::gos
