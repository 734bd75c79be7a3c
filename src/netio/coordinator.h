// netio::Coordinator — the control plane of a multi-process run.
//
// The sockets backend replicates the application's main thread on every
// rank (deterministic setup: identical object/lock/barrier id sequences),
// but only the *lead* rank (the Vm's start node) executes DSM operations;
// the other replicas are ghosts whose ops are no-ops. Everything that
// needs cluster agreement flows through here, over control frames that
// share the transport's per-peer FIFO queues:
//
//   * Thread start: a rank hosting a spawned thread holds its body until
//     the lead's StartThread frame arrives. Because the lead only reaches
//     Spawn after its (acknowledged) setup, a worker can never race ahead
//     of object installation.
//   * Thread completion: the hosting rank reports ThreadDone (error +
//     published result) to the lead, which is what Join blocks on.
//   * Distributed quiescence: counters are monotone, so the cluster is
//     idle iff two consecutive probe rounds return identical per-rank
//     counters with sum(wire_sent) == sum(wire_received) and local
//     enqueued == dispatched everywhere.
//   * Stats polls/reset: one StatsPoll round serves both the live metrics
//     plane (best-effort, on a timer) and the end-of-run gather (waits
//     for every process); each process answers with its merged recorder.
//     Reset is quiesce + broadcast + acks, so every measured-phase message
//     is causally after every rank's reset.
//   * Shutdown barrier: the lead announces the end of the run, every rank
//     acks after its local threads finished, and only then do sockets
//     close — so teardown EOFs are expected goodbyes, not failures.
//
// All waits carry a generous timeout and fail loudly: a silently hung
// distributed run is worse than a crashed one.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/netio/liveness.h"
#include "src/netio/socket_transport.h"
#include "src/runtime/runtime.h"

namespace hmdsm::netio {

class Coordinator {
 public:
  /// Installs itself as `transport`'s control handler (so it must be
  /// constructed before Start()). `lead` is the rank that runs the real
  /// application main thread.
  Coordinator(SocketTransport& transport, runtime::Runtime& runtime,
              net::NodeId lead);
  ~Coordinator();

  /// True when this *process* hosts the lead rank (with multi-rank hosting
  /// the lead is a rank, but the control plane runs per process).
  bool is_lead() const { return transport_.is_local(lead_); }
  net::NodeId lead() const { return lead_; }

  /// Pure rate computation for one live-metrics poll sample: the message
  /// delta over `dt_s` seconds. Returns 0 for samples that cannot yield a
  /// meaningful rate: no elapsed time, an incomplete sample (`answered <
  /// expected` — polls are best-effort, and a missing rank's counters make
  /// the merged total non-comparable), or a backward-moving total (which
  /// would otherwise underflow the unsigned delta into a ~1.8e19 "rate").
  static double PollRate(std::uint64_t msgs, std::uint64_t prev_msgs,
                         double dt_s, std::size_t answered,
                         std::size_t expected);

  /// The live poll's rate baseline: the cluster message total and the
  /// transport clock of the last complete sample. StartPolling seeds it, so
  /// the first sample already has a baseline to difference against.
  struct PollCursor {
    std::uint64_t msgs = 0;
    sim::Time at_ns = 0;
    /// The sample's msgs/s against the cursor (PollRate's rules), then
    /// moves the cursor onto the sample if it is complete — a rate against
    /// a total that was merely missing replies would read as a burst.
    double Advance(std::uint64_t sample_msgs, sim::Time now_ns,
                   std::size_t answered, std::size_t expected);
  };

  /// The lead's stderr line for one poll sample. Time prints in
  /// milliseconds, since intervals down to 10ms are legal.
  static std::string FormatPollLine(std::uint64_t seq, double t_s,
                                    std::uint64_t msgs, double rate,
                                    std::uint64_t faults,
                                    std::uint64_t migrations,
                                    const std::string& note);

  // ---- lead side ----

  /// Tells `host` to release spawned thread `seq`.
  void StartRemoteThread(net::NodeId host, std::uint64_t seq);

  struct RemoteDone {
    std::string error;  // empty = completed normally
    Bytes result;       // the thread's published result payload
  };

  /// Blocks until `host` reports thread `seq` finished.
  RemoteDone AwaitThreadDone(std::uint64_t seq);

  /// Blocks until the whole cluster is quiescent (see file comment).
  void GlobalQuiesce();

  /// Merged totals of every rank: a StatsPoll round that, unlike the live
  /// poll, waits (with the control timeout) until every remote process has
  /// answered this poll or a later one. Safe while PollLoop runs.
  stats::Recorder GatherStats();

  /// Cluster-wide measurement reset: global quiescence, then every rank
  /// zeroes its recorder and marks its epoch, acknowledged before return.
  void GlobalResetStats();

  /// Starts the live metrics plane: a lead-side sampler thread broadcasts
  /// a StatsPoll every `interval_s` seconds mid-run, merges the best-effort
  /// per-rank snapshots, and prints a cluster ops/s line to stderr. A
  /// process that has not answered within the interval is called out in
  /// the sample line and merged from its newest earlier snapshot. Each
  /// poll closes one time-series window on every rank (LocalSnapshot), so
  /// the sockets backend grows its stats::Timeseries at the same cadence
  /// as the other backends. No-op when interval_s <= 0. Non-empty
  /// `poll_out`: StopPolling persists the accumulated poll snapshots there
  /// as JSON.
  void StartPolling(double interval_s, std::string poll_out = {});
  /// Stops and joins the sampler (idempotent; the destructor calls it).
  /// Must be called before ShutdownMesh so no poll straddles teardown.
  void StopPolling();

  // ---- health plane (any rank; the obs exporter reads these) ----

  /// Point-in-time mesh health: each remote process's liveness verdict
  /// plus the transport's per-link telemetry. Ticks the liveness state
  /// machine, so transitions observed here are logged exactly once.
  struct HealthView {
    std::vector<PeerHealth> peers;  // remote processes, by primary rank
    std::vector<LinkStats> links;   // same order as peers
    std::uint64_t heartbeat_interval_ns = 0;  // 0 = heartbeats disabled
    bool all_healthy = true;
    bool any_dead = false;
  };
  HealthView HealthSnapshot();

  /// The newest merged poll sample, cached for /metrics so an untrusted
  /// HTTP scrape never injects control traffic into the mesh. `valid` is
  /// false until the first poll completes (or when polling is off).
  struct PollView {
    bool valid = false;
    std::uint64_t seq = 0;
    double t_s = 0;
    stats::Recorder totals;
    std::size_t answered = 0;
    std::size_t expected = 0;
    std::vector<net::NodeId> stale;  // primaries whose snapshot is old
  };
  PollView LatestPoll();

  /// Announces the end of the run, waits for every rank's ack (each sent
  /// after its local threads finished), then broadcasts the all-clear.
  /// After this returns, no frame of any kind is in flight anywhere —
  /// sockets may close.
  void ShutdownMesh(bool abort);

  // ---- hosting side (non-lead ranks) ----

  /// Blocks until the lead starts thread `seq`; false if the run was
  /// aborted before the start arrived (the body must not run).
  bool AwaitStart(std::uint64_t seq);

  /// Reports a locally hosted thread's completion to the lead.
  void NotifyThreadDone(std::uint64_t seq, const std::string& error,
                        const Bytes& result);

  /// Non-lead end-of-run gate: blocks until the lead's Shutdown frame.
  /// Returns true if the lead aborted (error unwind). The caller joins its
  /// local threads, then AckShutdown() — the ack promises this rank sends
  /// nothing further, so it must come after everything local is done.
  bool AwaitShutdown();
  void AckShutdown();

  /// Blocks for the lead's all-clear: every rank has acked, so closing
  /// this rank's sockets can no longer surprise anyone.
  void AwaitShutdownDone();

 private:
  void OnControlFrame(net::NodeId src, ByteSpan frame);
  /// Reactor callback for a mid-run link failure: records the death,
  /// unwedges local waits, and emits the health callout + trace instant.
  void OnPeerDown(net::NodeId primary, const std::string& why);

  /// Starts the post-death watchdog (idempotent; call with mu_ held).
  void ArmDeathWatchdog(net::NodeId primary);
  /// Feeds the liveness tracker the freshest link clocks and advances its
  /// state machine. Caller holds mu_; `now_ns` is the transport clock.
  std::vector<LivenessTransition> TickLiveness(
      const std::vector<LinkStats>& links, std::uint64_t now_ns);
  /// Logs transitions to stderr and records the Perfetto instants. Must
  /// be called without mu_ held.
  void ReportTransitions(const std::vector<LivenessTransition>& transitions,
                         std::int64_t now_ns);
  void PollLoop(double interval_s, PollCursor cursor);
  /// Remote processes whose newest reply answers poll `seq` or a later
  /// one. Caller holds mu_.
  std::size_t AnsweredSince(std::uint64_t seq) const;
  /// This process's share of a stats round: closes one time-series window
  /// on every hosted rank, then merges their recorders.
  stats::Recorder LocalSnapshot();

  /// cv.wait_for with the control-plane timeout; throws CheckError naming
  /// `what` on expiry.
  template <typename Pred>
  void WaitFor(std::unique_lock<std::mutex>& lock, Pred pred,
               const char* what);

  SocketTransport& transport_;
  runtime::Runtime& runtime_;
  const net::NodeId lead_;
  /// Missed-beat counting is only meaningful when the transport actually
  /// beats; with heartbeats off the tracker still records hard deaths.
  const bool hb_enabled_;

  std::mutex mu_;
  std::condition_variable cv_;
  // hosting side
  std::set<std::uint64_t> started_;
  bool shutdown_received_ = false;
  bool abort_received_ = false;
  bool shutdown_done_ = false;
  // lead side
  std::map<std::uint64_t, RemoteDone> done_;
  std::map<net::NodeId, QuiesceReplyFrame> quiesce_replies_;
  std::uint64_t quiesce_round_ = 0;
  std::size_t reset_acks_ = 0;
  std::uint64_t reset_tag_ = 0;
  std::size_t shutdown_acks_ = 0;
  // health plane (all guarded by mu_)
  LivenessTracker liveness_;
  std::set<net::NodeId> dead_procs_;  // primaries whose link failed
  /// Started by the first OnPeerDown: after the observability grace the
  /// run must be unwinding; a process still stalled (e.g. application
  /// threads stuck in protocol waits a dead rank will never answer) is
  /// aborted loudly instead of hanging to the control timeout.
  std::thread death_watchdog_;
  std::atomic<bool> unwinding_{false};
  // stats polls: live metrics plane and end-of-run gather (lead side)
  std::thread poll_thread_;
  bool poll_stop_ = false;
  std::uint64_t poll_seq_ = 0;  // last poll sent, live or gather
  /// Freshest reply ever received per process, regardless of poll round:
  /// a gather reads its answers here, and a slow rank's counters are
  /// merged from here (and called out as stale) instead of silently
  /// vanishing from the live totals.
  std::map<net::NodeId, StatsPollReplyFrame> poll_latest_;
  PollView latest_view_;
  /// One retained line per poll, persisted to `poll_out_` by StopPolling.
  struct PollSample {
    std::uint64_t seq = 0;
    double t_s = 0;
    std::uint64_t msgs = 0;
    std::uint64_t faults = 0;
    std::uint64_t migrations = 0;
    double msgs_per_s = 0;
    std::size_t answered = 0;  // process replies in time (of expected)
    std::size_t expected = 0;
    std::vector<net::NodeId> stale;    // merged from an old snapshot
    std::vector<net::NodeId> suspect;  // liveness verdicts at sample time
    std::vector<net::NodeId> dead;
  };
  std::string poll_out_;
  std::vector<PollSample> poll_log_;  // guarded by mu_
};

}  // namespace hmdsm::netio
