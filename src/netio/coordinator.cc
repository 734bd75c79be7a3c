#include "src/netio/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "src/trace/trace.h"
#include "src/util/json.h"

namespace hmdsm::netio {

namespace {

/// Bounded control waits are not latency-sensitive, only hang-sensitive:
/// generous enough for a loaded CI machine, small enough that a wedged
/// cluster fails the run instead of idling forever. Only applied to waits
/// whose duration is bounded by the control protocol itself (probe
/// replies, acks); waits that track the application's own runtime —
/// thread start/completion, the end-of-run gate — are unbounded, with a
/// died peer detected by the transport's reader loops instead.
constexpr auto kControlTimeout = std::chrono::seconds(120);

/// How long a wait lingers after learning a peer died before unwinding:
/// long enough for an in-flight reply (or a /metrics scrape observing the
/// callout) to land, short enough that a dead cluster exits promptly.
constexpr auto kPeerDeathGrace = std::chrono::seconds(3);

/// The liveness beat period follows the transport's heartbeat timer; with
/// heartbeats disabled the tracker still exists for hard death callouts
/// (its evaluation clock is then pinned — see TickLiveness).
LivenessOptions LivenessFor(const SocketTransport& transport) {
  LivenessOptions o;
  if (transport.heartbeat_interval_ns() > 0)
    o.interval_ns = transport.heartbeat_interval_ns();
  return o;
}

/// "0,4,8" — rank lists for the poll line's health callouts.
std::string RankList(const std::vector<net::NodeId>& ranks) {
  std::string out;
  for (const net::NodeId r : ranks) {
    if (!out.empty()) out += ',';
    out += std::to_string(r);
  }
  return out;
}

}  // namespace

Coordinator::Coordinator(SocketTransport& transport,
                         runtime::Runtime& runtime, net::NodeId lead)
    : transport_(transport),
      runtime_(runtime),
      lead_(lead),
      hb_enabled_(transport.heartbeat_interval_ns() > 0),
      liveness_(LivenessFor(transport)) {
  HMDSM_CHECK(lead_ < transport_.node_count());
  // Track every remote process from birth, so a peer that dies before it
  // is ever heard from still ages toward suspect/dead.
  for (const LinkStats& link : transport_.LinkSnapshots())
    liveness_.Track(link.primary,
                    static_cast<std::uint64_t>(transport_.Now()));
  transport_.SetControlHandler(
      [this](net::NodeId src, ByteSpan frame) { OnControlFrame(src, frame); });
  transport_.SetPeerDownHandler(
      [this](net::NodeId primary, const std::string& why) {
        OnPeerDown(primary, why);
      });
}

Coordinator::~Coordinator() {
  unwinding_.store(true, std::memory_order_release);
  if (death_watchdog_.joinable()) death_watchdog_.join();
  StopPolling();
}

template <typename Pred>
void Coordinator::WaitFor(std::unique_lock<std::mutex>& lock, Pred pred,
                          const char* what) {
  // The base allowance plus a per-rank term: a 128-rank fan-in has more
  // replies to collect (and more processes contending for the machine)
  // than a 2-rank one, and must not time out just for being big.
  const auto timeout =
      kControlTimeout +
      std::chrono::milliseconds(250 * transport_.node_count());
  cv_.wait_for(lock, timeout, [&] { return pred() || !dead_procs_.empty(); });
  if (pred()) return;
  if (!dead_procs_.empty()) {
    // A dead peer cannot reply: linger only the short death grace (for a
    // reply that was already in flight), then unwind deliberately instead
    // of idling out the full control timeout.
    cv_.wait_for(lock, kPeerDeathGrace, [&] { return pred(); });
    HMDSM_CHECK_MSG(pred(), "peer process (primary rank "
                                << *dead_procs_.begin()
                                << ") died while waiting for " << what);
    return;
  }
  HMDSM_CHECK_MSG(false, "control-plane timeout waiting for " << what);
}

void Coordinator::OnControlFrame(net::NodeId src, ByteSpan frame) {
  FrameType type;
  std::string error;
  HMDSM_CHECK(PeekType(frame, &type));  // transport routed it, so it peeked
  switch (type) {
    case FrameType::kStartThread: {
      StartThreadFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      started_.insert(f.seq);
      cv_.notify_all();
      return;
    }
    case FrameType::kThreadDone: {
      ThreadDoneFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      done_[f.seq] = RemoteDone{std::move(f.error), std::move(f.result)};
      cv_.notify_all();
      return;
    }
    case FrameType::kQuiesceProbe: {
      QuiesceProbeFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      // Replied straight from reader context: counters are atomics.
      transport_.SendControl(
          src, Encode(QuiesceReplyFrame{
                   f.round, transport_.wire_sent(), transport_.wire_received(),
                   transport_.enqueued(), transport_.dispatched()}));
      return;
    }
    case FrameType::kQuiesceReply: {
      QuiesceReplyFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      if (f.round == quiesce_round_) quiesce_replies_[src] = f;
      cv_.notify_all();
      return;
    }
    case FrameType::kStatsRequest: {
      StatsRequestFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      // Close the final (partial) sampling window before snapshotting, so
      // the gathered series covers the run right up to the gather.
      runtime_.SampleTimeseries();
      // All locally hosted ranks merged (Totals takes each agent lock, so
      // it is consistent even against a straggling handler — the lead
      // quiesces first anyway).
      StatsReplyFrame reply;
      reply.tag = f.tag;
      reply.node = transport_.rank();
      reply.recorder = runtime_.Totals();
      transport_.SendControl(src, Encode(reply));
      return;
    }
    case FrameType::kStatsReply: {
      StatsReplyFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      if (f.tag == stats_tag_) stats_replies_[src] = std::move(f.recorder);
      cv_.notify_all();
      return;
    }
    case FrameType::kResetStats: {
      ResetStatsFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      // The lead established global quiescence before broadcasting, so the
      // local reset (quiesce + zero + epoch) completes immediately and
      // races nothing.
      runtime_.ResetMeasurement();
      transport_.SendControl(src, Encode(ResetAckFrame{f.tag}));
      return;
    }
    case FrameType::kResetAck: {
      ResetAckFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      if (f.tag == reset_tag_) ++reset_acks_;
      cv_.notify_all();
      return;
    }
    case FrameType::kShutdown: {
      ShutdownFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      transport_.BeginShutdown();  // EOFs are goodbyes from here on
      std::lock_guard lock(mu_);
      shutdown_received_ = true;
      abort_received_ = f.abort;
      cv_.notify_all();
      return;
    }
    case FrameType::kShutdownAck: {
      ShutdownAckFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      ++shutdown_acks_;
      cv_.notify_all();
      return;
    }
    case FrameType::kShutdownDone: {
      ShutdownDoneFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      shutdown_done_ = true;
      cv_.notify_all();
      return;
    }
    case FrameType::kStatsPoll: {
      StatsPollFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      // Best-effort mid-run snapshot, answered from reader context like a
      // quiescence probe (the snapshot briefly takes the agent lock). The
      // poll doubles as this rank's time-series clock: close one counter
      // window first so the snapshot carries the fresh sample to the lead.
      runtime_.SampleTimeseries();
      StatsPollReplyFrame reply;
      reply.seq = f.seq;
      reply.node = transport_.rank();
      reply.now_ns = static_cast<std::uint64_t>(transport_.Now());
      reply.recorder = runtime_.Totals();  // all locally hosted ranks
      transport_.SendControl(src, Encode(reply));
      return;
    }
    case FrameType::kStatsPollReply: {
      StatsPollReplyFrame f;
      if (!TryDecode(frame, &f, &error)) break;
      std::lock_guard lock(mu_);
      // Every reply refreshes that process's cached snapshot — a late
      // answer to an old poll is still its newest counters, and the merge
      // calls it out as stale rather than dropping it. Only a reply to
      // the current round counts as answered.
      const auto it = poll_latest_.find(src);
      if (it == poll_latest_.end() || f.seq >= it->second.seq)
        poll_latest_[src] = f;
      if (f.seq == poll_seq_) poll_replies_[src] = std::move(f);
      cv_.notify_all();
      return;
    }
    default:
      error = "unexpected frame type " +
              std::to_string(static_cast<int>(type));
      break;
  }
  HMDSM_CHECK_MSG(false, "control frame from rank " << src << ": " << error);
}

// ---------------------------------------------------------------------------
// Health plane
// ---------------------------------------------------------------------------

void Coordinator::OnPeerDown(net::NodeId primary, const std::string& why) {
  const sim::Time now = transport_.Now();
  // Snapshot outside mu_ (LinkSnapshots takes per-peer locks; mu_ must
  // never be held while acquiring them).
  const std::vector<LinkStats> links = transport_.LinkSnapshots();
  std::vector<LivenessTransition> transitions;
  {
    std::lock_guard lock(mu_);
    dead_procs_.insert(primary);
    liveness_.MarkDead(primary, why);
    ArmDeathWatchdog(primary);
    transitions = TickLiveness(links, static_cast<std::uint64_t>(now));
    if (!is_lead() && transport_.primary_of(lead_) == primary) {
      // The lead's process is gone: no start, shutdown, or all-clear will
      // ever arrive. Unblock the hosting-side gates as an aborted run so
      // this process unwinds instead of waiting forever.
      shutdown_received_ = true;
      abort_received_ = true;
      shutdown_done_ = true;
      transport_.BeginShutdown();
    }
  }
  cv_.notify_all();
  ReportTransitions(transitions, now);
}

void Coordinator::ArmDeathWatchdog(net::NodeId primary) {
  if (death_watchdog_.joinable()) return;
  // Dead-aware control waits give scrapes kPeerDeathGrace to observe the
  // callout, then throw and unwind. Application threads parked in DSM
  // protocol waits on the dead rank have no such escape; if the process
  // has not started unwinding well past that grace, fail loudly rather
  // than sitting out the full control timeout.
  death_watchdog_ = std::thread([this, primary] {
    const auto deadline = std::chrono::steady_clock::now() + 3 * kPeerDeathGrace;
    while (std::chrono::steady_clock::now() < deadline) {
      if (unwinding_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (unwinding_.load(std::memory_order_acquire)) return;
    std::fprintf(stderr,
                 "hmdsm health: rank %u: peer process (primary rank %u) died "
                 "and the run is still stalled after the death grace; "
                 "aborting\n",
                 transport_.rank(), primary);
    std::abort();
  });
}

std::vector<LivenessTransition> Coordinator::TickLiveness(
    const std::vector<LinkStats>& links, std::uint64_t now_ns) {
  for (const LinkStats& link : links)
    liveness_.Observe(link.primary, link.last_heard_ns);
  // With heartbeats off a quiet link is not evidence of death, so the
  // evaluation clock is pinned to 0: silent-time counting never fires and
  // only hard callouts (MarkDead) advance state.
  return liveness_.Evaluate(hb_enabled_ ? now_ns : 0);
}

void Coordinator::ReportTransitions(
    const std::vector<LivenessTransition>& transitions, std::int64_t now_ns) {
  if (transitions.empty()) return;
  trace::Trace* trace = runtime_.options().trace;
  for (const LivenessTransition& tr : transitions) {
    std::fprintf(stderr,
                 "hmdsm health: rank %u: peer process (primary rank %u) "
                 "%s -> %s after %llu missed beats%s%s\n",
                 transport_.rank(), tr.peer, PeerStateName(tr.from),
                 PeerStateName(tr.to),
                 static_cast<unsigned long long>(tr.missed),
                 tr.why.empty() ? "" : ": ", tr.why.c_str());
    if (trace == nullptr) continue;
    if (tr.to == PeerState::kSuspect) {
      trace->Record({now_ns, trace::What::kPeerSuspect, transport_.rank(),
                     tr.peer, 0, static_cast<std::int64_t>(tr.missed)});
    } else if (tr.to == PeerState::kDead) {
      trace->Record({now_ns, trace::What::kPeerDead, transport_.rank(),
                     tr.peer, 0, static_cast<std::int64_t>(tr.missed)});
    }
  }
}

Coordinator::HealthView Coordinator::HealthSnapshot() {
  HealthView out;
  out.links = transport_.LinkSnapshots();
  out.heartbeat_interval_ns = transport_.heartbeat_interval_ns();
  const sim::Time now = transport_.Now();
  std::vector<LivenessTransition> transitions;
  {
    std::lock_guard lock(mu_);
    transitions = TickLiveness(out.links, static_cast<std::uint64_t>(now));
    out.peers = liveness_.Snapshot();
    out.all_healthy = liveness_.AllHealthy();
    out.any_dead = liveness_.AnyDead();
  }
  ReportTransitions(transitions, now);
  return out;
}

Coordinator::PollView Coordinator::LatestPoll() {
  std::lock_guard lock(mu_);
  return latest_view_;
}

// ---------------------------------------------------------------------------
// Lead side
// ---------------------------------------------------------------------------

void Coordinator::StartRemoteThread(net::NodeId host, std::uint64_t seq) {
  HMDSM_CHECK(is_lead());
  transport_.SendControl(host, Encode(StartThreadFrame{seq}));
}

Coordinator::RemoteDone Coordinator::AwaitThreadDone(std::uint64_t seq) {
  HMDSM_CHECK(is_lead());
  std::unique_lock lock(mu_);
  // Unbounded: a remote body legitimately runs as long as the workload —
  // but a dead peer ends the wait after the short death grace (for a done
  // frame already in flight): its report may never come.
  cv_.wait(lock, [&] { return done_.contains(seq) || !dead_procs_.empty(); });
  if (!done_.contains(seq)) {
    cv_.wait_for(lock, kPeerDeathGrace, [&] { return done_.contains(seq); });
    HMDSM_CHECK_MSG(done_.contains(seq),
                    "peer process (primary rank "
                        << *dead_procs_.begin() << ") died before thread "
                        << seq << " completed");
  }
  return done_.at(seq);
}

void Coordinator::GlobalQuiesce() {
  HMDSM_CHECK(is_lead());
  // One reply per *process*: the wire/mailbox counters are process-level,
  // and that is exactly the granularity quiescence needs.
  const std::size_t others = transport_.process_count() - 1;
  std::vector<QuiesceReplyFrame> previous;
  auto pause = std::chrono::microseconds(25);
  for (;;) {
    runtime_.AwaitQuiescence();  // local first: cheap and usually sufficient
    std::vector<QuiesceReplyFrame> round(transport_.node_count());
    {
      std::unique_lock lock(mu_);
      const std::uint64_t round_id = ++quiesce_round_;
      quiesce_replies_.clear();
      transport_.BroadcastControl(Encode(QuiesceProbeFrame{round_id}));
      WaitFor(lock, [&] { return quiesce_replies_.size() == others; },
              "quiescence probe replies");
      for (const auto& [rank, reply] : quiesce_replies_) round[rank] = reply;
    }
    round[transport_.rank()] = QuiesceReplyFrame{
        0, transport_.wire_sent(), transport_.wire_received(),
        transport_.enqueued(), transport_.dispatched()};

    std::uint64_t sent = 0, received = 0;
    bool locally_idle = true;
    for (const QuiesceReplyFrame& r : round) {
      sent += r.wire_sent;
      received += r.wire_received;
      locally_idle = locally_idle && r.enqueued == r.dispatched;
    }
    const auto same = [](const QuiesceReplyFrame& a,
                         const QuiesceReplyFrame& b) {
      return a.wire_sent == b.wire_sent &&
             a.wire_received == b.wire_received && a.enqueued == b.enqueued &&
             a.dispatched == b.dispatched;
    };
    bool stable = !previous.empty();
    for (std::size_t i = 0; stable && i < round.size(); ++i)
      stable = same(round[i], previous[i]);
    // Counters are monotone: identical counters across two rounds with
    // matched sums and idle mailboxes means nothing moved in between.
    if (sent == received && locally_idle && stable) return;
    // The confirming round goes out at once: each round already waits for
    // every reply. Only while the counters keep moving do rounds back off,
    // doubling up to 200 us.
    const bool first = previous.empty();
    previous = std::move(round);
    if (first) continue;
    std::this_thread::sleep_for(pause);
    pause = std::min(2 * pause, std::chrono::microseconds(200));
  }
}

stats::Recorder Coordinator::GatherStats() {
  HMDSM_CHECK(is_lead());
  // One StatsReply per remote *process*, each already a merge of all the
  // ranks that process hosts.
  const std::size_t others = transport_.process_count() - 1;
  stats::Recorder total;
  total.SetNodeCount(transport_.node_count());
  std::unique_lock lock(mu_);
  const std::uint64_t tag = ++stats_tag_;
  stats_replies_.clear();
  transport_.BroadcastControl(Encode(StatsRequestFrame{tag}));
  WaitFor(lock, [&] { return stats_replies_.size() == others; },
          "stats replies");
  for (const auto& [rank, recorder] : stats_replies_) total.Merge(recorder);
  lock.unlock();
  // Same final-window close for the lead's own series as the StatsRequest
  // handler performs on every other process.
  runtime_.SampleTimeseries();
  total.Merge(runtime_.Totals());
  return total;
}

void Coordinator::GlobalResetStats() {
  HMDSM_CHECK(is_lead());
  // Quiesce first so no in-flight message straddles the reset; the acks
  // below guarantee every rank reset before the lead proceeds (and the
  // per-peer FIFO queues order each rank's reset before any later
  // lead-caused traffic) — so measured windows cover identical traffic on
  // every rank.
  GlobalQuiesce();
  const std::size_t others = transport_.process_count() - 1;
  std::unique_lock lock(mu_);
  const std::uint64_t tag = ++reset_tag_;
  reset_acks_ = 0;
  transport_.BroadcastControl(Encode(ResetStatsFrame{tag}));
  WaitFor(lock, [&] { return reset_acks_ == others; }, "reset acks");
  lock.unlock();
  runtime_.ResetMeasurement();
}

void Coordinator::StartPolling(double interval_s, std::string poll_out) {
  HMDSM_CHECK(is_lead());
  if (interval_s <= 0 || transport_.node_count() < 2) return;
  HMDSM_CHECK_MSG(!poll_thread_.joinable(), "polling already started");
  {
    std::lock_guard lock(mu_);
    poll_stop_ = false;
    poll_out_ = std::move(poll_out);
    poll_log_.clear();
    // A fresh polling epoch must not merge snapshots cached before a
    // measurement reset — they would resurrect pre-reset counters.
    poll_latest_.clear();
    latest_view_ = PollView{};
  }
  // Polling starts with the run, before the application sends any DSM
  // message: the cluster total is zero at this clock reading.
  const PollCursor start{0, transport_.Now()};
  poll_thread_ = std::thread(
      [this, interval_s, start] { PollLoop(interval_s, start); });
}

void Coordinator::StopPolling() {
  // Teardown has begun: the death watchdog (if armed) must stand down.
  unwinding_.store(true, std::memory_order_release);
  if (!poll_thread_.joinable()) return;
  {
    std::lock_guard lock(mu_);
    poll_stop_ = true;
  }
  cv_.notify_all();
  poll_thread_.join();
  std::vector<PollSample> log;
  std::string path;
  {
    std::lock_guard lock(mu_);
    log.swap(poll_log_);
    path.swap(poll_out_);
  }
  if (path.empty()) return;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "poll-out: cannot write %s\n", path.c_str());
    return;
  }
  {
    JsonWriter jw(os);
    jw.BeginArray();
    for (const PollSample& s : log) {
      jw.BeginObject();
      jw.Key("seq").Uint(s.seq);
      jw.Key("t_s").Double(s.t_s);
      jw.Key("msgs").Uint(s.msgs);
      jw.Key("msgs_per_s").Double(s.msgs_per_s);
      jw.Key("faults").Uint(s.faults);
      jw.Key("migrations").Uint(s.migrations);
      jw.Key("answered").Uint(s.answered);
      jw.Key("expected").Uint(s.expected);
      jw.Key("stale").BeginArray();
      for (const net::NodeId r : s.stale) jw.Uint(r);
      jw.EndArray();
      jw.Key("suspect").BeginArray();
      for (const net::NodeId r : s.suspect) jw.Uint(r);
      jw.EndArray();
      jw.Key("dead").BeginArray();
      for (const net::NodeId r : s.dead) jw.Uint(r);
      jw.EndArray();
      jw.EndObject();
    }
    jw.EndArray();
  }
  os << '\n';
}

double Coordinator::PollRate(std::uint64_t msgs, std::uint64_t prev_msgs,
                             double dt_s, std::size_t answered,
                             std::size_t expected) {
  // Polls are best-effort, so a sample can be missing whole processes: its
  // merged total is then smaller than a complete previous one, and the
  // unsigned delta `msgs - prev_msgs` would wrap to ~1.8e19. Incomplete
  // and backward samples yield no rate rather than an absurd one.
  if (dt_s <= 0 || answered < expected || msgs < prev_msgs) return 0.0;
  return static_cast<double>(msgs - prev_msgs) / dt_s;
}

double Coordinator::PollCursor::Advance(std::uint64_t sample_msgs,
                                        sim::Time now_ns,
                                        std::size_t answered,
                                        std::size_t expected) {
  const double rate = PollRate(sample_msgs, msgs,
                               sim::ToSeconds(now_ns - at_ns), answered,
                               expected);
  if (answered == expected) {
    msgs = sample_msgs;
    at_ns = now_ns;
  }
  return rate;
}

std::string Coordinator::FormatPollLine(std::uint64_t seq, double t_s,
                                        std::uint64_t msgs, double rate,
                                        std::uint64_t faults,
                                        std::uint64_t migrations,
                                        const std::string& note) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "hmdsm poll #%llu: t=%.1fms msgs=%llu (%.0f/s) faults=%llu "
                "migrations=%llu",
                static_cast<unsigned long long>(seq), t_s * 1e3,
                static_cast<unsigned long long>(msgs), rate,
                static_cast<unsigned long long>(faults),
                static_cast<unsigned long long>(migrations));
  return buf + note;
}

void Coordinator::PollLoop(double interval_s, PollCursor cursor) {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(interval_s));
  const std::size_t others = transport_.process_count() - 1;
  // The remote primaries, fixed for the run: the stale scan below must
  // notice a process that never answered any poll at all.
  std::vector<net::NodeId> remotes;
  for (const LinkStats& link : transport_.LinkSnapshots())
    remotes.push_back(link.primary);
  std::unique_lock lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, interval, [&] { return poll_stop_; })) return;
    poll_replies_.clear();
    const std::uint64_t seq = ++poll_seq_;
    transport_.BroadcastControl(Encode(StatsPollFrame{seq}));
    // Best-effort: a process that cannot answer within a full interval is
    // reported as stale, not waited out — live metrics must never wedge
    // the run they observe. Dead processes are not waited for at all.
    cv_.wait_for(lock, interval, [&] {
      return poll_stop_ ||
             poll_replies_.size() >= others - dead_procs_.size();
    });
    if (poll_stop_) return;
    stats::Recorder total;
    total.SetNodeCount(transport_.node_count());
    std::vector<net::NodeId> stale;
    for (const net::NodeId r : remotes) {
      const auto it = poll_latest_.find(r);
      if (it == poll_latest_.end()) {
        stale.push_back(r);  // never answered any poll yet
        continue;
      }
      // Merge the newest snapshot held even when it answered an older
      // round — called out as stale instead of silently folded in.
      total.Merge(it->second.recorder);
      if (it->second.seq != seq) stale.push_back(r);
    }
    const std::size_t answered = poll_replies_.size();
    lock.unlock();
    const std::vector<LinkStats> links = transport_.LinkSnapshots();
    // The lead has no poll frame to react to — sample its own window here.
    runtime_.SampleTimeseries();
    total.Merge(runtime_.Totals());
    const sim::Time now = transport_.Now();
    const std::uint64_t msgs = total.TotalMessages();
    const double rate = cursor.Advance(msgs, now, answered, others);
    lock.lock();
    const std::vector<LivenessTransition> transitions =
        TickLiveness(links, static_cast<std::uint64_t>(now));
    std::vector<net::NodeId> suspect, dead;
    for (const PeerHealth& p : liveness_.Snapshot()) {
      if (p.state == PeerState::kSuspect) suspect.push_back(p.peer);
      if (p.state == PeerState::kDead) dead.push_back(p.peer);
    }
    latest_view_.valid = true;
    latest_view_.seq = seq;
    latest_view_.t_s = sim::ToSeconds(now);
    latest_view_.totals = total;
    latest_view_.answered = answered;
    latest_view_.expected = others;
    latest_view_.stale = stale;
    poll_log_.push_back(PollSample{seq, sim::ToSeconds(now), msgs,
                                   total.Count(stats::Ev::kFaultIns),
                                   total.Count(stats::Ev::kMigrations), rate,
                                   answered, others, stale, suspect, dead});
    lock.unlock();
    ReportTransitions(transitions, now);
    std::string note;
    if (answered < others) note += " [missing process replies]";
    if (!stale.empty()) note += " [stale:" + RankList(stale) + "]";
    if (!suspect.empty()) note += " [suspect:" + RankList(suspect) + "]";
    if (!dead.empty()) note += " [dead:" + RankList(dead) + "]";
    std::fprintf(stderr, "%s\n",
                 FormatPollLine(seq, sim::ToSeconds(now), msgs, rate,
                                total.Count(stats::Ev::kFaultIns),
                                total.Count(stats::Ev::kMigrations), note)
                     .c_str());
    lock.lock();
  }
}

void Coordinator::ShutdownMesh(bool abort) {
  HMDSM_CHECK(is_lead());
  transport_.BeginShutdown();
  const std::size_t others = transport_.process_count() - 1;
  {
    std::unique_lock lock(mu_);
    transport_.BroadcastControl(Encode(ShutdownFrame{abort}));
    // Dead processes can never ack; the barrier shrinks past them so a
    // partially-dead cluster still unwinds cleanly (re-evaluated under
    // mu_, so a death mid-wait lowers the bar immediately).
    WaitFor(lock,
            [&] { return shutdown_acks_ >= others - dead_procs_.size(); },
            "shutdown acks");
  }
  // Second phase: nobody closes a socket until everyone has acked, so a
  // teardown EOF can only land on a rank that already knows the run ended.
  transport_.BroadcastControl(Encode(ShutdownDoneFrame{}));
}

// ---------------------------------------------------------------------------
// Hosting side
// ---------------------------------------------------------------------------

bool Coordinator::AwaitStart(std::uint64_t seq) {
  std::unique_lock lock(mu_);
  // Unbounded: the lead reaches its Spawn at the workload's own pace. A
  // dead peer anywhere means the cluster is unwinding — after a grace for
  // an in-flight start, treat it as an abort (the body must not run).
  cv_.wait(lock, [&] {
    return started_.contains(seq) || abort_received_ || !dead_procs_.empty();
  });
  if (!started_.contains(seq) && !abort_received_ && !dead_procs_.empty()) {
    cv_.wait_for(lock, kPeerDeathGrace,
                 [&] { return started_.contains(seq) || abort_received_; });
  }
  return started_.contains(seq) && !abort_received_;
}

void Coordinator::NotifyThreadDone(std::uint64_t seq,
                                   const std::string& error,
                                   const Bytes& result) {
  HMDSM_CHECK(!is_lead());
  ThreadDoneFrame f;
  f.seq = seq;
  f.error = error;
  f.result = result;
  transport_.SendControl(lead_, Encode(f));
}

bool Coordinator::AwaitShutdown() {
  HMDSM_CHECK(!is_lead());
  std::unique_lock lock(mu_);
  // Unbounded: the end-of-run gate holds for the whole workload.
  cv_.wait(lock, [&] { return shutdown_received_; });
  return abort_received_;
}

void Coordinator::AckShutdown() {
  HMDSM_CHECK(!is_lead());
  transport_.SendControl(lead_, Encode(ShutdownAckFrame{}));
}

void Coordinator::AwaitShutdownDone() {
  HMDSM_CHECK(!is_lead());
  std::unique_lock lock(mu_);
  WaitFor(lock, [&] { return shutdown_done_; }, "shutdown-done");
}

}  // namespace hmdsm::netio
