#include "src/dsm/agent.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/dsm/diff.h"

namespace hmdsm::dsm {

using stats::Ev;
using stats::MsgCat;

Agent::Agent(NodeId node, net::Transport& transport, const DsmConfig& config,
             trace::Trace* trace)
    : node_(node),
      net_(transport),
      recorder_(transport.RecorderFor(node)),
      config_(config),
      trace_(trace),
      policy_(core::MakePolicy(config.policy, config.adaptive)) {
  net_.SetHandler(node_, [this](net::Packet&& p) {
    HandlePacket(std::move(p));
  });
}

// ---------------------------------------------------------------------------
// Messaging plumbing
// ---------------------------------------------------------------------------

void Agent::SendMsg(NodeId dst, MsgCat cat, Buf wire) {
  net_.Send(node_, dst, cat, std::move(wire));
}

void Agent::HandlePacket(net::Packet&& packet) {
  const NodeId src = packet.src;
  proto::AnyMsg msg = proto::Decode(packet.payload);
  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::ObjRequest>) {
          OnObjRequest(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ObjReply>) {
          OnObjReply(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::MigrateReply>) {
          OnMigrateReply(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::Redirect>) {
          OnRedirect(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::DiffMsg>) {
          OnDiff(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::DiffAck>) {
          OnDiffAck(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockAcquireMsg>) {
          OnLockAcquire(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockGrantMsg>) {
          OnLockGrant(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockReleaseMsg>) {
          OnLockRelease(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::BarrierArriveMsg>) {
          OnBarrierArrive(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::BarrierReleaseMsg>) {
          OnBarrierRelease(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::InitObjectMsg>) {
          OnInitObject(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::InitAckMsg>) {
          OnInitAck(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ManagerUpdateMsg>) {
          OnManagerUpdate(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ManagerLookupMsg>) {
          OnManagerLookup(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ManagerReplyMsg>) {
          OnManagerReply(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::HomeBroadcastMsg>) {
          OnHomeBroadcast(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::ChainUpdateMsg>) {
          OnChainUpdate(std::move(m));
        } else if constexpr (std::is_same_v<T, proto::SyncFenceMsg>) {
          OnSyncFence(src, std::move(m));
        } else if constexpr (std::is_same_v<T, proto::LockRecallMsg>) {
          OnLockRecall(std::move(m));
        }
      },
      std::move(msg));
}

// ---------------------------------------------------------------------------
// Object lifecycle
// ---------------------------------------------------------------------------

void Agent::CreateObject(runtime::Exec& proc, ObjectId obj, ByteSpan initial) {
  const NodeId home = obj.initial_home();
  HMDSM_CHECK_MSG(!homes_.contains(obj) && !cache_.contains(obj),
                  "object created twice");
  Emit(trace::What::kObjectCreated, obj.value, home,
       static_cast<std::int64_t>(initial.size()));
  if (home == node_) {
    HomeEntry entry;
    entry.data = ToBytes(initial);
    homes_.emplace(obj, std::move(entry));
    return;
  }
  // Ship the initial data to the remote home and wait for the installation
  // ack so the object is globally usable when CreateObject returns.
  const std::uint64_t tag = next_ack_tag_++;
  pending_acks_[tag].remaining = 1;
  SendMsg(home, MsgCat::kInit,
          proto::Encode(proto::InitObjectMsg{obj, ToBytes(initial), tag}));
  auto& aw = pending_acks_[tag];
  if (aw.remaining > 0) aw.waiter.Wait(proc);
  pending_acks_.erase(tag);
}

void Agent::OnInitObject(NodeId src, proto::InitObjectMsg msg) {
  HMDSM_CHECK_MSG(!homes_.contains(msg.obj), "init for already-homed object");
  HomeEntry entry;
  entry.data = std::move(msg.data);
  homes_.emplace(msg.obj, std::move(entry));
  SendMsg(src, MsgCat::kInit, proto::Encode(proto::InitAckMsg{msg.ack_tag}));
}

void Agent::OnInitAck(proto::InitAckMsg msg) {
  auto it = pending_acks_.find(msg.ack_tag);
  HMDSM_CHECK_MSG(it != pending_acks_.end(), "stray init ack");
  HMDSM_CHECK(it->second.remaining > 0);
  if (--it->second.remaining == 0 && !it->second.waiter.empty())
    it->second.waiter.NotifyOne();
}

// ---------------------------------------------------------------------------
// Shared-memory access
// ---------------------------------------------------------------------------

void Agent::Read(runtime::Exec& proc, ObjectId obj,
                 const std::function<void(ByteSpan)>& fn) {
  bool faulted = false;
  for (;;) {
    if (auto it = homes_.find(obj); it != homes_.end()) {
      TrapHomeRead(it->second);
      recorder_.Bump(Ev::kHomeAccesses);
      RecordFirstHomeAccess(it->second);
      fn(it->second.data);
      return;
    }
    if (auto it = cache_.find(obj); it != cache_.end()) {
      if (!faulted) recorder_.Bump(Ev::kLocalHits);
      fn(it->second.data);
      if (config_.write_through) {
        // SC emulation: copies are never retained, so the next access
        // fetches the home's latest state again.
        HMDSM_CHECK(!it->second.dirty);
        cache_.erase(it);
      }
      return;
    }
    EnsureValidCopy(proc, obj, /*for_write=*/false);
    faulted = true;
  }
}

void Agent::Write(runtime::Exec& proc, ObjectId obj,
                  const std::function<void(MutByteSpan)>& fn) {
  bool faulted = false;
  for (;;) {
    if (auto it = homes_.find(obj); it != homes_.end()) {
      TrapHomeWrite(it->second);
      recorder_.Bump(Ev::kHomeAccesses);
      RecordFirstHomeAccess(it->second);
      fn(it->second.data);
      return;
    }
    if (auto it = cache_.find(obj); it != cache_.end()) {
      CacheEntry& ce = it->second;
      if (!ce.dirty) {
        // First write in this interval: snapshot the twin (paper §3.1).
        ce.twin = ce.data;
        ce.dirty = true;
        recorder_.Bump(Ev::kTwinsCreated);
      }
      if (!faulted) recorder_.Bump(Ev::kLocalHits);
      fn(ce.data);
      if (config_.write_through) {
        // SC emulation: the write is propagated to (and acknowledged by)
        // the home before the writer proceeds, then the copy is dropped.
        FlushDirty(proc, kNoNode);
        cache_.erase(obj);
      }
      return;
    }
    EnsureValidCopy(proc, obj, /*for_write=*/true);
    faulted = true;
  }
}

void Agent::EnsureValidCopy(runtime::Exec& proc, ObjectId obj, bool for_write) {
  recorder_.Bump(Ev::kFaultIns);
  PendingFetch& pf = pending_fetch_[obj];
  pf.for_write |= for_write;
  if (!pf.request_in_flight) {
    pf.request_in_flight = true;
    pf.hops = 0;
    pf.started_at = net_.Now();
    SendFetchRequest(obj, HintedHome(obj));
  }
  pf.waiters.Wait(proc);
  // The caller re-checks home/cache (the copy may have been migrated away
  // again by a racing foreign request before this process resumed).
}

void Agent::SendFetchRequest(ObjectId obj, NodeId target) {
  HMDSM_CHECK_MSG(target != node_,
                  "fetch request aimed at self — hint corruption");
  const PendingFetch& pf = pending_fetch_.at(obj);
  Emit(trace::What::kFaultIn, obj.value, target, pf.hops);
  SendMsg(target, MsgCat::kObj,
          proto::Encode(proto::ObjRequest{obj, pf.hops, pf.for_write}));
}

NodeId Agent::HintedHome(ObjectId obj) const {
  if (homes_.contains(obj)) return node_;
  if (auto it = hints_.find(obj); it != hints_.end()) return it->second;
  return obj.initial_home();
}

// ---------------------------------------------------------------------------
// Home-side request service & migration
// ---------------------------------------------------------------------------

void Agent::OnObjRequest(NodeId src, proto::ObjRequest msg) {
  if (homes_.contains(msg.obj)) {
    ServeAtHome(src, msg);
    return;
  }
  if (auto fwd = forwards_.find(msg.obj); fwd != forwards_.end()) {
    // Obsolete home: redirect (forwarding-pointer reply, or point at the
    // manager under the home-manager mechanism).
    Emit(trace::What::kRedirected, msg.obj.value, src, fwd->second.to);
    if (config_.notify == NotifyMechanism::kHomeManager) {
      SendMsg(src, MsgCat::kRedir,
              proto::Encode(proto::Redirect{msg.obj, kNoNode, true}));
    } else {
      SendMsg(src, MsgCat::kRedir,
              proto::Encode(proto::Redirect{msg.obj, fwd->second.to, false}));
    }
    return;
  }
  if (auto it = pending_fetch_.find(msg.obj);
      it != pending_fetch_.end() && it->second.request_in_flight) {
    // We are about to become this object's home (migration reply in
    // flight); serve the foreign request after installation.
    it->second.foreign.emplace_back(src, msg);
    return;
  }
  HMDSM_CHECK_MSG(false, "request for object unknown at node " << node_);
}

void Agent::ServeAtHome(NodeId requester, const proto::ObjRequest& msg) {
  auto it = homes_.find(msg.obj);
  HMDSM_CHECK(it != homes_.end());
  HomeEntry& entry = it->second;
  auto& rec = recorder_;

  // Feedback first: redirections suffered by this request count against
  // migration (paper's R with redirection accumulation).
  if (msg.hops > 0) {
    entry.pol.RecordRedirectHops(msg.hops);
    rec.Bump(Ev::kRedirectHops, msg.hops);
  }
  rec.Bump(Ev::kRemoteReads);

  const bool migrate = policy_->ShouldMigrate(entry.pol, requester,
                                              entry.data.size(),
                                              msg.for_write);
  if (!migrate) rec.Bump(Ev::kMigRejections);
  // The audit record captures the exact state ShouldMigrate saw, so it is
  // built here — before RecordRequester/OnMigrated mutate the counters.
  const double threshold =
      policy_->LiveThreshold(entry.pol, entry.data.size());
  stats::Decision d;
  d.obj = msg.obj.value;
  d.epoch = entry.pol.epoch;
  d.home = node_;
  d.requester = requester;
  d.consecutive_writes = entry.pol.consecutive_remote_writes;
  d.consecutive_writer = entry.pol.consecutive_writer;
  d.redirects = entry.pol.redirected_requests;
  d.exclusive_home_writes = entry.pol.exclusive_home_writes;
  d.piggyback_switches = entry.pol.piggyback_switches;
  d.threshold = threshold;
  d.object_bytes = entry.data.size();
  d.for_write = msg.for_write;
  d.migrate = migrate;
  d.destination = migrate ? requester : node_;
  d.at_ns = net_.Now();
  rec.RecordDecision(d);
  // Trace value: live threshold ×1000, negated for "stay" verdicts
  // (clamped — NoHM reports an infinite threshold).
  const std::int64_t scaled =
      std::isfinite(threshold)
          ? static_cast<std::int64_t>(threshold * 1000)
          : std::numeric_limits<std::int64_t>::max();
  Emit(trace::What::kDecision, msg.obj.value, requester,
       migrate ? scaled : -scaled);
  // Sharing bookkeeping happens after the decision: "was the requester the
  // sole sharer so far" must not include the request being decided.
  entry.pol.RecordRequester(requester);
  Emit(trace::What::kServeRequest, msg.obj.value, requester, msg.hops);
  if (!migrate) {
    SendMsg(requester, MsgCat::kObj,
            proto::Encode(
                proto::ObjReply{msg.obj, entry.data, entry.pol.epoch}));
    return;
  }

  // Home migration: the reply carries the data plus the policy state; we
  // keep a forwarding pointer and notify per the configured mechanism.
  Emit(trace::What::kMigrated, msg.obj.value, requester,
       static_cast<std::int64_t>(
           policy_->LiveThreshold(entry.pol, entry.data.size()) * 1000));
  policy_->OnMigrated(entry.pol, entry.data.size());
  const std::uint32_t new_epoch = entry.pol.epoch;
  rec.Bump(Ev::kMigrations);
  SendMsg(requester, MsgCat::kMig,
          proto::Encode(
              proto::MigrateReply{msg.obj, std::move(entry.data), entry.pol}));
  homes_.erase(it);
  forwards_[msg.obj] = Forward{requester, new_epoch};
  hints_[msg.obj] = requester;

  switch (config_.notify) {
    case NotifyMechanism::kForwardingPointer:
      break;  // the pointer itself is the mechanism
    case NotifyMechanism::kHomeManager:
      SendMsg(ManagerOf(msg.obj), MsgCat::kNotify,
              proto::Encode(proto::ManagerUpdateMsg{msg.obj, requester}));
      break;
    case NotifyMechanism::kBroadcast:
      net_.Broadcast(
          node_, MsgCat::kNotify,
          proto::Encode(proto::HomeBroadcastMsg{msg.obj, requester}));
      break;
  }
}

void Agent::OnObjReply(NodeId src, proto::ObjReply msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited object reply");
  PendingFetch pf = std::move(it->second);
  pending_fetch_.erase(it);
  HMDSM_CHECK_MSG(pf.foreign.empty() && pf.foreign_diffs.empty(),
                  "foreign traffic queued on a non-migrating fetch");
  recorder_.RecordRtt(MsgCat::kObj,
                      static_cast<std::uint64_t>(net_.Now() - pf.started_at));
  MaybeCompressChain(pf, msg.obj, src, msg.home_epoch);
  hints_[msg.obj] = src;
  CacheEntry ce;
  ce.data = std::move(msg.data);
  cache_[msg.obj] = std::move(ce);
  ++cache_changes_;
  pf.waiters.NotifyAll();
}

void Agent::OnMigrateReply(NodeId, proto::MigrateReply msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited migrate reply");
  PendingFetch pf = std::move(it->second);
  pending_fetch_.erase(it);
  recorder_.RecordRtt(MsgCat::kMig,
                      static_cast<std::uint64_t>(net_.Now() - pf.started_at));
  // We are the home now; our installed epoch is the chain's newest.
  MaybeCompressChain(pf, msg.obj, node_, msg.policy_state.epoch);

  if (auto c = cache_.find(msg.obj); c != cache_.end()) {
    HMDSM_CHECK_MSG(!c->second.dirty, "migration would clobber dirty cache");
    cache_.erase(c);
  }
  HomeEntry entry;
  entry.data = std::move(msg.data);
  entry.pol = msg.policy_state;
  entry.installed_at = net_.Now();
  homes_.insert_or_assign(msg.obj, std::move(entry));
  hints_[msg.obj] = node_;
  forwards_.erase(msg.obj);  // we may have been on this object's chain before
  Emit(trace::What::kHomeInstalled, msg.obj.value);
  // A migration landing here after a phase marker is the protocol
  // re-homing toward the new access pattern: close the adaptation clock.
  if (phase_pending_) {
    recorder_.RecordLatency(
        stats::Lat::kAdaptation,
        static_cast<std::uint64_t>(net_.Now() - phase_marker_at_));
    phase_pending_ = false;
  }

  // Serve anything that raced the migration: diffs first, then requests.
  for (proto::DiffMsg& dm : pf.foreign_diffs) {
    auto home_it = homes_.find(msg.obj);
    HMDSM_CHECK(home_it != homes_.end());
    ApplyDiffAtHome(home_it->second, msg.obj, dm.writer, dm.diff);
    if (dm.ack_required) {
      SendMsg(dm.ack_to, MsgCat::kDiff,
              proto::Encode(proto::DiffAck{dm.ack_tag}));
    }
  }
  for (auto& [src, req] : pf.foreign) {
    if (homes_.contains(msg.obj)) {
      ServeAtHome(src, req);
    } else {
      // A previous foreign request already migrated the home away again.
      SendMsg(src, MsgCat::kRedir,
              proto::Encode(proto::Redirect{
                  msg.obj, forwards_.at(msg.obj).to,
                  config_.notify == NotifyMechanism::kHomeManager}));
    }
  }
  pf.waiters.NotifyAll();
}

void Agent::OnRedirect(NodeId src, proto::Redirect msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited redirect");
  PendingFetch& pf = it->second;
  ++pf.hops;
  if (pf.first_redirector == kNoNode) pf.first_redirector = src;
  HMDSM_CHECK_MSG(pf.hops < config_.max_redirect_hops,
                  "redirect chain exceeded " << config_.max_redirect_hops
                                             << " hops");
  if (msg.ask_manager) {
    SendMsg(ManagerOf(msg.obj), MsgCat::kRedir,
            proto::Encode(proto::ManagerLookupMsg{msg.obj}));
    return;
  }
  hints_[msg.obj] = msg.new_home;
  SendFetchRequest(msg.obj, msg.new_home);
}

void Agent::OnManagerUpdate(proto::ManagerUpdateMsg msg) {
  manager_locations_[msg.obj] = msg.home;
}

void Agent::OnManagerLookup(NodeId src, proto::ManagerLookupMsg msg) {
  NodeId home;
  if (auto it = manager_locations_.find(msg.obj);
      it != manager_locations_.end()) {
    home = it->second;
  } else if (homes_.contains(msg.obj)) {
    home = node_;
  } else {
    home = msg.obj.initial_home();
  }
  SendMsg(src, MsgCat::kRedir,
          proto::Encode(proto::ManagerReplyMsg{msg.obj, home}));
}

void Agent::OnManagerReply(proto::ManagerReplyMsg msg) {
  auto it = pending_fetch_.find(msg.obj);
  HMDSM_CHECK_MSG(it != pending_fetch_.end(), "unsolicited manager reply");
  PendingFetch& pf = it->second;
  ++pf.hops;  // the manager leg counts toward redirection accumulation
  HMDSM_CHECK(pf.hops < config_.max_redirect_hops);
  hints_[msg.obj] = msg.home;
  SendFetchRequest(msg.obj, msg.home);
}

void Agent::OnHomeBroadcast(proto::HomeBroadcastMsg msg) {
  if (homes_.contains(msg.obj)) return;  // we already are the home
  if (msg.home == node_) return;         // stale broadcast about ourselves
  hints_[msg.obj] = msg.home;
}

void Agent::MaybeCompressChain(const PendingFetch& pf, ObjectId obj,
                               NodeId home, std::uint32_t home_epoch) {
  if (!config_.compress_chains) return;
  if (pf.hops < 2 || pf.first_redirector == kNoNode) return;
  if (pf.first_redirector == home) return;
  SendMsg(pf.first_redirector, MsgCat::kNotify,
          proto::Encode(proto::ChainUpdateMsg{obj, home, home_epoch}));
}

void Agent::OnChainUpdate(proto::ChainUpdateMsg msg) {
  if (homes_.contains(msg.obj)) return;  // the home came back to us since
  if (msg.home == node_) return;
  // Only shorten an existing forwarding pointer, and only forward in
  // migration-epoch order — a stale update must never point a chain
  // backward (that could create a redirect cycle).
  if (auto it = forwards_.find(msg.obj); it != forwards_.end()) {
    if (msg.home_epoch > it->second.epoch)
      it->second = Forward{msg.home, msg.home_epoch};
  }
  hints_[msg.obj] = msg.home;
}

// ---------------------------------------------------------------------------
// Diff propagation
// ---------------------------------------------------------------------------

void Agent::OnDiff(NodeId /*src*/, proto::DiffMsg msg) {
  const NodeId writer = msg.writer;
  if (auto it = homes_.find(msg.obj); it != homes_.end()) {
    ApplyDiffAtHome(it->second, msg.obj, writer, msg.diff);
    if (msg.ack_required) {
      SendMsg(msg.ack_to, MsgCat::kDiff,
              proto::Encode(proto::DiffAck{msg.ack_tag}));
    }
    return;
  }
  if (forwards_.contains(msg.obj)) {
    ForwardDiff(writer, std::move(msg));
    return;
  }
  if (auto it = pending_fetch_.find(msg.obj);
      it != pending_fetch_.end() && it->second.request_in_flight) {
    // We are about to install this object's home; hold the diff. The ack
    // (if any) is sent on installation.
    it->second.foreign_diffs.push_back(std::move(msg));
    return;
  }
  HMDSM_CHECK_MSG(false, "diff for object unknown at node " << node_);
}

void Agent::ApplyPiggybacked(NodeId src,
                             std::vector<std::pair<ObjectId, Bytes>>& diffs) {
  std::uint64_t tag = 0;
  for (auto& [obj, diff] : diffs) {
    recorder_.Bump(Ev::kPiggybackedDiffs);
    if (auto it = homes_.find(obj); it != homes_.end()) {
      ApplyDiffAtHome(it->second, obj, src, diff);
      it->second.pol.RecordPiggyback(src, node_);
    } else if (forwards_.contains(obj)) {
      // The object's home moved after the sender chose to piggyback;
      // forward as a standalone diff, acknowledged back to us.
      if (tag == 0) tag = next_ack_tag_++;
      ++pending_acks_[tag].remaining;
      ForwardDiff(src,
                  proto::DiffMsg{obj, std::move(diff), tag, true, src, node_});
    } else {
      HMDSM_CHECK_MSG(false, "piggybacked diff for unknown object");
    }
  }
  if (tag == 0) return;
  forwards_in_flight_.insert(tag);
  pending_acks_[tag].then = [this, tag] {
    forwards_in_flight_.erase(tag);
    SendLandedReplies();
  };
}

void Agent::SendLandedReplies() {
  while (!after_forwards_.empty() &&
         (forwards_in_flight_.empty() ||
          *forwards_in_flight_.begin() >= after_forwards_.front().first)) {
    std::function<void()> send = std::move(after_forwards_.front().second);
    after_forwards_.pop_front();
    send();
  }
}

void Agent::ForwardDiff(NodeId writer, proto::DiffMsg&& msg) {
  const NodeId target = forwards_.at(msg.obj).to;
  proto::DiffMsg fwd = std::move(msg);
  fwd.writer = writer;
  SendMsg(target, MsgCat::kDiff, proto::Encode(fwd));
}

void Agent::ApplyDiffAtHome(HomeEntry& entry, ObjectId obj, NodeId writer,
                            ByteSpan diff) {
  Diff::Apply(diff, entry.data);
  const std::size_t payload = Diff::PayloadBytes(diff);
  Emit(trace::What::kDiffApplied, obj.value, writer,
       static_cast<std::int64_t>(payload));
  entry.pol.RecordRemoteWrite(writer);
  entry.pol.RecordEpochWrite(writer, barrier_epoch_);
  entry.pol.RecordDiffSize(payload);
  auto& rec = recorder_;
  rec.Bump(Ev::kDiffsApplied);
  rec.Bump(Ev::kRemoteWrites);
  rec.Bump(Ev::kDiffBytes, payload);
}

void Agent::OnDiffAck(proto::DiffAck msg) {
  auto it = pending_acks_.find(msg.ack_tag);
  HMDSM_CHECK_MSG(it != pending_acks_.end(), "stray diff ack");
  HMDSM_CHECK(it->second.remaining > 0);
  if (--it->second.remaining > 0) return;
  std::function<void()> then = std::move(it->second.then);
  pending_acks_.erase(it);
  then();
}

// ---------------------------------------------------------------------------
// Synchronization: locks
// ---------------------------------------------------------------------------

void Agent::Acquire(runtime::Exec& proc, LockId lock) {
  recorder_.Bump(Ev::kLockAcquires);
  const NodeId manager = lock.manager();
  LockWait& lw = lock_waiters_[lock];
  // A lock that stayed here since its last release is taken without a
  // message, but as an acquire all the same: what would have ridden the
  // acquire to the manager goes standalone and is acknowledged, and the
  // fence orders earlier releases elsewhere before a later recall.
  const bool kept = lw.token && !lw.busy;
  if (kept) {
    lw.busy = true;
    recorder_.Bump(Ev::kLockLocalAcquires);
  }
  FenceBefore(proc, manager);
  // Acquiring is a synchronization point: dirty objects written outside
  // this lock's scope are flushed now (their diffs ride the acquire message
  // when homed at the manager). This is what makes an empty synchronized
  // block a flush point — the paper's synthetic benchmark depends on it.
  auto piggy = FlushDirty(proc, kept ? kNoNode : manager);
  if (!kept) {
    const std::uint64_t mark = FenceMark(manager);
    lw.sent_at.push_back(cache_changes_);
    SendMsg(manager, MsgCat::kSync,
            proto::Encode(proto::LockAcquireMsg{lock, std::move(piggy)}));
    lw.waiters.Wait(proc);
    FencedBy(manager, mark);
  }
  // Acquire semantics (Java memory model / LRC): start a fresh interval and
  // drop cached copies so writes flushed to homes become visible. The
  // copies the grant carried are already that fresh.
  FlushWrittenMeanwhile(proc);
  BumpInterval();
  InvalidateCache(&lock);
}

void Agent::MarkPhase() {
  phase_marker_at_ = net_.Now();
  phase_pending_ = true;
  Emit(trace::What::kPhaseMark, 0);
}

void Agent::Release(runtime::Exec& proc, LockId lock) {
  const NodeId manager = lock.manager();
  FenceBefore(proc, manager);
  auto piggy = FlushDirty(proc, manager);
  BumpInterval();
  LockWait& lw = lock_waiters_[lock];
  lw.busy = false;
  // Every diff owed elsewhere is acknowledged by now, so a kept lock whose
  // release publishes nothing at the manager stays here, unless it was
  // recalled or another thread of this node is waiting for the manager.
  if (lw.token && piggy.empty() && lw.sent_at.empty()) return;
  lw.token = false;
  // Nothing acknowledges these diffs; the next sync through another
  // manager fences this one first.
  if (!piggy.empty()) ++fences_[manager].released;
  SendMsg(manager, MsgCat::kSync,
          proto::Encode(proto::LockReleaseMsg{lock, std::move(piggy)}));
}

void Agent::OnLockAcquire(NodeId src, proto::LockAcquireMsg msg) {
  ApplyPiggybacked(src, msg.piggybacked_diffs);
  LockState& ls = managed_locks_[msg.lock];
  for (const auto& piggy : msg.piggybacked_diffs)
    ls.guarded.insert(piggy.first);
  if (ls.holder == kNoNode) {
    ls.holder = src;
    SendGrant(msg.lock, src, /*handoff=*/false);
  } else {
    ls.queue.push_back(src);
    if (ls.cached) {
      // The holder may be keeping the lock; it left with the grant, so the
      // recall cannot overtake it. One recall is enough.
      ls.cached = false;
      recorder_.Bump(Ev::kLockRecalls);
      SendMsg(ls.holder, MsgCat::kSync,
              proto::Encode(proto::LockRecallMsg{msg.lock}));
    }
  }
}

void Agent::SendGrant(LockId lock, NodeId to, bool handoff) {
  // Only a handoff ships data: there the next holder's fault-in would sit
  // on the lock's serialized path. The manager itself homes every copy.
  // The copies are taken as the grant leaves, after any held forwards.
  const bool ship = handoff && to != node_ && !config_.write_through;
  WhenForwardsLand([this, lock, to, ship] {
    LockState& ls = managed_locks_[lock];
    std::erase_if(ls.guarded,
                  [this](ObjectId obj) { return !homes_.contains(obj); });
    proto::LockGrantMsg grant{lock, {}};
    if (ship) {
      std::size_t bytes = 0;
      for (ObjectId obj : ls.guarded) {
        const Bytes& data = homes_.at(obj).data;
        if (bytes + data.size() <= proto::kMaxGrantCopyBytes) {
          bytes += data.size();
          grant.copies.emplace_back(obj, data);
        }
      }
    }
    // Decided as the grant leaves: an acquire queued before then makes it
    // uncacheable, one queued after it sends a recall behind it.
    grant.cacheable = to != node_ && ls.queue.empty() && ls.guarded.empty() &&
                      !config_.write_through;
    ls.cached = grant.cacheable;
    Emit(trace::What::kLockGranted, lock.value, to,
         static_cast<std::int64_t>(grant.copies.size()));
    SendMsg(to, MsgCat::kSync, proto::Encode(grant));
  });
}

void Agent::OnLockGrant(proto::LockGrantMsg msg) {
  auto it = lock_waiters_.find(msg.lock);
  HMDSM_CHECK_MSG(it != lock_waiters_.end() && !it->second.waiters.empty(),
                  "lock grant with no local waiter");
  LockWait& lw = it->second;
  const std::uint64_t sent_at = lw.sent_at.front();
  lw.sent_at.pop_front();
  // Install the carried copies as the new holder's cache, unless some
  // entry took newer contents (another thread's flush or fetch) since the
  // request left: the copies may predate it. A copy never replaces a home,
  // a fetch in flight (it may be a migration) or a dirty copy.
  if (!msg.copies.empty() && cache_changes_ == sent_at) {
    const NodeId manager = msg.lock.manager();
    for (auto& [obj, data] : msg.copies) {
      if (homes_.contains(obj) || pending_fetch_.contains(obj)) continue;
      CacheEntry& ce = cache_[obj];
      if (ce.dirty) continue;
      ce.data = std::move(data);
      ce.granted = msg.lock;
      hints_[obj] = manager;
      recorder_.Bump(Ev::kGrantCopies);
    }
    ++cache_changes_;
  }
  HMDSM_CHECK_MSG(!lw.token && !lw.busy, "lock granted to its holder");
  lw.token = msg.cacheable;
  lw.busy = true;
  lw.waiters.NotifyOne();
}

void Agent::OnLockRelease(NodeId src, proto::LockReleaseMsg msg) {
  // Apply piggybacked diffs before the handoff so the next holder gets
  // up-to-date data (the manager is the home of these objects).
  ApplyPiggybacked(src, msg.piggybacked_diffs);
  LockState& ls = managed_locks_[msg.lock];
  for (const auto& piggy : msg.piggybacked_diffs)
    ls.guarded.insert(piggy.first);
  HMDSM_CHECK_MSG(ls.holder == src, "release from non-holder");
  ls.cached = false;
  if (ls.queue.empty()) {
    ls.holder = kNoNode;
  } else {
    ls.holder = ls.queue.front();
    ls.queue.pop_front();
    recorder_.Bump(Ev::kLockHandoffs);
    SendGrant(msg.lock, ls.holder, /*handoff=*/true);
  }
}

void Agent::OnLockRecall(proto::LockRecallMsg msg) {
  LockWait& lw = lock_waiters_[msg.lock];
  if (!lw.token) return;  // already on its way back: the recall crossed it
  lw.token = false;
  if (lw.busy) return;  // Release sends it back
  // Kept and idle: its last release already fenced and flushed.
  SendMsg(msg.lock.manager(), MsgCat::kSync,
          proto::Encode(proto::LockReleaseMsg{msg.lock, {}}));
}

void Agent::OnSyncFence(NodeId src, proto::SyncFenceMsg msg) {
  // The link is FIFO, so the sender's earlier releases are applied here or
  // forwarded; answer once the forwarded ones are acknowledged too.
  WhenForwardsLand([this, src, tag = msg.ack_tag] {
    SendMsg(src, MsgCat::kSync, proto::Encode(proto::DiffAck{tag}));
  });
}

void Agent::FenceBefore(runtime::Exec& proc, NodeId manager) {
  // What is owed is fixed now: releases sent while this caller waits are
  // their own senders' concern.
  std::vector<std::pair<NodeId, std::uint64_t>> owed;
  for (const auto& [m, fs] : fences_)
    if (m != manager && fs.fenced < fs.released)
      owed.emplace_back(m, fs.released);
  for (const auto& [m, upto] : owed) Fence(proc, m, upto);
}

void Agent::Fence(runtime::Exec& proc, NodeId manager, std::uint64_t upto) {
  for (;;) {
    FenceState& fs = fences_.at(manager);
    if (fs.fenced >= upto) return;
    if (fs.in_flight == 0) {
      // Covers every release sent to `manager` so far: the link is FIFO.
      fs.in_flight = fs.released;
      const std::uint64_t tag = next_ack_tag_++;
      AckWait& aw = pending_acks_[tag];
      aw.remaining = 1;
      aw.then = [this, manager] {
        FenceState& done = fences_.at(manager);
        done.fenced = std::max(done.fenced, done.in_flight);
        done.in_flight = 0;
        done.waiters.NotifyAll();
      };
      SendMsg(manager, MsgCat::kSync, proto::Encode(proto::SyncFenceMsg{tag}));
    }
    fs.waiters.Wait(proc);
  }
}

// ---------------------------------------------------------------------------
// Synchronization: barriers
// ---------------------------------------------------------------------------

void Agent::Barrier(runtime::Exec& proc, BarrierId barrier,
                    std::uint32_t expected) {
  recorder_.Bump(Ev::kBarrierWaits);
  const NodeId manager = barrier.manager();
  FenceBefore(proc, manager);
  auto piggy = FlushDirty(proc, manager);
  BumpInterval();
  const std::uint64_t mark = FenceMark(manager);
  SendMsg(manager, MsgCat::kSync,
          proto::Encode(
              proto::BarrierArriveMsg{barrier, expected, std::move(piggy)}));
  barrier_waiters_[barrier].Wait(proc);
  FencedBy(manager, mark);
  // Departure has acquire semantics.
  FlushWrittenMeanwhile(proc);
  BumpInterval();
  InvalidateCache();
}

void Agent::OnBarrierArrive(NodeId src, proto::BarrierArriveMsg msg) {
  ApplyPiggybacked(src, msg.piggybacked_diffs);
  BarrierState& bs = managed_barriers_[msg.barrier];
  if (bs.expected == 0) bs.expected = msg.expected;
  HMDSM_CHECK_MSG(bs.expected == msg.expected,
                  "barrier participant-count mismatch");
  bs.arrivals.push_back(src);
  if (bs.arrivals.size() < bs.expected) return;
  WhenForwardsLand([this, barrier = msg.barrier,
                    arrivals = std::move(bs.arrivals)] {
    Emit(trace::What::kBarrierDone, barrier.value, kNoNode,
         static_cast<std::int64_t>(arrivals.size()));
    for (NodeId dst : arrivals) {
      SendMsg(dst, MsgCat::kSync,
              proto::Encode(proto::BarrierReleaseMsg{barrier}));
    }
  });
  managed_barriers_.erase(msg.barrier);
}

void Agent::OnBarrierRelease(proto::BarrierReleaseMsg msg) {
  auto it = barrier_waiters_.find(msg.barrier);
  HMDSM_CHECK_MSG(it != barrier_waiters_.end() && !it->second.empty(),
                  "barrier release with no local waiter");
  // Advance the local barrier-epoch clock (Jidia-style single-writer
  // detection is scoped to "between two barriers").
  ++barrier_epoch_;
  it->second.NotifyOne();
}

// ---------------------------------------------------------------------------
// Release semantics
// ---------------------------------------------------------------------------

std::vector<std::pair<ObjectId, Bytes>> Agent::FlushDirty(
    runtime::Exec& proc, NodeId sync_manager) {
  std::vector<std::pair<ObjectId, Bytes>> piggy;
  auto& rec = recorder_;
  const std::uint64_t tag = next_ack_tag_;
  std::uint32_t standalone = 0;

  for (auto& [obj, ce] : cache_) {
    if (!ce.dirty) continue;
    ++cache_changes_;
    Bytes diff = Diff::Encode(ce.twin, ce.data);
    ce.dirty = false;
    ce.twin.clear();
    ce.twin.shrink_to_fit();
    if (Diff::IsEmpty(diff)) continue;  // silent write (same values)
    rec.Bump(Ev::kDiffsCreated);
    const NodeId home = HintedHome(obj);
    HMDSM_CHECK_MSG(home != node_, "dirty cache entry for home object");
    if (home == sync_manager) {
      piggy.emplace_back(obj, std::move(diff));
    } else {
      ++standalone;
      Emit(trace::What::kDiffSent, obj.value, home,
           static_cast<std::int64_t>(diff.size()));
      SendMsg(home, MsgCat::kDiff,
              proto::Encode(proto::DiffMsg{obj, std::move(diff), tag, true,
                                       node_, node_}));
    }
  }

  if (standalone > 0) {
    ++next_ack_tag_;
    AckWait& aw = pending_acks_[tag];
    aw.remaining = standalone;
    aw.then = [this, tag] {
      flushes_in_flight_.erase(tag);
      flush_landed_.NotifyAll();
    };
    flushes_in_flight_.insert(tag);
  }
  // The release completes only once every standalone diff is applied (and
  // acknowledged); otherwise the next lock holder could fault in a copy
  // that misses these writes. Some of the caller's writes may have left in
  // another thread's earlier flush, so that one must land too.
  const std::uint64_t upto = next_ack_tag_;
  while (!flushes_in_flight_.empty() && *flushes_in_flight_.begin() < upto)
    flush_landed_.Wait(proc);
  return piggy;
}

void Agent::FlushWrittenMeanwhile(runtime::Exec& proc) {
  // Other threads of this node may have written while the caller waited.
  // Their copies hold their own bytes over an older base, so none may
  // survive the invalidation; publishing those writes early is allowed.
  // Each flush can wait for acks, and they may write again meanwhile.
  while (std::ranges::any_of(cache_, [](const auto& kv) {
    return kv.second.dirty;
  }))
    FlushDirty(proc, kNoNode);
}

void Agent::InvalidateCache(const LockId* acquired) {
  bool keep = false;
  for (auto& [obj, ce] : cache_) {
    HMDSM_CHECK_MSG(!ce.dirty, "invalidating a dirty copy — missing flush");
    keep |= acquired != nullptr && ce.granted == *acquired;
  }
  if (!keep) {
    cache_.clear();
    return;
  }
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.granted == *acquired) {
      it->second.granted.reset();
      ++it;
    } else {
      it = cache_.erase(it);
    }
  }
}

// ---------------------------------------------------------------------------
// Home access traps
// ---------------------------------------------------------------------------

void Agent::TrapHomeRead(HomeEntry& entry) {
  if (entry.read_trap_interval == interval_seq_) return;
  entry.read_trap_interval = interval_seq_;
  recorder_.Bump(Ev::kHomeReads);
}

void Agent::TrapHomeWrite(HomeEntry& entry) {
  if (entry.write_trap_interval == interval_seq_) return;
  entry.write_trap_interval = interval_seq_;
  recorder_.Bump(Ev::kHomeWrites);
  if (entry.pol.RecordHomeWrite())
    recorder_.Bump(Ev::kExclusiveHomeWrites);
  // A home write disqualifies the epoch from single-remote-writer status.
  entry.pol.RecordEpochWrite(kNoNode, barrier_epoch_);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

const core::ObjPolicyState& Agent::HomeState(ObjectId obj) const {
  auto it = homes_.find(obj);
  HMDSM_CHECK_MSG(it != homes_.end(), "HomeState: node is not the home");
  return it->second.pol;
}

double Agent::HomeLiveThreshold(ObjectId obj) const {
  auto it = homes_.find(obj);
  HMDSM_CHECK_MSG(it != homes_.end(), "threshold: node is not the home");
  return policy_->LiveThreshold(it->second.pol, it->second.data.size());
}

ByteSpan Agent::PeekHomeData(ObjectId obj) const {
  auto it = homes_.find(obj);
  HMDSM_CHECK_MSG(it != homes_.end(), "PeekHomeData: node is not the home");
  return it->second.data;
}

std::optional<NodeId> Agent::ForwardTarget(ObjectId obj) const {
  if (auto it = forwards_.find(obj); it != forwards_.end())
    return it->second.to;
  return std::nullopt;
}

}  // namespace hmdsm::dsm
