// The per-node DSM protocol engine.
//
// One Agent runs on every cluster node. It owns the node's home table,
// object cache, forwarding pointers, home hints, the manager side of locks
// and barriers, and the pending tables that park/unpark application
// contexts. All message handlers run in delivery context (kernel callback
// on the simulator, dispatcher thread under the node agent lock on the
// threads backend) and never block; the blocking API
// (Read/Write/Acquire/Release/Barrier) is only callable from application
// contexts (simulated processes or runtime guests).
//
// The Agent is backend-agnostic: it talks to the cluster through the
// net::Transport seam and blocks callers through the runtime::Exec seam,
// so the identical protocol code runs under the deterministic simulator
// and on real hardware threads.
//
// Coherence model (the paper's GOS flavor of LRC / the Java memory model):
//  * acquire semantics  — all non-home cached copies are invalidated;
//  * release semantics  — every dirty cached object is diffed against its
//    twin and the diff is propagated to its home; the release completes
//    only after standalone diffs are acknowledged (so a subsequent lock
//    holder can never fault in a stale copy). Diffs homed at the sync
//    manager ride the sync message instead; before synchronizing through
//    a different manager, the node fences the ones they rode to, so no third
//    node can learn of the release ahead of its diffs;
//  * lock handoffs carry data — a contended grant ships the current copy
//    of the manager-homed objects the lock guards, and the new holder's
//    acquire keeps those copies instead of faulting them in again;
//  * uncontended locks stay with their holder — a cacheable grant lets a
//    release that carries no diffs keep the lock without a message, and
//    the manager recalls it only when another acquire arrives. Taking a
//    kept lock again still fences, flushes and invalidates as an acquire;
//  * home copies are always valid; the first home read and first home
//    write per synchronization interval are trapped and recorded — these
//    feed the migration policy exactly as in the paper (Section 3.3).
#pragma once

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/policy.h"
#include "src/dsm/config.h"
#include "src/dsm/types.h"
#include "src/net/transport.h"
#include "src/proto/wire.h"
#include "src/runtime/exec.h"
#include "src/trace/trace.h"

namespace hmdsm::dsm {

class Agent {
 public:
  Agent(NodeId node, net::Transport& transport, const DsmConfig& config,
        trace::Trace* trace = nullptr);

  NodeId node() const { return node_; }
  const core::MigrationPolicy& policy() const { return *policy_; }

  // ---- Object lifecycle (setup phase; callable from app contexts) ----

  /// Registers a new shared object whose initial home is `home` (encoded in
  /// the id). If the home is remote, ships the initial data and blocks
  /// until installation is acknowledged.
  void CreateObject(runtime::Exec& proc, ObjectId obj, ByteSpan initial);

  // ---- Shared-memory access (callable from app contexts) ----

  /// Read access: presents a read-only view of a valid copy. May block to
  /// fault the object in. Read and Write start on a cache line, so their
  /// timing does not move with the code placed ahead of them.
  [[gnu::aligned(64)]] void Read(runtime::Exec& proc, ObjectId obj,
                                 const std::function<void(ByteSpan)>& fn);

  /// Write access: presents a mutable view; creates the twin on the first
  /// write in the interval. May block to fault the object in.
  [[gnu::aligned(64)]] void Write(runtime::Exec& proc, ObjectId obj,
                                  const std::function<void(MutByteSpan)>& fn);

  // ---- Synchronization (callable from app contexts) ----

  void Acquire(runtime::Exec& proc, LockId lock);
  void Release(runtime::Exec& proc, LockId lock);
  void Barrier(runtime::Exec& proc, BarrierId barrier,
               std::uint32_t expected);

  /// Workload phase-transition marker: the access pattern just shifted
  /// (e.g. a phased writer rotated). Starts the adaptation-latency clock —
  /// the next home migration *installed on this node* closes it, measuring
  /// marker→re-homing as Lat::kAdaptation. Non-blocking.
  void MarkPhase();

  // ---- Observability (tests, benches) ----

  /// True if this node currently homes the object.
  bool IsHome(ObjectId obj) const { return homes_.contains(obj); }
  /// The policy state of a homed object (CHECK-fails if not home).
  const core::ObjPolicyState& HomeState(ObjectId obj) const;
  /// Live migration threshold of a homed object.
  double HomeLiveThreshold(ObjectId obj) const;
  /// This node's believed home for the object.
  NodeId HintedHome(ObjectId obj) const;
  /// Direct read of a home copy (test helper; no coherence actions).
  ByteSpan PeekHomeData(ObjectId obj) const;
  /// Forwarding-pointer target, if this node is an obsolete home.
  std::optional<NodeId> ForwardTarget(ObjectId obj) const;

 private:
  struct HomeEntry {
    Bytes data;
    core::ObjPolicyState pol;
    // Interval sequence numbers of the last trapped home read/write; the
    // trap fires once per synchronization interval (paper Section 3.3).
    std::uint64_t read_trap_interval = ~0ull;
    std::uint64_t write_trap_interval = ~0ull;
    // Transport-clock time a migration installed this home (0 = created
    // here / already accessed): the first local home access after a
    // migration records the installed→accessed gap, the latency the
    // migration actually bought us.
    std::int64_t installed_at = 0;
  };

  struct CacheEntry {
    Bytes data;
    Bytes twin;   // empty unless dirty
    bool dirty = false;
    // Installed by a grant of this lock; the grant's own Acquire keeps the
    // copy through its invalidation (once), every other one drops it.
    std::optional<LockId> granted;
  };

  struct LockWait {
    runtime::WaitQueue waiters;
    // cache_changes_ as each of this node's outstanding requests for the
    // lock left, oldest first: the manager answers them in that order.
    std::deque<std::uint64_t> sent_at;
    // token: this node holds the lock under a cacheable grant, has not
    // sent it back, and no recall has reached it since. busy: a thread of
    // this node is inside the lock.
    bool token = false;
    bool busy = false;
  };

  struct PendingFetch {
    runtime::WaitQueue waiters;
    std::uint32_t hops = 0;
    bool for_write = false;
    bool request_in_flight = false;
    // Transport-clock time the first request left; redirect hops re-send
    // without re-stamping, so the reply measures the whole trip.
    std::int64_t started_at = 0;
    // First obsolete home that redirected us (chain-compression target).
    NodeId first_redirector = kNoNode;
    // Foreign requests / diffs that arrived while our own fetch (which may
    // turn out to be a migration) is in flight.
    std::vector<std::pair<NodeId, proto::ObjRequest>> foreign;
    std::vector<proto::DiffMsg> foreign_diffs;
  };

  struct LockState {
    NodeId holder = kNoNode;
    std::deque<NodeId> queue;
    // Objects whose diffs rode this lock's acquire or release messages;
    // every grant drops the ones no longer homed here, a handoff grant
    // carries the rest.
    std::unordered_set<ObjectId> guarded;
    // The holder got a cacheable grant and may be keeping the lock, and no
    // recall has been sent for it yet. Any release clears it.
    bool cached = false;
  };

  /// Requester side, per remote manager: releases whose diffs rode to it
  /// unacknowledged, and how far fences to it have caught up.
  struct FenceState {
    std::uint64_t released = 0;   // such releases sent so far
    std::uint64_t fenced = 0;     // of those, the ones a fence ack covered
    std::uint64_t in_flight = 0;  // covered by the fence in flight; 0: none
    runtime::WaitQueue waiters;   // callers waiting on that fence
  };

  struct BarrierState {
    std::vector<NodeId> arrivals;
    std::uint32_t expected = 0;
  };

  struct AckWait {
    std::uint32_t remaining = 0;
    runtime::WaitQueue waiter;  // CreateObject, waiting for its init ack
    // Delivery-context continuation run on the last diff ack (a sync
    // manager waiting for forwarded piggybacked diffs cannot block).
    std::function<void()> then;
  };

  // ---- messaging ----
  void SendMsg(NodeId dst, stats::MsgCat cat, Buf wire);
  void HandlePacket(net::Packet&& packet);

  void OnObjRequest(NodeId src, proto::ObjRequest msg);
  void OnObjReply(NodeId src, proto::ObjReply msg);
  void OnMigrateReply(NodeId src, proto::MigrateReply msg);
  void OnRedirect(NodeId src, proto::Redirect msg);
  void OnDiff(NodeId src, proto::DiffMsg msg);
  void OnDiffAck(proto::DiffAck msg);
  void OnLockAcquire(NodeId src, proto::LockAcquireMsg msg);
  void OnLockGrant(proto::LockGrantMsg msg);
  void OnLockRelease(NodeId src, proto::LockReleaseMsg msg);
  void OnBarrierArrive(NodeId src, proto::BarrierArriveMsg msg);
  void OnBarrierRelease(proto::BarrierReleaseMsg msg);
  void OnInitObject(NodeId src, proto::InitObjectMsg msg);
  void OnInitAck(proto::InitAckMsg msg);
  void OnManagerUpdate(proto::ManagerUpdateMsg msg);
  void OnManagerLookup(NodeId src, proto::ManagerLookupMsg msg);
  void OnManagerReply(proto::ManagerReplyMsg msg);
  void OnHomeBroadcast(proto::HomeBroadcastMsg msg);
  void OnChainUpdate(proto::ChainUpdateMsg msg);
  void OnSyncFence(NodeId src, proto::SyncFenceMsg msg);
  void OnLockRecall(proto::LockRecallMsg msg);

  /// Posts the discovered home back to the stalest chain member after a
  /// multi-hop walk (when chain compression is enabled). `home_epoch` is
  /// the object's migration count at that home.
  void MaybeCompressChain(const PendingFetch& pf, ObjectId obj, NodeId home,
                          std::uint32_t home_epoch);

  // ---- protocol helpers ----

  /// Serves an object request at the home: feedback accounting, migration
  /// decision, reply (possibly transferring the home).
  void ServeAtHome(NodeId requester, const proto::ObjRequest& msg);

  /// Applies a diff at the home (standalone or piggybacked) and records the
  /// remote write for the policy. `writer` is the originating node.
  void ApplyDiffAtHome(HomeEntry& entry, ObjectId obj, NodeId writer,
                       ByteSpan diff);

  /// Routes a diff that arrived at an obsolete home along the forwarding
  /// pointer.
  void ForwardDiff(NodeId writer, proto::DiffMsg&& msg);

  /// Applies diffs that rode a sync message (acquire/release/barrier). A
  /// diff whose home has moved is forwarded with an ack back to us; until
  /// the acks arrive, WhenForwardsLand holds this manager's replies.
  void ApplyPiggybacked(NodeId src,
                        std::vector<std::pair<ObjectId, Bytes>>& diffs);

  /// Runs `send` (a manager's grant, barrier release or fence ack) now, or
  /// once the piggybacked diffs this node forwarded so far are
  /// acknowledged: a sync reply must not overtake the writes it publishes.
  /// Forwards that start later do not hold it.
  template <typename Fn>
  void WhenForwardsLand(Fn&& send) {
    if (forwards_in_flight_.empty()) {
      send();
    } else {
      after_forwards_.emplace_back(next_ack_tag_, std::forward<Fn>(send));
    }
  }
  /// Sends the held replies whose forwards have all landed, in order.
  void SendLandedReplies();

  /// Manager side: grants `lock` to `to`. A handoff (`to` was queued)
  /// carries the current copies of the guarded objects still homed here,
  /// up to proto::kMaxGrantCopyBytes. The grant is cacheable when, as it
  /// leaves, `to` is remote, nobody else waits, the lock guards nothing
  /// homed here and write-through mode is off.
  void SendGrant(LockId lock, NodeId to, bool handoff);

  /// Before synchronizing through `manager`: waits until every other
  /// manager that earlier releases piggybacked diffs to has acknowledged
  /// them (a SyncFenceMsg round trip each, shared by concurrent callers).
  void FenceBefore(runtime::Exec& proc, NodeId manager);
  void Fence(runtime::Exec& proc, NodeId manager, std::uint64_t upto);

  /// A grant or barrier release from `manager` answers a request that left
  /// after this node's first `mark` releases to it (the link is FIFO), and
  /// the manager holds it until the diffs it forwarded for them land, so it
  /// fences those releases too. FenceMark is taken as the request leaves.
  std::uint64_t FenceMark(NodeId manager) const {
    auto it = fences_.find(manager);
    return it == fences_.end() ? 0 : it->second.released;
  }
  void FencedBy(NodeId manager, std::uint64_t mark) {
    if (mark == 0) return;
    FenceState& fs = fences_.at(manager);
    fs.fenced = std::max(fs.fenced, mark);
  }

  /// Ensures a valid local copy (home or cache); may block `proc`.
  void EnsureValidCopy(runtime::Exec& proc, ObjectId obj, bool for_write);

  /// Sends (or re-sends) the fault-in request for a pending fetch.
  void SendFetchRequest(ObjectId obj, NodeId target);

  /// Release semantics: diff all dirty cached objects and propagate.
  /// Diffs whose home is `sync_manager` are returned for piggybacking
  /// (when enabled); the rest are sent standalone. Blocks until standalone
  /// diffs are acknowledged.
  std::vector<std::pair<ObjectId, Bytes>> FlushDirty(runtime::Exec& proc,
                                                     NodeId sync_manager);

  /// Flushes (standalone, acknowledged) whatever other threads of this node
  /// wrote while the caller waited, until no dirty copy is left.
  void FlushWrittenMeanwhile(runtime::Exec& proc);

  /// Acquire semantics: drop all non-home cached copies, except the copies
  /// a grant of `acquired` (if any) just delivered.
  void InvalidateCache(const LockId* acquired = nullptr);

  /// Advances the synchronization-interval sequence (re-arms home traps).
  void BumpInterval() { ++interval_seq_; }

  /// Records the home-read/home-write trap on a home access.
  void TrapHomeRead(HomeEntry& entry);
  void TrapHomeWrite(HomeEntry& entry);

  /// Records the migration-installed→first-local-access latency, once per
  /// migration.
  void RecordFirstHomeAccess(HomeEntry& entry) {
    if (entry.installed_at == 0) return;
    recorder_.RecordLatency(
        stats::Lat::kMigFirstAccess,
        static_cast<std::uint64_t>(net_.Now() - entry.installed_at));
    entry.installed_at = 0;
  }

  NodeId ManagerOf(ObjectId obj) const { return obj.initial_home(); }

  /// Emits a trace event (no-op when tracing is not attached/enabled).
  void Emit(trace::What what, std::uint64_t id, NodeId peer = kNoNode,
            std::int64_t value = 0) {
    if (trace_ != nullptr)
      trace_->Record({net_.Now(), what, node_, peer, id, value});
  }

  NodeId node_;
  net::Transport& net_;
  /// This node's statistics sink (mutated only under this node's
  /// serialization — kernel baton or node agent lock).
  stats::Recorder& recorder_;
  DsmConfig config_;
  trace::Trace* trace_;
  std::unique_ptr<core::MigrationPolicy> policy_;

  /// Forwarding pointer with the migration epoch it corresponds to; chain
  /// compression may only advance a pointer to a strictly newer epoch.
  struct Forward {
    NodeId to = kNoNode;
    std::uint32_t epoch = 0;
  };

  std::unordered_map<ObjectId, HomeEntry> homes_;
  std::unordered_map<ObjectId, CacheEntry> cache_;
  std::unordered_map<ObjectId, Forward> forwards_;
  std::unordered_map<ObjectId, NodeId> hints_;
  std::unordered_map<ObjectId, PendingFetch> pending_fetch_;
  // Home-manager mechanism state (only populated on manager nodes).
  std::unordered_map<ObjectId, NodeId> manager_locations_;

  std::unordered_map<LockId, LockState> managed_locks_;
  std::unordered_map<LockId, LockWait> lock_waiters_;
  std::unordered_map<BarrierId, BarrierState> managed_barriers_;
  std::unordered_map<BarrierId, runtime::WaitQueue> barrier_waiters_;

  std::unordered_map<std::uint64_t, AckWait> pending_acks_;
  // Sync-manager side: ack tags of forwarded piggybacked diffs still
  // outstanding, and the replies held until the ones older than their
  // watermark tag land (WhenForwardsLand).
  std::set<std::uint64_t> forwards_in_flight_;
  std::deque<std::pair<std::uint64_t, std::function<void()>>> after_forwards_;
  std::unordered_map<NodeId, FenceState> fences_;
  // Requester side: ack tags of standalone-diff flushes still outstanding,
  // and the callers waiting for the ones older than their own to land.
  std::set<std::uint64_t> flushes_in_flight_;
  runtime::WaitQueue flush_landed_;
  // Bumped whenever a cache entry takes new contents (fetch, flush, grant
  // copy): a grant's copies may be older than any such change made after
  // its request left, so they are installed only if there was none.
  std::uint64_t cache_changes_ = 0;
  std::uint64_t next_ack_tag_ = 1;
  std::uint64_t interval_seq_ = 1;
  std::uint64_t barrier_epoch_ = 1;  // advances on each barrier release

  // Adaptation-latency clock: armed by MarkPhase, closed by the next
  // migration reply installing a home here (OnMigrateReply).
  std::int64_t phase_marker_at_ = 0;
  bool phase_pending_ = false;
};

}  // namespace hmdsm::dsm
