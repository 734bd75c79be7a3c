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
//    holder can never fault in a stale copy);
//  * home copies are always valid; the first home read and first home
//    write per synchronization interval are trapped and recorded — these
//    feed the migration policy exactly as in the paper (Section 3.3).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
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
  /// fault the object in.
  void Read(runtime::Exec& proc, ObjectId obj,
            const std::function<void(ByteSpan)>& fn);

  /// Write access: presents a mutable view; creates the twin on the first
  /// write in the interval. May block to fault the object in.
  void Write(runtime::Exec& proc, ObjectId obj,
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
  };

  struct BarrierState {
    std::vector<NodeId> arrivals;
    std::uint32_t expected = 0;
  };

  struct AckWait {
    std::uint32_t remaining = 0;
    runtime::WaitQueue waiter;
    // Delivery-context continuation run on the last ack (a sync manager
    // waiting for forwarded piggybacked diffs cannot block).
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

  /// Applies diffs that rode a sync message (acquire/release/barrier),
  /// then runs `then`, which completes the sync operation. A diff whose
  /// home has moved is forwarded with an ack back to us, and `then` waits
  /// for those acks: a lock handoff or barrier release must not overtake
  /// the writes it publishes.
  template <typename Fn>
  void ApplyPiggybacked(NodeId src,
                        std::vector<std::pair<ObjectId, Bytes>>& diffs,
                        Fn&& then);

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

  /// Acquire semantics: drop all non-home cached copies.
  void InvalidateCache();

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
  std::unordered_map<LockId, runtime::WaitQueue> lock_waiters_;
  std::unordered_map<BarrierId, BarrierState> managed_barriers_;
  std::unordered_map<BarrierId, runtime::WaitQueue> barrier_waiters_;

  std::unordered_map<std::uint64_t, AckWait> pending_acks_;
  std::uint64_t next_ack_tag_ = 1;
  std::uint64_t interval_seq_ = 1;
  std::uint64_t barrier_epoch_ = 1;  // advances on each barrier release

  // Adaptation-latency clock: armed by MarkPhase, closed by the next
  // migration reply installing a home here (OnMigrateReply).
  std::int64_t phase_marker_at_ = 0;
  bool phase_pending_ = false;
};

}  // namespace hmdsm::dsm
