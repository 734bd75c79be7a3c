// DSM protocol wire messages.
//
// Every message is explicitly serialized (src/util/serde) so that the
// Hockney network model charges realistic sizes: an object reply carries the
// object bytes, a diff message carries the encoded runs, a redirect is a
// near-unit-sized message — the asymmetry the paper's α coefficient is
// built on.
#pragma once

#include <variant>
#include <vector>

#include "src/core/policy.h"
#include "src/dsm/types.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace hmdsm::proto {

using dsm::BarrierId;
using dsm::LockId;
using dsm::NodeId;
using dsm::ObjectId;

enum class Kind : std::uint8_t {
  kObjRequest = 1,
  kObjReply,
  kMigrateReply,
  kRedirect,
  kDiff,
  kDiffAck,
  kLockAcquire,
  kLockGrant,
  kLockRelease,
  kBarrierArrive,
  kBarrierRelease,
  kInitObject,
  kInitAck,
  kManagerUpdate,
  kManagerLookup,
  kManagerReply,
  kHomeBroadcast,
  kChainUpdate,
  kSyncFence,
  kLockRecall,
};

/// Fault-in request. `hops` counts redirections suffered so far (the home
/// adds them to the object's R feedback on service).
struct ObjRequest {
  ObjectId obj;
  std::uint32_t hops = 0;
  bool for_write = false;
};

/// Plain fault-in reply: a copy of the home data. `home_epoch` is the
/// object's migration count at the serving home — chain compression uses
/// it to keep forwarding pointers moving monotonically forward.
struct ObjReply {
  ObjectId obj;
  Bytes data;
  std::uint32_t home_epoch = 0;
};

/// Fault-in reply that also transfers the home: data plus the per-object
/// policy state, which always lives at the current home.
struct MigrateReply {
  ObjectId obj;
  Bytes data;
  core::ObjPolicyState policy_state;
};

/// Reply from an obsolete home. With the forwarding-pointer mechanism,
/// `new_home` is the believed current home; with the home-manager
/// mechanism, `ask_manager` directs the requester to the manager node.
struct Redirect {
  ObjectId obj;
  NodeId new_home = dsm::kNoNode;
  bool ask_manager = false;
};

/// Standalone diff propagation (home is not the sync manager, so the diff
/// could not be piggybacked). `ack_tag` identifies the releaser's wait.
/// `writer` is the originating node — preserved when an obsolete home
/// forwards the diff along its forwarding pointer, so the true home still
/// attributes the remote write (and the ack) correctly.
struct DiffMsg {
  ObjectId obj;
  Bytes diff;
  std::uint64_t ack_tag = 0;
  bool ack_required = true;
  NodeId writer = dsm::kNoNode;
  /// Where the DiffAck goes: the writer for a standalone diff, the sync
  /// manager for a piggybacked diff it forwarded to a moved home.
  NodeId ack_to = dsm::kNoNode;
};

struct DiffAck {
  std::uint64_t ack_tag = 0;
};

/// Lock acquire. Acquiring is a synchronization point, so any dirty objects
/// are flushed first; diffs homed at the lock manager ride this message.
struct LockAcquireMsg {
  LockId lock;
  std::vector<std::pair<ObjectId, Bytes>> piggybacked_diffs;
};

/// Upper bound on the object bytes one grant carries (see LockGrantMsg).
inline constexpr std::size_t kMaxGrantCopyBytes = 64 * 1024;

/// Lock grant. On a contended handoff the manager attaches the current
/// copy of every object the lock guards that it still homes (an object is
/// guarded once its diff rode this lock's acquire or release), up to
/// kMaxGrantCopyBytes in total, so the next holder need not fault them in.
/// A `cacheable` grant lets the holder keep the lock across a release that
/// carries no diffs, until the manager sends a LockRecallMsg.
struct LockGrantMsg {
  LockId lock;
  std::vector<std::pair<ObjectId, Bytes>> copies;
  bool cacheable = false;
};

/// Lock release, optionally carrying diffs whose home is the lock manager
/// (the paper's piggybacking: Section 5.2 relies on it at repetition 8).
struct LockReleaseMsg {
  LockId lock;
  std::vector<std::pair<ObjectId, Bytes>> piggybacked_diffs;
};

struct BarrierArriveMsg {
  BarrierId barrier;
  std::uint32_t expected = 0;
  std::vector<std::pair<ObjectId, Bytes>> piggybacked_diffs;
};

struct BarrierReleaseMsg {
  BarrierId barrier;
};

/// Installs a freshly created object at its initial home (setup phase).
struct InitObjectMsg {
  ObjectId obj;
  Bytes data;
  std::uint64_t ack_tag = 0;
};

struct InitAckMsg {
  std::uint64_t ack_tag = 0;
};

/// Home-manager mechanism: posted to the manager on migration.
struct ManagerUpdateMsg {
  ObjectId obj;
  NodeId home = dsm::kNoNode;
};

struct ManagerLookupMsg {
  ObjectId obj;
};

struct ManagerReplyMsg {
  ObjectId obj;
  NodeId home = dsm::kNoNode;
};

/// Broadcast mechanism: the new home location, sent to every node.
struct HomeBroadcastMsg {
  ObjectId obj;
  NodeId home = dsm::kNoNode;
};

/// Chain compression: a requester that walked a multi-hop forwarding chain
/// tells the stalest chain member where the object's home really is.
/// `home_epoch` guards against stale updates re-pointing a chain backward
/// (which could create redirect cycles).
struct ChainUpdateMsg {
  ObjectId obj;
  NodeId home = dsm::kNoNode;
  std::uint32_t home_epoch = 0;
};

/// Asks a sync manager to acknowledge (with a DiffAck) once every diff
/// that rode the sender's earlier releases is applied at its home. A node
/// sends it before synchronizing through a different manager, since a
/// release's piggybacked diffs are never acknowledged on their own.
struct SyncFenceMsg {
  std::uint64_t ack_tag = 0;
};

/// Manager -> holder of a kept lock: another node asked for it. The holder
/// returns it with an empty LockReleaseMsg, at once if no thread holds it,
/// else at its release; a holder that has already returned it ignores this.
struct LockRecallMsg {
  LockId lock;
};

using AnyMsg =
    std::variant<ObjRequest, ObjReply, MigrateReply, Redirect, DiffMsg,
                 DiffAck, LockAcquireMsg, LockGrantMsg, LockReleaseMsg,
                 BarrierArriveMsg, BarrierReleaseMsg, InitObjectMsg,
                 InitAckMsg, ManagerUpdateMsg, ManagerLookupMsg,
                 ManagerReplyMsg, HomeBroadcastMsg, ChainUpdateMsg,
                 SyncFenceMsg, LockRecallMsg>;

Bytes Encode(const ObjRequest&);
Bytes Encode(const ObjReply&);
Bytes Encode(const MigrateReply&);
Bytes Encode(const Redirect&);
Bytes Encode(const DiffMsg&);
Bytes Encode(const DiffAck&);
Bytes Encode(const LockAcquireMsg&);
Bytes Encode(const LockGrantMsg&);
Bytes Encode(const LockReleaseMsg&);
Bytes Encode(const BarrierArriveMsg&);
Bytes Encode(const BarrierReleaseMsg&);
Bytes Encode(const InitObjectMsg&);
Bytes Encode(const InitAckMsg&);
Bytes Encode(const ManagerUpdateMsg&);
Bytes Encode(const ManagerLookupMsg&);
Bytes Encode(const ManagerReplyMsg&);
Bytes Encode(const HomeBroadcastMsg&);
Bytes Encode(const ChainUpdateMsg&);
Bytes Encode(const SyncFenceMsg&);
Bytes Encode(const LockRecallMsg&);

/// Decodes any protocol message (leading kind byte selects the type).
/// Trusted-input path: throws CheckError on malformed bytes (an in-process
/// transport corrupting a message is a bug, not an input).
AnyMsg Decode(ByteSpan wire);

/// Defensive decode for untrusted bytes (anything that arrived over a
/// socket). Never throws and never allocates unboundedly: truncated,
/// oversized, unknown-kind, and trailing-garbage inputs all return false
/// with a diagnostic in `error`. On success `*out` holds the message.
bool TryDecode(ByteSpan wire, AnyMsg* out, std::string* error);

/// The kind of an encoded message without full decoding.
Kind PeekKind(ByteSpan wire);

}  // namespace hmdsm::proto
