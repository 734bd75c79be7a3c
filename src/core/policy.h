// Home-migration policies — the paper's contribution and its baselines.
//
// The DSM engine (src/dsm/agent) observes protocol events at each object's
// home and records them into the per-object ObjPolicyState; the pluggable
// MigrationPolicy decides, at object-request service time, whether the reply
// should also transfer the home. Policies are stateless singletons: all
// per-object state lives in ObjPolicyState and *migrates with the object*,
// exactly as in the paper where the GOS at the (current) home node performs
// all threshold computations.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>

#include "src/dsm/types.h"
#include "src/util/bytes.h"
#include "src/util/serde.h"

namespace hmdsm::core {

using dsm::NodeId;
using dsm::kNoNode;

/// Per-object protocol state kept at the object's current home.
///
/// Notation follows the paper (Section 4.2): within epoch i (i.e., since the
/// (i-1)-th home migration of this object),
///   C  = consecutive_remote_writes,
///   R  = redirected_requests (with redirection accumulation),
///   E  = exclusive_home_writes,
///   T_{i-1} = frozen_threshold (the threshold value frozen at the last
///             migration; T_0 = T_init).
struct ObjPolicyState {
  double frozen_threshold = 1.0;
  std::uint32_t consecutive_remote_writes = 0;
  NodeId consecutive_writer = kNoNode;
  std::uint64_t redirected_requests = 0;
  std::uint64_t exclusive_home_writes = 0;
  std::uint32_t epoch = 0;  // number of completed home migrations

  // Sync locality: the writer of the last diff that rode a sync message
  // (lock acquire/release, barrier arrival) to this home, and how often
  // that writer changed this epoch. Each change means a second writer's
  // diff reached the home for free; moving the home off the sync manager
  // would turn every such diff into a standalone diff+ack pair.
  NodeId piggyback_writer = kNoNode;
  std::uint64_t piggyback_switches = 0;
  // The last home that collected piggybacked diffs from more than one
  // writer (kNoNode if none yet). Survives migrations, so AT can hand the
  // object back when that sync manager write-faults it.
  NodeId sync_home = kNoNode;

  // E-detection: true when a home write has occurred with no remote write
  // after it (the next home write is then "exclusive").
  bool home_written_since_remote = false;

  // Running average of observed diff payload bytes for this object — the
  // "d" in the α formula. Before any diff is seen, d falls back to o.
  double avg_diff_bytes = 0.0;
  std::uint32_t diff_samples = 0;

  // Sharing observed since the last migration: the single node that has
  // requested the object (kNoNode if none yet), or mixed_requesters once a
  // second node shows up. Used by the Jackal-style lazy-flushing baseline,
  // which only hands exclusive ownership to an unshared unit's writer.
  NodeId sole_recent_requester = kNoNode;
  bool mixed_requesters = false;

  // Barrier-epoch writer tracking for the Jidia-style baseline: which node
  // was the *sole* writer during the current and the previous barrier
  // epoch (kNoNode = none yet or mixed). Epochs are counted locally at the
  // home from barrier releases.
  std::uint64_t write_epoch = 0;
  NodeId epoch_writer = kNoNode;
  NodeId prev_epoch_writer = kNoNode;

  /// A write (remote diff or trapped home write) observed during barrier
  /// epoch `barrier_epoch`; `writer` = kNoNode marks a home write, which
  /// disqualifies the epoch from being single-remote-writer.
  void RecordEpochWrite(NodeId writer, std::uint64_t barrier_epoch) {
    if (barrier_epoch != write_epoch) {
      prev_epoch_writer = epoch_writer;
      write_epoch = barrier_epoch;
      epoch_writer = writer;
      return;
    }
    if (epoch_writer != writer) epoch_writer = kNoNode;  // mixed
  }

  /// A request from `node` was served at the home (after the migration
  /// decision for that request was made).
  void RecordRequester(NodeId node) {
    if (sole_recent_requester == kNoNode) {
      sole_recent_requester = node;
    } else if (sole_recent_requester != node) {
      mixed_requesters = true;
    }
  }

  /// A diff from `writer` was applied at the home (a *remote write*).
  /// Returns the new consecutive count C.
  std::uint32_t RecordRemoteWrite(NodeId writer) {
    home_written_since_remote = false;
    if (writer == consecutive_writer) {
      ++consecutive_remote_writes;
    } else {
      consecutive_writer = writer;
      consecutive_remote_writes = 1;
    }
    return consecutive_remote_writes;
  }

  /// The home node wrote the object (first trapped write this sync
  /// interval). Returns true if the write was *exclusive* (positive
  /// feedback E — no remote write since an earlier home write).
  bool RecordHomeWrite() {
    // A home write interleaves the remote-writer stream (paper: consecutive
    // remote writes must not be interleaved with home writes).
    consecutive_remote_writes = 0;
    consecutive_writer = kNoNode;
    const bool exclusive = home_written_since_remote;
    if (exclusive) ++exclusive_home_writes;
    home_written_since_remote = true;
    return exclusive;
  }

  /// An object request arrived after `hops` redirections (negative
  /// feedback R, counted with accumulation).
  void RecordRedirectHops(std::uint32_t hops) { redirected_requests += hops; }

  /// A diff from `writer` rode a sync message to `home`, the message's
  /// manager and this object's home (negative feedback S when the
  /// piggybacking writer changed).
  void RecordPiggyback(NodeId writer, NodeId home) {
    if (piggyback_writer != kNoNode && piggyback_writer != writer) {
      ++piggyback_switches;
      sync_home = home;
    }
    piggyback_writer = writer;
  }

  void RecordDiffSize(std::size_t payload_bytes) {
    ++diff_samples;
    avg_diff_bytes +=
        (static_cast<double>(payload_bytes) - avg_diff_bytes) / diff_samples;
  }

  /// Serialization: the state travels inside migration replies.
  void Encode(Writer& w) const;
  static ObjPolicyState Decode(Reader& r);

  bool operator==(const ObjPolicyState&) const = default;
};

/// Decision interface. Implementations must be deterministic and cheap —
/// the paper stresses that the protocol is "very lightweight" (simple
/// integer arithmetic overlapped with communication).
class MigrationPolicy {
 public:
  virtual ~MigrationPolicy() = default;

  /// Policy name for reports ("AT", "FT1", "NoHM", ...).
  virtual std::string name() const = 0;

  /// Decides whether serving this object request should migrate the home to
  /// `requester`. `object_bytes` is the current object size; `for_write`
  /// distinguishes write faults (used by the JUMP-style baseline).
  virtual bool ShouldMigrate(const ObjPolicyState& state, NodeId requester,
                             std::size_t object_bytes,
                             bool for_write) const = 0;

  /// Invoked when a migration decided by ShouldMigrate is performed: the
  /// policy freezes/advances the threshold and resets the epoch counters.
  /// Default: reset counters, keep threshold untouched.
  virtual void OnMigrated(ObjPolicyState& state,
                          std::size_t object_bytes) const;

  /// The live threshold T_i for observability (reports, tests). Policies
  /// without a threshold report +infinity (never) or 0 (always).
  virtual double LiveThreshold(const ObjPolicyState& state,
                               std::size_t object_bytes) const = 0;
};

/// "NoHM": homes are fixed for the lifetime of the run.
class NoMigrationPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "NoHM"; }
  bool ShouldMigrate(const ObjPolicyState&, NodeId, std::size_t,
                     bool) const override {
    return false;
  }
  double LiveThreshold(const ObjPolicyState&, std::size_t) const override;
};

/// "FTk": the authors' previous protocol [Fang et al., Parallel Computing
/// 2003] — migrate when the consecutive remote writes from one node reach a
/// fixed threshold k and that node requests the object again.
class FixedThresholdPolicy final : public MigrationPolicy {
 public:
  explicit FixedThresholdPolicy(std::uint32_t threshold);
  std::string name() const override;
  bool ShouldMigrate(const ObjPolicyState& state, NodeId requester,
                     std::size_t, bool) const override;
  double LiveThreshold(const ObjPolicyState&, std::size_t) const override;
  std::uint32_t threshold() const { return threshold_; }

 private:
  std::uint32_t threshold_;
};

/// Parameters of the adaptive protocol (paper Section 4.2).
struct AdaptiveParams {
  double initial_threshold = 1.0;  // T_init
  double feedback_coefficient = 1.0;  // λ
  double half_peak_bytes = 875.0;  // m½ from the network model
  /// Use the paper's simplified α (Eq. 4) instead of the exact ratio.
  bool approximate_alpha = false;
  /// Override α with a constant (ablations); NaN = derive from the model.
  double fixed_alpha = std::numeric_limits<double>::quiet_NaN();
};

/// "AT": the paper's adaptive-threshold protocol, plus a sync-locality term.
///   T_i = max(T_{i-1} + λ(R_i + S_i − α·E_i), T_init),  T_0 = T_init = 1
///   migrate when C_i ≥ T_i and the requester is the consecutive writer.
/// S_i counts changes of the piggybacking writer at the home: while the
/// home is the lock/barrier manager, several writers' diffs ride their
/// sync messages for free, and each of them would become a standalone
/// diff+ack pair once the home moved away. With one piggybacking writer
/// S_i stays 0 and the rule is the paper's. A write fault from the object's
/// `sync_home` moves the home back to that manager.
class AdaptiveThresholdPolicy final : public MigrationPolicy {
 public:
  explicit AdaptiveThresholdPolicy(AdaptiveParams params = {});
  std::string name() const override { return "AT"; }
  bool ShouldMigrate(const ObjPolicyState& state, NodeId requester,
                     std::size_t object_bytes, bool) const override;
  void OnMigrated(ObjPolicyState& state,
                  std::size_t object_bytes) const override;
  double LiveThreshold(const ObjPolicyState& state,
                       std::size_t object_bytes) const override;
  double Alpha(const ObjPolicyState& state, std::size_t object_bytes) const;
  const AdaptiveParams& params() const { return params_; }

 private:
  AdaptiveParams params_;
};

/// "MH": JUMP-style migrating-home baseline (related work, Section 2) —
/// "the process requiring the page becomes the new home": the home chases
/// every faulting node, read or write, with no access-pattern awareness.
/// This is the protocol whose "worst case happens when the shared page is
/// written by processes sequentially" per the paper.
class MigratingHomePolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "MH"; }
  bool ShouldMigrate(const ObjPolicyState&, NodeId, std::size_t,
                     bool) const override {
    return true;
  }
  double LiveThreshold(const ObjPolicyState&, std::size_t) const override;
};

/// "BR": Jidia-style barrier-based migration (related work, Section 2) —
/// objects written by exactly one process between two barriers migrate to
/// that writer. Implemented pull-style: when the previous barrier epoch's
/// sole writer faults the object in, the home moves. As the paper notes,
/// the scheme "will not work if the application does not use barriers":
/// with no barriers the epoch never advances and BR degenerates to NoHM.
class BarrierMigrationPolicy final : public MigrationPolicy {
 public:
  std::string name() const override { return "BR"; }
  bool ShouldMigrate(const ObjPolicyState& state, NodeId requester,
                     std::size_t, bool) const override {
    return requester != kNoNode && requester == state.prev_epoch_writer;
  }
  double LiveThreshold(const ObjPolicyState&, std::size_t) const override;
};

/// "LF": Jackal-style lazy flushing (related work, Section 2) — a write
/// faulter becomes the exclusive owner only if no *other* node has
/// requested the unit since the last ownership change, and the number of
/// transitions is capped (Jackal uses five) to bound the ping-pong the
/// paper criticizes.
class LazyFlushingPolicy final : public MigrationPolicy {
 public:
  static constexpr std::uint32_t kMaxTransitions = 5;

  std::string name() const override { return "LF"; }
  bool ShouldMigrate(const ObjPolicyState& state, NodeId requester,
                     std::size_t, bool for_write) const override {
    if (!for_write || state.epoch >= kMaxTransitions) return false;
    if (state.mixed_requesters) return false;
    return state.sole_recent_requester == kNoNode ||
           state.sole_recent_requester == requester;
  }
  double LiveThreshold(const ObjPolicyState&, std::size_t) const override;
};

/// Factory helpers for configs / benches.
std::unique_ptr<MigrationPolicy> MakePolicy(const std::string& spec,
                                            const AdaptiveParams& at_params);

}  // namespace hmdsm::core
