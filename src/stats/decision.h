// The migration decision ledger: one record per consultation of the
// migration policy at an object's home, carrying the exact inputs the
// policy saw and the verdict it returned. The paper's contribution is the
// decision rule itself, so the audit trail — not just the aggregate
// migration count — is what lets a policy change be explained: "object X
// stayed put because C=2 < T=3.5" is readable straight off a record.
//
// The ledger is bounded (oldest records evicted, eviction counted) and
// travels inside recorder snapshots between ranks, so like Histogram its
// decode path must treat the input as hostile: counts are bounded against
// the remaining payload before any allocation.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "src/util/serde.h"

namespace hmdsm::stats {

/// One migration decision, captured before the serve path mutates the
/// per-object policy state (so the counters are exactly what the policy's
/// ShouldMigrate saw).
struct Decision {
  std::uint64_t obj = 0;         // ObjectId::value
  std::uint32_t epoch = 0;       // completed migrations at decision time
  std::uint32_t home = 0;        // node serving the request (current home)
  std::uint32_t requester = 0;   // faulting node
  std::uint32_t consecutive_writes = 0;  // paper's C_i
  std::uint32_t consecutive_writer = 0;  // node that accumulated C_i
  std::uint64_t redirects = 0;           // paper's R_i (accumulated hops)
  std::uint64_t exclusive_home_writes = 0;  // paper's E_i
  std::uint64_t piggyback_switches = 0;     // sync-locality S_i
  double threshold = 0.0;        // live T_i at decision time
  std::uint64_t object_bytes = 0;
  bool for_write = false;
  bool migrate = false;          // the verdict
  std::uint32_t destination = 0; // new home if migrated, else current home
  std::int64_t at_ns = 0;        // transport-clock time of the decision

  /// Fixed-shape wire form (kWireBytes per record).
  void Encode(Writer& w) const;
  static Decision Decode(Reader& r);

  bool operator==(const Decision&) const = default;
};

/// Bounded per-rank ring of decisions. Mergeable (per-rank → cluster) and
/// serializable inside recorder snapshots.
class DecisionLedger {
 public:
  /// Per-rank bound; generous enough that bench-scale runs never evict,
  /// small enough that a snapshot stays a few MB worst case.
  static constexpr std::size_t kCapacity = 65536;

  /// Bytes one encoded Decision occupies on the wire (fixed shape) — the
  /// hostile-decode bound for the record count.
  static constexpr std::size_t kWireBytes = 81;

  void Record(const Decision& d) {
    if (decisions_.size() == kCapacity) {
      decisions_.pop_front();
      ++dropped_;
    }
    decisions_.push_back(d);
  }

  const std::deque<Decision>& decisions() const { return decisions_; }
  std::size_t size() const { return decisions_.size(); }
  /// Records evicted by the capacity bound; size() + dropped() is the true
  /// decision count (and must equal migrations + rejections).
  std::uint64_t dropped() const { return dropped_; }
  bool empty() const { return decisions_.empty() && dropped_ == 0; }

  void Reset() {
    decisions_.clear();
    dropped_ = 0;
  }

  /// Concatenates another ledger (cluster gather); the capacity bound
  /// applies to the merged result, evicting oldest-first.
  void Merge(const DecisionLedger& other);

  /// Returns all records ordered by decision time — ranks interleave
  /// arbitrarily in a merged ledger, and the audit JSON should read as a
  /// timeline.
  std::vector<Decision> Sorted() const;

  void Encode(Writer& w) const;
  static DecisionLedger Decode(Reader& r);

  bool operator==(const DecisionLedger&) const = default;

 private:
  std::deque<Decision> decisions_;
  std::uint64_t dropped_ = 0;
};

}  // namespace hmdsm::stats
