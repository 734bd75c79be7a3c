// Run statistics: message/byte accounting by protocol category plus named
// protocol event counters. The Figure-5b message breakdown (obj / mig /
// diff / redir) and the Figure-3 traffic metrics come straight from here.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/stats/decision.h"
#include "src/stats/histogram.h"
#include "src/stats/msgcat.h"
#include "src/stats/timeseries.h"
#include "src/util/serde.h"

namespace hmdsm::stats {

/// Named protocol events (not wire messages).
enum class Ev : std::uint8_t {
  kFaultIns,            // non-home access misses needing a remote fetch
  kLocalHits,           // accesses served from a valid cached copy
  kHomeAccesses,        // accesses served by the local home copy
  kRemoteReads,         // object requests served at the home
  kRemoteWrites,        // diffs applied at the home
  kHomeReads,           // first home read per sync interval (trapped)
  kHomeWrites,          // first home write per sync interval (trapped)
  kExclusiveHomeWrites, // paper's positive feedback E
  kRedirectHops,        // paper's negative feedback R (accumulated hops)
  kMigrations,          // completed home migrations
  kMigRejections,       // policy consultations that decided to stay put
  kTwinsCreated,
  kDiffsCreated,
  kDiffsApplied,
  kDiffBytes,           // encoded diff payload bytes
  kPiggybackedDiffs,    // diffs that rode on a lock-release message
  kLockAcquires,
  kLockHandoffs,        // grants that crossed nodes
  kBarrierWaits,
  // Wire-level counters (sockets backend). The socket transport folds its
  // atomics in at snapshot time so the coordinator's recorder gather
  // carries them to the lead and cluster totals come out of Merge like
  // every other counter.
  kSocketWrites,        // write(2) syscalls issued by writer threads
  kWireFramesEnqueued,  // frames handed to per-peer writer queues
  kWireFramesCoalesced, // frames that left inside a Batch frame
  kShmMsgs,             // data frames that took the shared-memory ring
  kMailboxOverflowAllocs, // overflow nodes allocated (not pool-recycled)
  kRxBufferAllocs,      // receive-path buffers allocated (not pool-recycled)
  kCount,
};

constexpr std::size_t kNumEvs = static_cast<std::size_t>(Ev::kCount);

std::string_view EvName(Ev ev);

/// Named latency histograms (nanoseconds). The fault-in RTT histograms are
/// separate, indexed by the reply's MsgCat.
enum class Lat : std::uint8_t {
  kMailboxDwell,     // mailbox enqueue -> dispatch (threads + sockets)
  kSocketWrite,      // one wire write(2) syscall (sockets writer threads)
  kMigFirstAccess,   // migration installed -> first home access
  kAdaptation,       // workload phase marker -> first re-homing migration
  kCount,
};

constexpr std::size_t kNumLats = static_cast<std::size_t>(Lat::kCount);

std::string_view LatName(Lat lat);

/// Per-category message and byte totals.
struct MsgTotals {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Mutable statistics sink. One Recorder exists per cluster node (owned by
/// the transport) so that the threads backend needs no cross-node locking:
/// a node's recorder is only ever mutated under that node's serialization
/// (kernel baton on the simulator, the node agent lock on the threads
/// backend). Per-node recorders are combined into run totals with Merge().
/// Runs reset recorders after the setup phase so steady-state numbers
/// exclude initial placement, mirroring the paper's timing methodology
/// (JVM startup excluded).
class Recorder {
 public:
  /// Sizes the per-node tables (optional; per-node queries return zeros
  /// for unknown nodes otherwise).
  void SetNodeCount(std::size_t nodes) {
    sent_by_node_.assign(nodes, MsgTotals{});
    received_by_node_.assign(nodes, MsgTotals{});
  }

  void RecordMessage(MsgCat cat, std::size_t bytes) {
    auto& t = by_cat_[static_cast<std::size_t>(cat)];
    t.messages += 1;
    t.bytes += bytes;
  }

  /// Per-node attribution. The transport records the send half in the
  /// sender's recorder when the message is posted and the receive half in
  /// the receiver's recorder at delivery, so neither side ever mutates a
  /// foreign node's recorder.
  void RecordSent(std::uint32_t node, std::size_t bytes) {
    if (node < sent_by_node_.size()) {
      sent_by_node_[node].messages += 1;
      sent_by_node_[node].bytes += bytes;
    }
  }
  void RecordReceived(std::uint32_t node, std::size_t bytes) {
    if (node < received_by_node_.size()) {
      received_by_node_[node].messages += 1;
      received_by_node_[node].bytes += bytes;
    }
  }

  MsgTotals SentBy(std::uint32_t node) const {
    return node < sent_by_node_.size() ? sent_by_node_[node] : MsgTotals{};
  }
  MsgTotals ReceivedBy(std::uint32_t node) const {
    return node < received_by_node_.size() ? received_by_node_[node]
                                           : MsgTotals{};
  }

  void Bump(Ev ev, std::uint64_t delta = 1) {
    evs_[static_cast<std::size_t>(ev)] += delta;
  }

  /// Fault-in request→reply round trip, bucketed by the reply's category
  /// (kObj plain reply, kMig reply that migrated the home; redirect hops
  /// are included in the measured trip).
  void RecordRtt(MsgCat cat, std::uint64_t ns) {
    rtt_[static_cast<std::size_t>(cat)].Record(ns);
  }
  const Histogram& Rtt(MsgCat cat) const {
    return rtt_[static_cast<std::size_t>(cat)];
  }

  void RecordLatency(Lat lat, std::uint64_t ns) {
    lat_[static_cast<std::size_t>(lat)].Record(ns);
  }
  const Histogram& Latency(Lat lat) const {
    return lat_[static_cast<std::size_t>(lat)];
  }
  /// Folds an externally accumulated histogram in (the socket transport's
  /// writer threads keep their own and merge at snapshot time).
  void MergeLatency(Lat lat, const Histogram& h) {
    lat_[static_cast<std::size_t>(lat)].Merge(h);
  }

  /// Appends one migration decision to the bounded audit ledger.
  void RecordDecision(const Decision& d) { ledger_.Record(d); }
  const DecisionLedger& Ledger() const { return ledger_; }

  /// Closes a sampling window: appends the delta of this recorder's
  /// counters since the previous call as a time-series sample tagged with
  /// `node`. The first call only establishes the baseline (no sample).
  /// Returns true if any counter moved since the previous call — the sim
  /// backend's sampler uses this to stop its tick chain once the run goes
  /// quiet. The delta cursor is transient bookkeeping: it does not travel
  /// on the wire and does not participate in Merge.
  bool SampleTimeseries(std::uint32_t node, std::int64_t now_ns);
  const Timeseries& Series() const { return series_; }

  const MsgTotals& Cat(MsgCat cat) const {
    return by_cat_[static_cast<std::size_t>(cat)];
  }

  std::uint64_t Count(Ev ev) const {
    return evs_[static_cast<std::size_t>(ev)];
  }

  /// Total messages across categories; `include_sync=false` reproduces the
  /// paper's Figure 5 convention (sync messages are invariant and excluded).
  std::uint64_t TotalMessages(bool include_sync = true) const;

  /// Total bytes on the wire across categories.
  std::uint64_t TotalBytes(bool include_sync = true) const;

  /// Sums of the per-node attribution tables. Sends are recorded by
  /// senders, receives by receivers, so equal totals at quiescence witness
  /// that no message was lost — the cross-process conformance suite
  /// asserts exactly that on gathered multi-process stats.
  MsgTotals TotalSent() const;
  MsgTotals TotalReceived() const;

  /// Wire serialization, for gathering per-rank recorders to the lead rank
  /// of a multi-process run. Decode throws CheckError on malformed input
  /// (callers reading sockets wrap it defensively).
  void Encode(Writer& w) const;
  static Recorder Decode(Reader& r);

  void Reset();

  /// Accumulates another recorder into this one (category totals, event
  /// counters, per-node tables). Used to fold per-node recorders into run
  /// totals at the end of a measured window.
  void Merge(const Recorder& other);

 private:
  std::array<MsgTotals, kNumMsgCats> by_cat_{};
  std::array<std::uint64_t, kNumEvs> evs_{};
  std::vector<MsgTotals> sent_by_node_;
  std::vector<MsgTotals> received_by_node_;
  std::array<Histogram, kNumMsgCats> rtt_{};
  std::array<Histogram, kNumLats> lat_{};
  DecisionLedger ledger_;
  Timeseries series_;

  /// Counter values at the close of the previous sampling window (local
  /// bookkeeping for SampleTimeseries; never serialized or merged).
  struct SampleCursor {
    bool primed = false;
    std::int64_t at_ns = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t faults = 0;
    std::uint64_t migrations = 0;
    std::array<std::uint64_t, kNumMsgCats> cat_msgs{};
  };
  SampleCursor cursor_;
};

}  // namespace hmdsm::stats
