#include "src/stats/stats.h"

#include <algorithm>

namespace hmdsm::stats {

std::string_view MsgCatName(MsgCat cat) {
  switch (cat) {
    case MsgCat::kObj: return "obj";
    case MsgCat::kMig: return "mig";
    case MsgCat::kDiff: return "diff";
    case MsgCat::kRedir: return "redir";
    case MsgCat::kSync: return "sync";
    case MsgCat::kNotify: return "notify";
    case MsgCat::kInit: return "init";
    case MsgCat::kCount: break;
  }
  return "?";
}

std::string_view EvName(Ev ev) {
  switch (ev) {
    case Ev::kFaultIns: return "fault_ins";
    case Ev::kLocalHits: return "local_hits";
    case Ev::kHomeAccesses: return "home_accesses";
    case Ev::kRemoteReads: return "remote_reads";
    case Ev::kRemoteWrites: return "remote_writes";
    case Ev::kHomeReads: return "home_reads";
    case Ev::kHomeWrites: return "home_writes";
    case Ev::kExclusiveHomeWrites: return "exclusive_home_writes";
    case Ev::kRedirectHops: return "redirect_hops";
    case Ev::kMigrations: return "migrations";
    case Ev::kMigRejections: return "mig_rejections";
    case Ev::kTwinsCreated: return "twins_created";
    case Ev::kDiffsCreated: return "diffs_created";
    case Ev::kDiffsApplied: return "diffs_applied";
    case Ev::kDiffBytes: return "diff_bytes";
    case Ev::kPiggybackedDiffs: return "piggybacked_diffs";
    case Ev::kLockAcquires: return "lock_acquires";
    case Ev::kLockHandoffs: return "lock_handoffs";
    case Ev::kGrantCopies: return "grant_copies";
    case Ev::kLockLocalAcquires: return "lock_local_acquires";
    case Ev::kLockRecalls: return "lock_recalls";
    case Ev::kBarrierWaits: return "barrier_waits";
    case Ev::kSocketWrites: return "socket_writes";
    case Ev::kWireFramesEnqueued: return "wire_frames_enqueued";
    case Ev::kWireFramesCoalesced: return "wire_frames_coalesced";
    case Ev::kShmMsgs: return "shm_msgs";
    case Ev::kMailboxOverflowAllocs: return "mailbox_overflow_allocs";
    case Ev::kRxBufferAllocs: return "rx_buffer_allocs";
    case Ev::kCount: break;
  }
  return "?";
}

std::string_view LatName(Lat lat) {
  switch (lat) {
    case Lat::kMailboxDwell: return "mailbox_dwell";
    case Lat::kSocketWrite: return "socket_write";
    case Lat::kMigFirstAccess: return "migration_first_access";
    case Lat::kAdaptation: return "adaptation";
    case Lat::kCount: break;
  }
  return "?";
}

std::uint64_t Recorder::TotalMessages(bool include_sync) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumMsgCats; ++i) {
    if (!include_sync && static_cast<MsgCat>(i) == MsgCat::kSync) continue;
    total += by_cat_[i].messages;
  }
  return total;
}

std::uint64_t Recorder::TotalBytes(bool include_sync) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kNumMsgCats; ++i) {
    if (!include_sync && static_cast<MsgCat>(i) == MsgCat::kSync) continue;
    total += by_cat_[i].bytes;
  }
  return total;
}

MsgTotals Recorder::TotalSent() const {
  MsgTotals t;
  for (const MsgTotals& n : sent_by_node_) {
    t.messages += n.messages;
    t.bytes += n.bytes;
  }
  return t;
}

MsgTotals Recorder::TotalReceived() const {
  MsgTotals t;
  for (const MsgTotals& n : received_by_node_) {
    t.messages += n.messages;
    t.bytes += n.bytes;
  }
  return t;
}

namespace {
// v2: fault-in RTT + named latency histograms.
// v3: migration decision ledger + windowed time-series samples.
constexpr std::uint8_t kRecorderSerdeVersion = 3;
}  // namespace

bool Recorder::SampleTimeseries(std::uint32_t node, std::int64_t now_ns) {
  const std::uint64_t msgs = TotalMessages();
  const std::uint64_t bytes = TotalBytes();
  const std::uint64_t faults = Count(Ev::kFaultIns);
  const std::uint64_t migrations = Count(Ev::kMigrations);
  std::array<std::uint64_t, kNumMsgCats> cat_msgs{};
  for (std::size_t c = 0; c < kNumMsgCats; ++c)
    cat_msgs[c] = by_cat_[c].messages;

  const bool moved = !cursor_.primed || msgs != cursor_.msgs ||
                     bytes != cursor_.bytes || faults != cursor_.faults ||
                     migrations != cursor_.migrations;
  if (cursor_.primed) {
    Sample s;
    s.node = node;
    s.at_ns = now_ns;
    s.dt_ns = now_ns - cursor_.at_ns;
    s.msgs = msgs - cursor_.msgs;
    s.bytes = bytes - cursor_.bytes;
    s.faults = faults - cursor_.faults;
    s.migrations = migrations - cursor_.migrations;
    for (std::size_t c = 0; c < kNumMsgCats; ++c)
      s.cat_msgs[c] = cat_msgs[c] - cursor_.cat_msgs[c];
    series_.Append(s);
  }
  cursor_.primed = true;
  cursor_.at_ns = now_ns;
  cursor_.msgs = msgs;
  cursor_.bytes = bytes;
  cursor_.faults = faults;
  cursor_.migrations = migrations;
  cursor_.cat_msgs = cat_msgs;
  return moved;
}

void Recorder::Encode(Writer& w) const {
  w.u8(kRecorderSerdeVersion);
  w.u32(static_cast<std::uint32_t>(kNumMsgCats));
  for (const MsgTotals& t : by_cat_) {
    w.u64(t.messages);
    w.u64(t.bytes);
  }
  w.u32(static_cast<std::uint32_t>(kNumEvs));
  for (std::uint64_t v : evs_) w.u64(v);
  w.u32(static_cast<std::uint32_t>(sent_by_node_.size()));
  for (const MsgTotals& t : sent_by_node_) {
    w.u64(t.messages);
    w.u64(t.bytes);
  }
  w.u32(static_cast<std::uint32_t>(received_by_node_.size()));
  for (const MsgTotals& t : received_by_node_) {
    w.u64(t.messages);
    w.u64(t.bytes);
  }
  w.u32(static_cast<std::uint32_t>(kNumMsgCats));
  for (const Histogram& h : rtt_) h.Encode(w);
  w.u32(static_cast<std::uint32_t>(kNumLats));
  for (const Histogram& h : lat_) h.Encode(w);
  ledger_.Encode(w);
  series_.Encode(w);
}

Recorder Recorder::Decode(Reader& r) {
  Recorder rec;
  const std::uint8_t version = r.u8();
  HMDSM_CHECK_MSG(version == kRecorderSerdeVersion,
                  "unsupported recorder serde version "
                      << static_cast<int>(version));
  // Table sizes come off the wire: bound them before any loop or resize so
  // a corrupt frame yields a decode error, not a giant allocation.
  const std::uint32_t cats = r.u32();
  HMDSM_CHECK_MSG(cats == kNumMsgCats, "category count mismatch: " << cats);
  for (MsgTotals& t : rec.by_cat_) {
    t.messages = r.u64();
    t.bytes = r.u64();
  }
  const std::uint32_t evs = r.u32();
  HMDSM_CHECK_MSG(evs == kNumEvs, "event count mismatch: " << evs);
  for (std::uint64_t& v : rec.evs_) v = r.u64();
  const auto read_table = [&r](std::vector<MsgTotals>& table) {
    const std::uint32_t nodes = r.u32();
    HMDSM_CHECK_MSG(nodes <= 0x10000 && nodes <= r.remaining() / 16,
                    "per-node table size " << nodes << " is corrupt");
    table.resize(nodes);
    for (MsgTotals& t : table) {
      t.messages = r.u64();
      t.bytes = r.u64();
    }
  };
  read_table(rec.sent_by_node_);
  read_table(rec.received_by_node_);
  const std::uint32_t rtts = r.u32();
  HMDSM_CHECK_MSG(rtts == kNumMsgCats, "RTT histogram count mismatch: " << rtts);
  for (Histogram& h : rec.rtt_) h = Histogram::Decode(r);
  const std::uint32_t lats = r.u32();
  HMDSM_CHECK_MSG(lats == kNumLats,
                  "latency histogram count mismatch: " << lats);
  for (Histogram& h : rec.lat_) h = Histogram::Decode(r);
  rec.ledger_ = DecisionLedger::Decode(r);
  rec.series_ = Timeseries::Decode(r);
  return rec;
}

void Recorder::Reset() {
  by_cat_.fill(MsgTotals{});
  evs_.fill(0);
  std::fill(sent_by_node_.begin(), sent_by_node_.end(), MsgTotals{});
  std::fill(received_by_node_.begin(), received_by_node_.end(), MsgTotals{});
  for (Histogram& h : rtt_) h.Reset();
  for (Histogram& h : lat_) h.Reset();
  ledger_.Reset();
  series_.Reset();
  cursor_ = SampleCursor{};
}

void Recorder::Merge(const Recorder& other) {
  for (std::size_t i = 0; i < kNumMsgCats; ++i) {
    by_cat_[i].messages += other.by_cat_[i].messages;
    by_cat_[i].bytes += other.by_cat_[i].bytes;
  }
  for (std::size_t i = 0; i < kNumEvs; ++i) evs_[i] += other.evs_[i];
  if (sent_by_node_.size() < other.sent_by_node_.size())
    sent_by_node_.resize(other.sent_by_node_.size());
  for (std::size_t n = 0; n < other.sent_by_node_.size(); ++n) {
    sent_by_node_[n].messages += other.sent_by_node_[n].messages;
    sent_by_node_[n].bytes += other.sent_by_node_[n].bytes;
  }
  if (received_by_node_.size() < other.received_by_node_.size())
    received_by_node_.resize(other.received_by_node_.size());
  for (std::size_t n = 0; n < other.received_by_node_.size(); ++n) {
    received_by_node_[n].messages += other.received_by_node_[n].messages;
    received_by_node_[n].bytes += other.received_by_node_[n].bytes;
  }
  for (std::size_t i = 0; i < kNumMsgCats; ++i) rtt_[i].Merge(other.rtt_[i]);
  for (std::size_t i = 0; i < kNumLats; ++i) lat_[i].Merge(other.lat_[i]);
  ledger_.Merge(other.ledger_);
  series_.Merge(other.series_);
}

}  // namespace hmdsm::stats
