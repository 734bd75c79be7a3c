#include "src/stats/decision.h"

#include <algorithm>

namespace hmdsm::stats {

void Decision::Encode(Writer& w) const {
  w.u64(obj);
  w.u32(epoch);
  w.u32(home);
  w.u32(requester);
  w.u32(consecutive_writes);
  w.u32(consecutive_writer);
  w.u64(redirects);
  w.u64(exclusive_home_writes);
  w.u64(piggyback_switches);
  w.f64(threshold);
  w.u64(object_bytes);
  w.u8(static_cast<std::uint8_t>((for_write ? 1 : 0) | (migrate ? 2 : 0)));
  w.u32(destination);
  w.i64(at_ns);
}

Decision Decision::Decode(Reader& r) {
  Decision d;
  d.obj = r.u64();
  d.epoch = r.u32();
  d.home = r.u32();
  d.requester = r.u32();
  d.consecutive_writes = r.u32();
  d.consecutive_writer = r.u32();
  d.redirects = r.u64();
  d.exclusive_home_writes = r.u64();
  d.piggyback_switches = r.u64();
  d.threshold = r.f64();
  d.object_bytes = r.u64();
  const std::uint8_t flags = r.u8();
  HMDSM_CHECK_MSG(flags <= 3, "decision flags byte " << static_cast<int>(flags)
                                                     << " is corrupt");
  d.for_write = (flags & 1) != 0;
  d.migrate = (flags & 2) != 0;
  d.destination = r.u32();
  d.at_ns = r.i64();
  return d;
}

void DecisionLedger::Merge(const DecisionLedger& other) {
  dropped_ += other.dropped_;
  for (const Decision& d : other.decisions_) Record(d);
}

std::vector<Decision> DecisionLedger::Sorted() const {
  std::vector<Decision> out(decisions_.begin(), decisions_.end());
  std::stable_sort(out.begin(), out.end(),
                   [](const Decision& a, const Decision& b) {
                     return a.at_ns < b.at_ns;
                   });
  return out;
}

void DecisionLedger::Encode(Writer& w) const {
  w.u64(dropped_);
  w.u32(static_cast<std::uint32_t>(decisions_.size()));
  for (const Decision& d : decisions_) d.Encode(w);
}

DecisionLedger DecisionLedger::Decode(Reader& r) {
  DecisionLedger ledger;
  ledger.dropped_ = r.u64();
  // The record count comes off the wire: bound it by the capacity and by
  // the bytes actually present before any allocation.
  const std::uint32_t count = r.u32();
  HMDSM_CHECK_MSG(count <= kCapacity && count <= r.remaining() / kWireBytes,
                  "decision ledger count " << count << " is corrupt");
  for (std::uint32_t i = 0; i < count; ++i)
    ledger.decisions_.push_back(Decision::Decode(r));
  return ledger;
}

}  // namespace hmdsm::stats
