#include "src/core/policy.h"

#include <algorithm>
#include <cmath>

#include "src/core/coefficient.h"

namespace hmdsm::core {

// ---------------------------------------------------------------------------
// ObjPolicyState serialization (travels inside migration replies)
// ---------------------------------------------------------------------------

void ObjPolicyState::Encode(Writer& w) const {
  w.f64(frozen_threshold);
  w.u32(consecutive_remote_writes);
  w.u32(consecutive_writer);
  w.u64(redirected_requests);
  w.u64(exclusive_home_writes);
  w.u32(piggyback_writer);
  w.u64(piggyback_switches);
  w.u32(sync_home);
  w.u32(epoch);
  w.u8(home_written_since_remote ? 1 : 0);
  w.f64(avg_diff_bytes);
  w.u32(diff_samples);
  w.u32(sole_recent_requester);
  w.u8(mixed_requesters ? 1 : 0);
  w.u64(write_epoch);
  w.u32(epoch_writer);
  w.u32(prev_epoch_writer);
}

ObjPolicyState ObjPolicyState::Decode(Reader& r) {
  ObjPolicyState s;
  s.frozen_threshold = r.f64();
  s.consecutive_remote_writes = r.u32();
  s.consecutive_writer = r.u32();
  s.redirected_requests = r.u64();
  s.exclusive_home_writes = r.u64();
  s.piggyback_writer = r.u32();
  s.piggyback_switches = r.u64();
  s.sync_home = r.u32();
  s.epoch = r.u32();
  s.home_written_since_remote = r.u8() != 0;
  s.avg_diff_bytes = r.f64();
  s.diff_samples = r.u32();
  s.sole_recent_requester = r.u32();
  s.mixed_requesters = r.u8() != 0;
  s.write_epoch = r.u64();
  s.epoch_writer = r.u32();
  s.prev_epoch_writer = r.u32();
  return s;
}

// ---------------------------------------------------------------------------
// Base policy
// ---------------------------------------------------------------------------

void MigrationPolicy::OnMigrated(ObjPolicyState& state, std::size_t) const {
  // Epoch counters reset; the consecutive-writer stream restarts because the
  // former writer is now the home.
  state.consecutive_remote_writes = 0;
  state.consecutive_writer = kNoNode;
  state.redirected_requests = 0;
  state.exclusive_home_writes = 0;
  state.piggyback_writer = kNoNode;
  state.piggyback_switches = 0;
  state.home_written_since_remote = false;
  state.sole_recent_requester = kNoNode;
  state.mixed_requesters = false;
  ++state.epoch;
}

// ---------------------------------------------------------------------------
// NoHM
// ---------------------------------------------------------------------------

double NoMigrationPolicy::LiveThreshold(const ObjPolicyState&,
                                        std::size_t) const {
  return std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// Fixed threshold (FTk)
// ---------------------------------------------------------------------------

FixedThresholdPolicy::FixedThresholdPolicy(std::uint32_t threshold)
    : threshold_(threshold) {
  HMDSM_CHECK_MSG(threshold_ >= 1, "fixed threshold must be >= 1");
}

std::string FixedThresholdPolicy::name() const {
  return "FT" + std::to_string(threshold_);
}

bool FixedThresholdPolicy::ShouldMigrate(const ObjPolicyState& state,
                                         NodeId requester, std::size_t,
                                         bool) const {
  return requester == state.consecutive_writer &&
         state.consecutive_remote_writes >= threshold_;
}

double FixedThresholdPolicy::LiveThreshold(const ObjPolicyState&,
                                           std::size_t) const {
  return threshold_;
}

// ---------------------------------------------------------------------------
// Adaptive threshold (AT) — the paper's protocol
// ---------------------------------------------------------------------------

AdaptiveThresholdPolicy::AdaptiveThresholdPolicy(AdaptiveParams params)
    : params_(params) {
  HMDSM_CHECK(params_.initial_threshold >= 1.0);
  HMDSM_CHECK(params_.feedback_coefficient > 0.0);
  HMDSM_CHECK(params_.half_peak_bytes > 0.0);
}

double AdaptiveThresholdPolicy::Alpha(const ObjPolicyState& state,
                                      std::size_t object_bytes) const {
  if (!std::isnan(params_.fixed_alpha)) return params_.fixed_alpha;
  // Before the first diff is observed, fall back to d = o (conservative:
  // overestimates the benefit weight slightly, but only until data arrives).
  const double d = state.diff_samples > 0 ? state.avg_diff_bytes
                                          : static_cast<double>(object_bytes);
  const double o = static_cast<double>(object_bytes);
  return params_.approximate_alpha
             ? HomeAccessCoefficientApprox(o, d, params_.half_peak_bytes)
             : HomeAccessCoefficient(o, d, params_.half_peak_bytes);
}

double AdaptiveThresholdPolicy::LiveThreshold(const ObjPolicyState& state,
                                              std::size_t object_bytes) const {
  // Paper Eq. (2): T_i = max(T_{i-1} + λ(R_i − α·E_i), T_init), evaluated
  // with the counters accumulated so far in the current epoch. S_i, the
  // piggybacks a move would lose, is negative feedback like R_i.
  const double r = static_cast<double>(state.redirected_requests);
  const double s = static_cast<double>(state.piggyback_switches);
  const double e = static_cast<double>(state.exclusive_home_writes);
  const double t = state.frozen_threshold +
                   params_.feedback_coefficient *
                       (r + s - Alpha(state, object_bytes) * e);
  return std::max(t, params_.initial_threshold);
}

bool AdaptiveThresholdPolicy::ShouldMigrate(const ObjPolicyState& state,
                                            NodeId requester,
                                            std::size_t object_bytes,
                                            bool for_write) const {
  // A sync manager that collected several writers' piggybacks takes the
  // home back when it writes: the others' diffs then ride sync messages
  // again.
  if (for_write && requester == state.sync_home) return true;
  // Paper Eq. (1): migrate when C reaches T — operationally, when the
  // consecutive writer requests the object again with C at/above the live
  // threshold.
  if (requester != state.consecutive_writer) return false;
  return static_cast<double>(state.consecutive_remote_writes) >=
         LiveThreshold(state, object_bytes);
}

void AdaptiveThresholdPolicy::OnMigrated(ObjPolicyState& state,
                                         std::size_t object_bytes) const {
  // Freeze T_i as the base for epoch i+1, then reset the epoch counters.
  state.frozen_threshold = LiveThreshold(state, object_bytes);
  MigrationPolicy::OnMigrated(state, object_bytes);
}

// ---------------------------------------------------------------------------
// Migrating home (JUMP-style baseline)
// ---------------------------------------------------------------------------

double MigratingHomePolicy::LiveThreshold(const ObjPolicyState&,
                                          std::size_t) const {
  return 0.0;
}

double LazyFlushingPolicy::LiveThreshold(const ObjPolicyState&,
                                         std::size_t) const {
  return 0.0;
}

double BarrierMigrationPolicy::LiveThreshold(const ObjPolicyState&,
                                             std::size_t) const {
  return 0.0;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<MigrationPolicy> MakePolicy(const std::string& spec,
                                            const AdaptiveParams& at_params) {
  if (spec == "NoHM" || spec == "NM") return std::make_unique<NoMigrationPolicy>();
  if (spec == "AT") return std::make_unique<AdaptiveThresholdPolicy>(at_params);
  if (spec == "MH") return std::make_unique<MigratingHomePolicy>();
  if (spec == "LF") return std::make_unique<LazyFlushingPolicy>();
  if (spec == "BR") return std::make_unique<BarrierMigrationPolicy>();
  if (spec.size() > 2 && spec.rfind("FT", 0) == 0) {
    const int k = std::stoi(spec.substr(2));
    HMDSM_CHECK_MSG(k >= 1, "bad fixed threshold in policy spec '" << spec
                                                                   << "'");
    return std::make_unique<FixedThresholdPolicy>(
        static_cast<std::uint32_t>(k));
  }
  HMDSM_CHECK_MSG(false, "unknown policy spec '" << spec << "'");
  return nullptr;
}

}  // namespace hmdsm::core
