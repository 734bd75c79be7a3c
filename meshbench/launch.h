// One benchmark launch: fork a 4-rank localhost mesh, run a scenario on
// it with a timed runner, and bring every rank's timings home.
//
// The runner stands in for workload::RunScenario so the benchmark can time
// each layer from outside: it wraps its own calls into the public gos::Vm /
// gos::Env surface (the mesh constructor, CreateObject, each Read / Write /
// Acquire / Release / Barrier, Join, Quiesce, Report) and keeps the same
// digest rule as src/workload/runner.cc — per-worker read checksums in
// worker order, then every object's final contents — by executing ops
// through the same workload::AgentShimT.
//
// Every call's duration is kept as a raw nanosecond sample (exact
// quantiles, not stats::Histogram's power-of-two buckets). A traced launch
// also keeps one span per call. Each rank process serializes its samples
// and spans into a shared anonymous mapping the fork parent reads once the
// children have exited.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "meshbench/workloads.h"
#include "src/workload/scenario.h"

namespace hmdsm::meshbench {

/// The calls a launch times (and, traced, records as spans). The first
/// group are worker Env calls; the rest run on the lead's main thread.
/// kSetup / kWorker / kDrain are root spans the others nest under.
enum class Call : std::uint8_t {
  kRead,
  kWrite,
  kAcquire,
  kRelease,
  kBarrier,
  kPhaseMark,
  kVm,            // gos::Vm constructor: fork-to-connected mesh
  kCreateObject,
  kReset,         // Vm::ResetMeasurement
  kJoin,
  kQuiesce,
  kReport,
  kSetup,
  kWorker,
  kDrain,
  kCount,
};
inline constexpr std::size_t kNumCalls = static_cast<std::size_t>(Call::kCount);

std::string_view CallName(Call call);

/// One span: [start, end) on the host's monotonic clock (shared by every
/// process of the mesh), and the index + 1 of its parent in the same lane
/// (0 for a root).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t call = 0;
  std::uint32_t parent = 0;
};

/// Samples and spans of one thread of control: lane 0 is the main thread,
/// lane 1 + w is worker w. All spans of one lane share the lane as their
/// trace id.
struct Lane {
  std::array<std::vector<std::uint64_t>, kNumCalls> samples;
  std::vector<Span> spans;
  std::int64_t last_end_ns = 0;  // when the lane's last timed call returned
};

/// Everything one launch measured, merged over its ranks.
struct Launch {
  bool ok = false;        // every rank exited 0 and the lead reported
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t ops = 0;  // ops the workers reported executing
  double setup_s = 0;     // fork → ResetMeasurement returned on the lead
  double measured_s = 0;  // ResetMeasurement returned → last Join returned
  double drain_s = 0;     // last worker op returned → Quiesce returned
  /// RunReport fields as named integers (latencies in ns, from the
  /// program's power-of-two histograms).
  std::map<std::string, std::uint64_t> counters;
  /// Per-call duration samples, all ranks and lanes merged.
  std::array<std::vector<std::uint64_t>, kNumCalls> samples;
  /// Traced launches only: lanes per rank (index = rank), and the parent's
  /// clock at fork, the zero of the exported trace.
  std::vector<std::vector<Lane>> rank_lanes;
  std::int64_t origin_ns = 0;
};

/// Forks the mesh, runs `scenario` once with the workload's transport
/// settings and every other option at its user default, and collects the
/// result. Call while the process is single-threaded.
Launch RunLaunch(const Workload& wl, const workload::Scenario& scenario,
                 bool traced);

/// Writes the launch's spans as a Chrome trace (pid = rank, tid = lane).
/// False if the file cannot be written.
bool WriteChromeTrace(const Launch& launch, const std::string& path);

std::int64_t NowNs();

}  // namespace hmdsm::meshbench
