// meshbench — the repo benchmark: seeded closed-loop workloads on a forked
// 4-rank localhost mesh, checked against the sim backend.
//
//   meshbench --workload=<hot_home|writer_churn|read_share_tcp> --seed=N
//             --seconds=S --trace=<0|1> [--trace-out=FILE]
//   meshbench --repeat-check --seed=N
//
// A run generates the workload's scenario from the seed, runs it once on
// the sim backend (the reference digest and the modeled time), then
// launches the mesh again and again until S seconds have passed, each
// launch a fresh fork + connect + setup + the whole scenario. Every
// launch's digest must equal the sim's. --trace=0 prints the end-to-end
// metrics; --trace=1 alternates untraced and traced launches and prints
// the per-layer metrics, writing the last traced launch to FILE as a
// Chrome trace. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --repeat-check runs every workload twice on one seed and lists which
// per-layer metrics repeat exactly: only those may be claimed as counts.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "meshbench/launch.h"
#include "meshbench/workloads.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/workload/runner.h"

namespace {

using namespace hmdsm;
using namespace hmdsm::meshbench;

// Enough launches for a median, whatever --seconds says; the cap bounds a
// run whose launches are unexpectedly short.
constexpr std::size_t kMinLaunches = 3;
constexpr std::size_t kMinTracedLaunches = 2;
constexpr std::size_t kMaxLaunches = 256;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note = {};  // shown in the human table only
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nearest-rank quantile of raw samples.
double Quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0;
  const std::size_t k =
      std::min(v.size() - 1,
               static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

using Launches = std::vector<const Launch*>;

std::vector<std::uint64_t> Samples(const Launches& ls,
                                   std::initializer_list<Call> calls) {
  std::vector<std::uint64_t> out;
  for (const Launch* l : ls)
    for (Call c : calls) {
      const auto& s = l->samples[static_cast<std::size_t>(c)];
      out.insert(out.end(), s.begin(), s.end());
    }
  return out;
}

double Sum(const Launches& ls, const std::string& counter) {
  double total = 0;
  for (const Launch* l : ls) {
    const auto it = l->counters.find(counter);
    if (it != l->counters.end()) total += static_cast<double>(it->second);
  }
  return total;
}

double SumOps(const Launches& ls) {
  double total = 0;
  for (const Launch* l : ls) total += static_cast<double>(l->ops);
  return total;
}

double MedianOf(const Launches& ls, double (*f)(const Launch&)) {
  std::vector<double> v;
  for (const Launch* l : ls) v.push_back(f(*l));
  return Median(v);
}

double OpsPerS(const Launch& l) {
  return Ratio(static_cast<double>(l.ops), l.measured_s);
}

/// Median over launches of one RunReport quantile, ns → µs.
double MedianCounterUs(const Launches& ls, const std::string& counter) {
  std::vector<double> v;
  for (const Launch* l : ls) {
    const auto it = l->counters.find(counter);
    if (it != l->counters.end() && it->second > 0)
      v.push_back(static_cast<double>(it->second) * 1e-3);
  }
  return Median(v);
}

std::vector<Metric> EndToEnd(const Launches& ls) {
  const std::vector<std::uint64_t> access =
      Samples(ls, {Call::kRead, Call::kWrite});
  const std::string n = std::to_string(access.size()) + " samples";
  return {
      {"ops_per_s", MedianOf(ls, OpsPerS), "1/s", "median over launches"},
      {"access_p50_us", Quantile(access, 0.50) * 1e-3, "us", n},
      {"access_p95_us", Quantile(access, 0.95) * 1e-3, "us", n},
      {"msgs_per_op", Ratio(Sum(ls, "messages"), SumOps(ls)), "msgs/op",
       "all categories, sync included"},
      {"setup_s", MedianOf(ls, [](const Launch& l) { return l.setup_s; }),
       "s", "fork + connect + object creation, median over launches"},
  };
}

std::vector<Metric> PerLayer(const Launches& traced, const Launches& untraced,
                             double writes_per_launch,
                             double sim_us_per_op) {
  const auto us = [&](Call c, double q) {
    return Quantile(Samples(traced, {c}), q) * 1e-3;
  };
  const double ops = SumOps(traced);
  const double faults = Sum(traced, "fault_ins");
  const double decisions = Sum(traced, "decisions");
  const double hits = Sum(traced, "delta_hits");
  const char* kPow2 = "power-of-two resolution";
  std::vector<Metric> m = {
      {"gos.read_p50_us", us(Call::kRead, 0.50), "us"},
      {"gos.read_p95_us", us(Call::kRead, 0.95), "us"},
      {"gos.write_p50_us", us(Call::kWrite, 0.50), "us"},
      {"gos.write_p95_us", us(Call::kWrite, 0.95), "us"},
      {"gos.acquire_p50_us", us(Call::kAcquire, 0.50), "us"},
      {"gos.acquire_p95_us", us(Call::kAcquire, 0.95), "us"},
      {"gos.release_p50_us", us(Call::kRelease, 0.50), "us"},
      {"gos.barrier_p50_us", us(Call::kBarrier, 0.50), "us"},
      {"gos.barrier_p95_us", us(Call::kBarrier, 0.95), "us"},
      {"gos.create_object_us", us(Call::kCreateObject, 0.50), "us"},
      {"gos.connect_s", us(Call::kVm, 0.50) * 1e-6, "s", "lead rank"},
      {"gos.drain_s",
       MedianOf(traced, [](const Launch& l) { return l.drain_s; }), "s",
       "last worker op to Quiesce returned"},
      {"dsm.fault_ins_per_op", Ratio(faults, ops), "count/op"},
      {"dsm.diffs_per_op", Ratio(Sum(traced, "diffs"), ops), "count/op"},
      {"dsm.redirect_hops_per_fault",
       Ratio(Sum(traced, "redirect_hops"), faults), "count/fault"},
      {"dsm.home_write_ratio",
       Ratio(Sum(traced, "exclusive_home_writes"),
             writes_per_launch * static_cast<double>(traced.size())),
       "ratio"},
      {"dsm.rtt_obj_p50_us", MedianCounterUs(traced, "rtt_obj_p50_ns"), "us",
       kPow2},
      {"dsm.rtt_mig_p50_us", MedianCounterUs(traced, "rtt_mig_p50_ns"), "us",
       kPow2},
      {"core.decisions_per_op", Ratio(decisions, ops), "count/op"},
      {"core.migrate_ratio", Ratio(Sum(traced, "migrations"), decisions),
       "ratio"},
      {"core.adapt_p50_us", MedianCounterUs(traced, "adapt_p50_ns"), "us",
       kPow2},
      {"core.first_access_p50_us",
       MedianCounterUs(traced, "first_access_p50_ns"), "us", kPow2},
      {"proto.bytes_per_op", Ratio(Sum(traced, "bytes"), ops), "B/op"},
  };
  for (const char* cat : {"obj", "mig", "diff", "redir", "sync"})
    m.push_back({std::string("proto.msgs_per_op.") + cat,
                 Ratio(Sum(traced, std::string("messages.") + cat), ops),
                 "msgs/op"});
  m.insert(
      m.end(),
      {
          {"runtime.dwell_p50_us", MedianCounterUs(traced, "dwell_p50_ns"),
           "us", kPow2},
          {"runtime.dwell_p95_us", MedianCounterUs(traced, "dwell_p95_ns"),
           "us", kPow2},
          {"runtime.overflow_allocs",
           Ratio(Sum(traced, "overflow_allocs"),
                 static_cast<double>(traced.size())),
           "count", "per launch"},
          {"netio.frames_per_write",
           Ratio(Sum(traced, "wire_frames"), Sum(traced, "socket_writes")),
           "frames/write"},
          {"netio.write_p50_us",
           MedianCounterUs(traced, "socket_write_p50_ns"), "us", kPow2},
          {"netio.delta_hit_ratio",
           Ratio(hits, hits + Sum(traced, "delta_misses")), "ratio"},
          {"netio.delta_saved_bytes_per_op",
           Ratio(Sum(traced, "delta_saved_bytes"), ops), "B/op"},
          {"netio.shm_share",
           Ratio(Sum(traced, "shm_msgs"), Sum(traced, "messages")), "ratio"},
          {"netio.rx_buffer_allocs",
           Ratio(Sum(traced, "rx_buffer_allocs"),
                 static_cast<double>(traced.size())),
           "count", "per launch"},
          {"netio.hb_rtt_p50_us", MedianCounterUs(traced, "hb_rtt_p50_ns"),
           "us", kPow2},
          {"sim.modeled_us_per_op", sim_us_per_op, "us",
           "Hockney-priced sim run of the same scenario"},
          {"trace.overhead_ratio",
           Ratio(MedianOf(traced, OpsPerS), MedianOf(untraced, OpsPerS)),
           "ratio", "traced / untraced ops_per_s"},
      });
  return m;
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-32s %14.6g %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  JsonWriter j(std::cout);
  j.BeginObject();
  j.Key("correct").Bool(correct);
  j.Key("attempted").Uint(attempted);
  j.Key("failed").Uint(failed);
  j.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    j.Key(m.name).BeginObject();
    j.Key("value").Double(m.value);
    j.Key("unit").String(m.unit);
    j.EndObject();
  }
  j.EndObject().EndObject();
  std::cout << std::endl;
}

std::uint64_t Writes(const workload::Scenario& s) {
  std::uint64_t n = 0;
  for (const workload::WorkerSpec& w : s.workers)
    for (const workload::Op& op : w.program)
      n += op.kind == workload::OpKind::kWrite;
  return n;
}

/// Generates and vets the scenario, then runs the sim reference.
bool Prepare(const Workload& wl, std::uint64_t seed, workload::Scenario* s,
             workload::ScenarioResult* ref) {
  *s = wl.generate(seed);
  workload::ValidateScenario(*s);
  const std::string why = CheckOrderIndependent(*s);
  if (!why.empty()) {
    std::fprintf(stderr, "%s: scenario is not order-independent: %s\n",
                 std::string(wl.name).c_str(), why.c_str());
    return false;
  }
  gos::VmOptions sim;
  sim.nodes = kRanks;
  *ref = workload::RunScenario(sim, *s);
  return true;
}

double SimUsPerOp(const workload::ScenarioResult& ref) {
  return Ratio(ref.report.seconds * 1e6, static_cast<double>(ref.ops_executed));
}

bool Correct(const Launch& l, const workload::Scenario& s,
             const workload::ScenarioResult& ref) {
  if (!l.ok) {
    std::fprintf(stderr, "launch failed: %s\n", l.error.c_str());
    return false;
  }
  if (l.digest != ref.checksum || l.ops != s.total_ops()) {
    std::fprintf(stderr,
                 "digest mismatch: mesh %016llx (%llu ops) vs sim %016llx "
                 "(%llu ops)\n",
                 static_cast<unsigned long long>(l.digest),
                 static_cast<unsigned long long>(l.ops),
                 static_cast<unsigned long long>(ref.checksum),
                 static_cast<unsigned long long>(s.total_ops()));
    return false;
  }
  return true;
}

int RepeatCheck(std::uint64_t seed) {
  bool ok = true;
  for (const Workload& wl : Workloads()) {
    workload::Scenario s;
    workload::ScenarioResult ref;
    if (!Prepare(wl, seed, &s, &ref)) return 1;
    const Launch a = RunLaunch(wl, s, /*traced=*/false);
    const Launch b = RunLaunch(wl, s, /*traced=*/false);
    ok = Correct(a, s, ref) && Correct(b, s, ref) && ok;
    const double sim_us = SimUsPerOp(ref);
    const double writes = static_cast<double>(Writes(s));
    std::vector<Metric> ma = EndToEnd({&a});
    std::vector<Metric> mb = EndToEnd({&b});
    const std::vector<Metric> la = PerLayer({&a}, {&a}, writes, sim_us);
    const std::vector<Metric> lb = PerLayer({&b}, {&b}, writes, sim_us);
    ma.insert(ma.end(), la.begin(), la.end());
    mb.insert(mb.end(), lb.begin(), lb.end());
    std::printf("\n%s seed=%llu: count-derived metrics across two "
                "launches\n",
                std::string(wl.name).c_str(),
                static_cast<unsigned long long>(seed));
    // Only count-derived metrics are candidates: a timing can repeat by
    // coincidence (two runs landing in one histogram bucket), a metric
    // that reads 0 twice is not exercised here, and one launch cannot
    // show tracing overhead.
    std::string exact, varies, unused;
    for (std::size_t i = 0; i < ma.size(); ++i) {
      if (ma[i].unit == "us" || ma[i].unit == "s" || ma[i].unit == "1/s" ||
          ma[i].name == "trace.overhead_ratio")
        continue;
      std::string& list = ma[i].value != mb[i].value ? varies
                          : ma[i].value == 0         ? unused
                                                     : exact;
      list += " " + ma[i].name;
    }
    std::printf("  exact: %s\n  varies:%s\n  zero:  %s\n", exact.c_str(),
                varies.c_str(), unused.c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  if (flags.GetBool("repeat-check")) return RepeatCheck(seed);

  const std::string name = flags.Get("workload");
  const double seconds = flags.GetDouble("seconds", 10);
  const bool trace = flags.GetBool("trace", false);
  const std::string trace_out = flags.Get("trace-out");
  const Workload* wl = FindWorkload(name);
  if (wl == nullptr || !flags.UnusedFlags().empty()) {
    std::fprintf(stderr,
                 "usage: meshbench --workload=<hot_home|writer_churn|"
                 "read_share_tcp> --seed=N --seconds=S --trace=<0|1> "
                 "[--trace-out=FILE] | --repeat-check --seed=N\n");
    return 2;
  }

  workload::Scenario s;
  workload::ScenarioResult ref;
  if (!Prepare(*wl, seed, &s, &ref)) return 1;

  std::printf("meshbench %s seed=%llu: %u ranks, one closed-loop worker per "
              "rank, %llu ops per launch, shm=%s, trace=%d\n",
              name.c_str(), static_cast<unsigned long long>(seed), kRanks,
              static_cast<unsigned long long>(s.total_ops()),
              wl->shm ? "on" : "off (every data frame crosses loopback TCP, "
                               "not a real link)",
              trace ? 1 : 0);

  std::vector<Launch> launches;
  std::vector<bool> traced_flags;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t min_launches =
      trace ? 2 * kMinTracedLaunches : kMinLaunches;
  while (launches.size() < kMaxLaunches &&
         (launches.size() < min_launches || NowNs() < deadline)) {
    // Traced runs interleave untraced launches: their ratio is the
    // tracing overhead, measured under the same machine conditions.
    const bool traced = trace && launches.size() % 2 == 1;
    launches.push_back(RunLaunch(*wl, s, traced));
    traced_flags.push_back(traced);
    const Launch& l = launches.back();
    const std::vector<std::uint64_t> access =
        Samples({&l}, {Call::kRead, Call::kWrite});
    std::printf("  launch %2zu%s: %9.0f ops/s  access p50 %8.3f us  p95 %8.3f "
                "us  setup %6.2f ms  %s\n",
                launches.size(), traced ? " traced" : "", OpsPerS(l),
                Quantile(access, 0.50) * 1e-3, Quantile(access, 0.95) * 1e-3,
                l.setup_s * 1e3, l.ok ? "" : l.error.c_str());
  }

  Launches good_traced, good_untraced;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    if (!Correct(launches[i], s, ref)) {
      failed += s.total_ops();
      continue;
    }
    (traced_flags[i] ? good_traced : good_untraced).push_back(&launches[i]);
  }
  const std::uint64_t attempted = s.total_ops() * launches.size();
  const bool correct = failed == 0;
  std::printf("%zu launches (%zu traced), %llu of %llu ops failed, sim "
              "reference digest %016llx\n",
              launches.size(), good_traced.size(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(ref.checksum));
  std::printf("  %-32s %14.6g %-12s\n", "fail_ratio",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              "ratio");

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = EndToEnd(good_untraced);
  } else {
    metrics = PerLayer(good_traced, good_untraced,
                       static_cast<double>(Writes(s)), SimUsPerOp(ref));
    if (!trace_out.empty() && !good_traced.empty()) {
      if (WriteChromeTrace(*good_traced.back(), trace_out))
        std::printf("chrome trace of the last traced launch -> %s\n",
                    trace_out.c_str());
      else
        std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }
  PrintTable(metrics);
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
