// bench_mesh — the paper workloads over the real multi-process TCP mesh.
//
// Everything measured elsewhere in the repo is either modeled (sim) or
// in-process (threads); this bench forks one OS process per rank, wires
// them into the netio TCP mesh, and measures the fig6 scenario patterns
// (plus a fig2-family ASP run) end to end: wall-clock throughput,
// per-message overhead, and — the point of the adaptive frame batching —
// how many syscall-level socket writes the whole cluster issued for how
// many wire frames (every rank's transport folds its counters into the
// coordinator's stats gather, so the totals cover all ranks, not just the
// lead). Each workload runs through a wire ablation:
//
//   * threads + Hockney latency injection — the modeled network regime the
//     sockets numbers are compared against (same scenario, same checksum);
//   * sockets — every data frame over loopback TCP (adaptive batching on,
//     the baseline the shm rings are measured against);
//   * sockets_shm — same-host data frames on the shared-memory rings (the
//     default wire).
//
// Checksums must agree with the sim run everywhere: every throughput row
// is also a cross-backend data-integrity witness. Lead-rank metrics travel
// back to the fork parent on a pipe (the same pattern the cross-backend
// conformance suite uses).
//
// --smoke runs a two-pattern subset at tiny scale for CI; --nodes/--reps/
// --objects/--bytes override the defaults; CSV + JSON land in results/.
// --trace-out=FILE captures a Chrome/Perfetto trace of the first sockets
// run (one shard per rank, merged by the fork parent).
//
// --scaling runs the order-of-magnitude sweep instead: the hotspot pattern
// at 4/8/16/32/64/128 ranks, hosting multiple ranks per OS process so the
// process count stays at most 8 regardless of rank count (the epoll
// reactor keeps the per-process thread count flat too). ops/s and us/msg
// per rank count land in results/scaling.json.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "src/apps/asp.h"
#include "src/netio/launcher.h"
#include "src/stats/json.h"
#include "src/trace/trace.h"
#include "src/util/csv.h"
#include "src/util/flags.h"
#include "src/util/json.h"
#include "src/util/serde.h"
#include "src/util/table.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace {

using namespace hmdsm;

workload::Scenario StripDelays(workload::Scenario s) {
  for (workload::WorkerSpec& w : s.workers) {
    std::vector<workload::Op> kept;
    kept.reserve(w.program.size());
    for (const workload::Op& op : w.program)
      if (op.kind != workload::OpKind::kDelay) kept.push_back(op);
    w.program = std::move(kept);
  }
  return s;
}

/// What the lead rank measures and ships back to the fork parent. The
/// write/frame counters and latency summaries are cluster totals: every
/// rank's transport folds its window into the coordinator's stats gather.
struct MeshMetrics {
  std::uint64_t checksum = 0;
  std::uint64_t ops = 0;
  double seconds = 0;
  std::uint64_t messages = 0;
  std::uint64_t sent_messages = 0;
  std::uint64_t received_messages = 0;
  std::uint64_t socket_writes = 0;
  std::uint64_t wire_frames = 0;
  std::uint64_t wire_frames_coalesced = 0;
  std::uint64_t shm_msgs = 0;
  std::uint64_t mailbox_overflow_allocs = 0;
  std::uint64_t rx_buffer_allocs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t mig_rejections = 0;
  /// Total decision-ledger entries (live + evicted) across all ranks.
  std::uint64_t decisions = 0;
  gos::HistSummary rtt[stats::kNumMsgCats];
  gos::HistSummary mailbox_dwell;
  gos::HistSummary socket_write_ns;
  gos::HistSummary adaptation;
  /// Cluster-merged windowed counter deltas (poll-driven sampling).
  stats::Timeseries series;
};

void PackHist(Writer& w, const gos::HistSummary& h) {
  w.u64(h.count);
  w.f64(h.mean);
  w.u64(h.p50);
  w.u64(h.p95);
  w.u64(h.p99);
  w.u64(h.max);
}

gos::HistSummary UnpackHist(Reader& r) {
  gos::HistSummary h;
  h.count = r.u64();
  h.mean = r.f64();
  h.p50 = r.u64();
  h.p95 = r.u64();
  h.p99 = r.u64();
  h.max = r.u64();
  return h;
}

Bytes Pack(const MeshMetrics& m) {
  Writer w;
  w.u64(m.checksum);
  w.u64(m.ops);
  w.f64(m.seconds);
  w.u64(m.messages);
  w.u64(m.sent_messages);
  w.u64(m.received_messages);
  w.u64(m.socket_writes);
  w.u64(m.wire_frames);
  w.u64(m.wire_frames_coalesced);
  w.u64(m.shm_msgs);
  w.u64(m.mailbox_overflow_allocs);
  w.u64(m.rx_buffer_allocs);
  w.u64(m.migrations);
  w.u64(m.mig_rejections);
  w.u64(m.decisions);
  for (const gos::HistSummary& h : m.rtt) PackHist(w, h);
  PackHist(w, m.mailbox_dwell);
  PackHist(w, m.socket_write_ns);
  PackHist(w, m.adaptation);
  m.series.Encode(w);
  return w.take();
}

bool Unpack(const Bytes& blob, MeshMetrics* out) {
  if (blob.empty()) return false;
  try {
    Reader r(blob);
    out->checksum = r.u64();
    out->ops = r.u64();
    out->seconds = r.f64();
    out->messages = r.u64();
    out->sent_messages = r.u64();
    out->received_messages = r.u64();
    out->socket_writes = r.u64();
    out->wire_frames = r.u64();
    out->wire_frames_coalesced = r.u64();
    out->shm_msgs = r.u64();
    out->mailbox_overflow_allocs = r.u64();
    out->rx_buffer_allocs = r.u64();
    out->migrations = r.u64();
    out->mig_rejections = r.u64();
    out->decisions = r.u64();
    for (gos::HistSummary& h : out->rtt) h = UnpackHist(r);
    out->mailbox_dwell = UnpackHist(r);
    out->socket_write_ns = UnpackHist(r);
    out->adaptation = UnpackHist(r);
    out->series = stats::Timeseries::Decode(r);
    return r.done();
  } catch (const CheckError&) {
    return false;
  }
}

MeshMetrics FromReport(const gos::RunReport& report, std::uint64_t checksum,
                       std::uint64_t ops) {
  MeshMetrics m;
  m.checksum = checksum;
  m.ops = ops;
  m.seconds = report.seconds;
  m.messages = report.messages;
  m.sent_messages = report.sent_messages;
  m.received_messages = report.received_messages;
  m.socket_writes = report.socket_writes;
  m.wire_frames = report.wire_frames;
  m.wire_frames_coalesced = report.wire_frames_coalesced;
  m.shm_msgs = report.shm_msgs;
  m.mailbox_overflow_allocs = report.mailbox_overflow_allocs;
  m.rx_buffer_allocs = report.rx_buffer_allocs;
  m.migrations = report.migrations;
  m.mig_rejections = report.mig_rejections;
  m.decisions = report.ledger.size() + report.ledger.dropped();
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) m.rtt[i] = report.rtt[i];
  m.mailbox_dwell = report.mailbox_dwell;
  m.socket_write_ns = report.socket_write_ns;
  m.adaptation = report.adaptation;
  m.series = report.series;
  return m;
}

/// Forks a localhost mesh, runs `lead_metrics` in every rank (SPMD), and
/// returns the lead's metrics via a pipe. False when any rank failed. With
/// `trace_path` set, every rank writes a Chrome trace shard on teardown
/// and the parent merges them into one Perfetto-loadable file.
/// One wire configuration of the sockets transport under measurement.
struct WireConfig {
  std::string name;  // the row's config label
  bool shm = false;
};

bool RunOnMesh(std::size_t nodes, std::size_t ranks_per_proc,
               std::size_t io_threads, const WireConfig& wire,
               const std::string& trace_path,
               const std::function<MeshMetrics(gos::VmOptions)>& lead_metrics,
               MeshMetrics* out) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const int status = netio::RunLocalMesh(
      nodes, ranks_per_proc, [&](const netio::LocalRank& self) {
        ::close(fds[0]);
        gos::VmOptions vm;
        vm.nodes = self.peers.size();
        vm.dsm.policy = "AT";
        vm.backend = gos::Backend::kSockets;
        vm.sockets.rank = self.rank;
        vm.sockets.peers = self.peers;
        vm.sockets.ranks_per_proc = self.ranks_per_proc;
        vm.sockets.listen_fd = self.listen_fd;
        vm.sockets.io_threads = io_threads;
        vm.sockets.shm = wire.shm;
        vm.trace_out = trace_path;
        try {
          const MeshMetrics m = lead_metrics(std::move(vm));
          if (self.rank == 0) {
            const Bytes blob = Pack(m);
            if (::write(fds[1], blob.data(), blob.size()) !=
                static_cast<ssize_t>(blob.size())) {
              return 3;
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_mesh rank %u: %s\n", self.rank,
                       e.what());
          return 1;
        }
        ::close(fds[1]);
        return 0;
      });
  ::close(fds[1]);
  Bytes blob;
  Byte buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
    blob.insert(blob.end(), buf, buf + n);
  ::close(fds[0]);
  if (status == 0 && !trace_path.empty())
    trace::MergeChromeShards(trace_path, nodes);
  return status == 0 && Unpack(blob, out);
}

/// One measured configuration of one workload.
struct Row {
  std::string workload;
  std::string config;  // threads_inject | sockets | sockets_shm | ...
  MeshMetrics m;
  bool ok = false;          // run completed and metrics parsed
  bool checksum_ok = false;  // matches the sim reference
};

double UsPerMsg(const MeshMetrics& m) {
  return m.messages > 0 ? m.seconds * 1e6 / static_cast<double>(m.messages)
                        : 0.0;
}

double OpsPerSec(const MeshMetrics& m) {
  return m.seconds > 0 ? static_cast<double>(m.ops) / m.seconds : 0.0;
}

/// The --scaling sweep: the hotspot pattern at growing rank counts, each
/// run packed into at most eight OS processes via multi-rank hosting, with
/// every checksum verified against the sim. Emits results/scaling.json.
int RunScalingSweep(const Flags& flags, bool smoke) {
  std::vector<std::size_t> counts = {4, 8, 16, 32, 64, 128};
  if (smoke) counts = {4, 8};
  const auto reps = static_cast<std::uint32_t>(
      flags.GetInt("reps", smoke ? 4 : 30));
  const std::size_t max_procs =
      static_cast<std::size_t>(flags.GetInt("max-procs", 8));
  const std::size_t io_threads =
      static_cast<std::size_t>(flags.GetInt("io-threads", 4));
  // The sweep runs the default wire (shm rings on); --shm=0 sweeps TCP.
  const bool shm = flags.GetBool("shm", true);
  const WireConfig wire{shm ? "sockets_shm" : "sockets", shm};

  struct ScalePoint {
    std::size_t nodes = 0;
    std::size_t ranks_per_proc = 0;
    std::size_t procs = 0;
    MeshMetrics m;
    bool ok = false;
    bool checksum_ok = false;
  };
  std::vector<ScalePoint> points;
  bool all_ok = true;

  std::printf("scaling sweep: hotspot reps=%u, <=%zu processes per run\n\n",
              reps, max_procs);
  for (const std::size_t n : counts) {
    ScalePoint pt;
    pt.nodes = n;
    pt.ranks_per_proc = (n + max_procs - 1) / max_procs;
    pt.procs = (n + pt.ranks_per_proc - 1) / pt.ranks_per_proc;

    workload::PatternParams params;
    params.pattern = "hotspot";
    params.nodes = static_cast<std::uint32_t>(n);
    params.objects = static_cast<std::uint32_t>(flags.GetInt("objects", 4));
    params.object_bytes =
        static_cast<std::uint32_t>(flags.GetInt("bytes", 256));
    params.repetitions = reps;
    params.seed = 1;
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(params));

    gos::VmOptions sim_opts;
    sim_opts.nodes = n;
    sim_opts.dsm.policy = "AT";
    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);

    pt.ok = RunOnMesh(
        n, pt.ranks_per_proc, io_threads, wire, /*trace_path=*/{},
        [&](gos::VmOptions vm) {
          const workload::ScenarioResult res =
              workload::RunScenario(vm, scenario);
          return FromReport(res.report, res.checksum, res.ops_executed);
        },
        &pt.m);
    pt.checksum_ok = pt.ok && pt.m.checksum == sim.checksum;
    all_ok = all_ok && pt.ok && pt.checksum_ok;
    points.push_back(pt);
    std::printf("  %3zu ranks / %zu procs (rpp=%zu): %s\n", n, pt.procs,
                pt.ranks_per_proc,
                pt.ok ? (pt.checksum_ok ? "ok" : "CHECKSUM MISMATCH")
                      : "FAILED");
  }

  Table t({"ranks", "procs", "rpp", "wall ms", "ops/sec", "msgs", "us/msg",
           "writes", "frames", "data"});
  for (const ScalePoint& p : points) {
    if (!p.ok) {
      t.AddRow({FmtI(static_cast<long long>(p.nodes)),
                FmtI(static_cast<long long>(p.procs)),
                FmtI(static_cast<long long>(p.ranks_per_proc)), "-", "-",
                "-", "-", "-", "-", "FAILED"});
      continue;
    }
    t.AddRow({FmtI(static_cast<long long>(p.nodes)),
              FmtI(static_cast<long long>(p.procs)),
              FmtI(static_cast<long long>(p.ranks_per_proc)),
              FmtF(p.m.seconds * 1e3, 2),
              FmtI(static_cast<long long>(OpsPerSec(p.m))),
              FmtI(static_cast<long long>(p.m.messages)),
              FmtF(UsPerMsg(p.m), 2),
              FmtI(static_cast<long long>(p.m.socket_writes)),
              FmtI(static_cast<long long>(p.m.wire_frames)),
              p.checksum_ok ? "ok" : "MISMATCH"});
  }
  std::printf("\n");
  t.Print(std::cout);

  const std::string json_path = bench::JsonPath("scaling");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    JsonWriter j(os);
    j.BeginObject();
    j.Key("bench").String("scaling");
    j.Key("smoke").Bool(smoke);
    j.Key("pattern").String("hotspot");
    j.Key("repetitions").Uint(reps);
    j.Key("max_procs").Uint(max_procs);
    j.Key("io_threads").Uint(io_threads);
    j.Key("shm").Bool(wire.shm);
    j.Key("nodes").BeginArray();
    for (const std::size_t n : counts) j.Uint(n);
    j.EndArray();
    j.Key("points").BeginArray();
    for (const ScalePoint& p : points) {
      j.BeginObject();
      j.Key("ranks").Uint(p.nodes);
      j.Key("processes").Uint(p.procs);
      j.Key("ranks_per_proc").Uint(p.ranks_per_proc);
      j.Key("ok").Bool(p.ok);
      j.Key("checksum_ok").Bool(p.checksum_ok);
      j.Key("wall_seconds").Double(p.m.seconds);
      j.Key("ops").Uint(p.m.ops);
      j.Key("ops_per_sec").Double(OpsPerSec(p.m));
      j.Key("messages").Uint(p.m.messages);
      j.Key("us_per_msg").Double(UsPerMsg(p.m));
      j.Key("socket_writes").Uint(p.m.socket_writes);
      j.Key("wire_frames").Uint(p.m.wire_frames);
      j.Key("wire_frames_coalesced").Uint(p.m.wire_frames_coalesced);
      j.Key("shm_msgs").Uint(p.m.shm_msgs);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
    std::printf("\njson summary -> %s\n", json_path.c_str());
  }
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.Has("out")) bench::SetCsvDir(flags.Get("out"));
  const bool smoke = flags.GetBool("smoke", false);
  bench::Banner("mesh throughput",
                "fig2/fig6 workloads on the forked multi-process TCP mesh "
                "vs Hockney-injected threads");

  if (flags.GetBool("scaling", false)) return RunScalingSweep(flags, smoke);

  workload::PatternParams params;
  params.nodes = static_cast<std::uint32_t>(flags.GetInt("nodes", 4));
  params.objects = static_cast<std::uint32_t>(flags.GetInt("objects", 4));
  params.object_bytes =
      static_cast<std::uint32_t>(flags.GetInt("bytes", 256));
  params.repetitions = static_cast<std::uint32_t>(flags.GetInt(
      "reps", smoke ? 4 : (bench::FullScale() ? 64 : 16)));
  params.seed = 1;
  const std::size_t io_threads =
      static_cast<std::size_t>(flags.GetInt("io-threads", 4));

  std::vector<std::string> patterns = workload::PatternNames();
  if (smoke) patterns = {"pingpong", "hotspot"};
  const int asp_size =
      static_cast<int>(flags.GetInt("asp-size", smoke ? 12 : 32));

  // The wire ablation: plain TCP, then the same-host shm rings (--shm=0
  // drops the second row).
  const bool shm_flag = flags.GetBool("shm", true);
  std::vector<WireConfig> configs = {{"sockets", false}};
  if (shm_flag) configs.push_back({"sockets_shm", true});

  gos::VmOptions sim_opts;
  sim_opts.nodes = params.nodes;
  sim_opts.dsm.policy = "AT";
  gos::VmOptions thr_opts = sim_opts;
  thr_opts.backend = gos::Backend::kThreads;
  thr_opts.inject_latency = true;
  thr_opts.inject_scale = flags.GetDouble("inject-scale", 1.0);

  std::printf("nodes=%u objects=%u bytes=%u reps=%u policy=AT asp=%d "
              "(jitter delays stripped)%s\n\n",
              params.nodes, params.objects, params.object_bytes,
              params.repetitions, asp_size, smoke ? " [smoke]" : "");

  std::vector<Row> rows;
  bool all_ok = true;
  // The first sockets run (and only it) is traced: one merged Perfetto
  // file with events from every rank, without later runs clobbering it.
  std::string pending_trace = flags.Get("trace-out");

  // --- fig6 family: the six sharing patterns ------------------------------
  for (const std::string& pattern : patterns) {
    params.pattern = pattern;
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(params));

    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);
    const workload::ScenarioResult thr =
        workload::RunScenario(thr_opts, scenario);

    Row threads_row{pattern, "threads_inject",
                    FromReport(thr.report, thr.checksum, thr.ops_executed),
                    true, thr.checksum == sim.checksum};
    all_ok = all_ok && threads_row.checksum_ok;
    rows.push_back(threads_row);

    for (const WireConfig& wire : configs) {
      Row r;
      r.workload = pattern;
      r.config = wire.name;
      const std::string trace_path = std::exchange(pending_trace, {});
      r.ok = RunOnMesh(
          params.nodes, /*ranks_per_proc=*/1, io_threads, wire, trace_path,
          [&](gos::VmOptions vm) {
            const workload::ScenarioResult res =
                workload::RunScenario(vm, scenario);
            return FromReport(res.report, res.checksum, res.ops_executed);
          },
          &r.m);
      if (r.ok && !trace_path.empty())
        std::printf("trace (%s/%s) -> %s\n", r.workload.c_str(),
                    r.config.c_str(), trace_path.c_str());
      r.checksum_ok = r.ok && r.m.checksum == sim.checksum;
      all_ok = all_ok && r.ok && r.checksum_ok;
      rows.push_back(r);
    }
  }

  // --- fig2 family: ASP over the mesh -------------------------------------
  {
    apps::AspConfig cfg;
    cfg.n = asp_size;
    const auto sim_res = apps::RunAsp(sim_opts, cfg);
    const auto thr_res = apps::RunAsp(thr_opts, cfg);
    Row threads_row{"asp", "threads_inject",
                    FromReport(thr_res.report, thr_res.checksum, 0), true,
                    thr_res.checksum == sim_res.checksum};
    all_ok = all_ok && threads_row.checksum_ok;
    rows.push_back(threads_row);
    for (const WireConfig& wire : configs) {
      Row r;
      r.workload = "asp";
      r.config = wire.name;
      const std::string trace_path = std::exchange(pending_trace, {});
      r.ok = RunOnMesh(
          params.nodes, /*ranks_per_proc=*/1, io_threads, wire, trace_path,
          [&](gos::VmOptions vm) {
            const auto res = apps::RunAsp(vm, cfg);
            return FromReport(res.report, res.checksum, 0);
          },
          &r.m);
      if (r.ok && !trace_path.empty())
        std::printf("trace (%s/%s) -> %s\n", r.workload.c_str(),
                    r.config.c_str(), trace_path.c_str());
      r.checksum_ok = r.ok && r.m.checksum == sim_res.checksum;
      all_ok = all_ok && r.ok && r.checksum_ok;
      rows.push_back(r);
    }
  }

  // --- phase churn: decision ledger, time-series, adaptation latency ------
  // phased_writer rotates the sole writer every few epochs — the shape the
  // adaptive policy exists to chase. One audited run exercises the whole
  // decision-observability plane (ledger gather + audit JSON, poll-driven
  // per-rank sampling, phase-marker adaptation latency); the paired
  // --audit=0 run is the throughput-overhead control (compare us/msg).
  MeshMetrics churn_audit;
  bool churn_audit_ok = false;
  const std::string audit_path = bench::JsonPath("mesh_audit");
  {
    workload::PatternParams churn = params;
    churn.pattern = "phased_writer";
    // Enough writer rotations for several phase markers and a run long
    // enough for a handful of 5ms sampling windows per rank.
    churn.repetitions = std::max<std::uint32_t>(churn.repetitions, 16);
    const workload::Scenario scenario =
        StripDelays(workload::GeneratePattern(churn));
    const workload::ScenarioResult sim =
        workload::RunScenario(sim_opts, scenario);
    for (const bool audit : {true, false}) {
      Row r;
      r.workload = "phased_churn";
      r.config = audit ? "sockets_audit" : "sockets_noaudit";
      // Both audit rows run the same wire: the pair isolates audit
      // overhead, not the wire configuration.
      r.ok = RunOnMesh(
          params.nodes, /*ranks_per_proc=*/1, io_threads,
          WireConfig{r.config, shm_flag},
          /*trace_path=*/{},
          [&](gos::VmOptions vm) {
            vm.dsm.audit = audit;
            // Below the CLI's 10ms floor on purpose: the bench wants several
            // closed windows per rank inside a tens-of-ms run.
            vm.poll_interval_s = 0.005;
            const workload::ScenarioResult res =
                workload::RunScenario(vm, scenario);
            if (audit && vm.sockets.rank == 0 && !audit_path.empty())
              stats::WriteAuditFile(audit_path, res.report.ledger);
            return FromReport(res.report, res.checksum, res.ops_executed);
          },
          &r.m);
      r.checksum_ok = r.ok && r.m.checksum == sim.checksum;
      all_ok = all_ok && r.ok && r.checksum_ok;
      if (audit) {
        churn_audit = r.m;
        // Every policy consultation must be in the ledger: accepted ones
        // bumped kMigrations, declined ones kMigRejections.
        churn_audit_ok =
            r.ok && r.m.decisions == r.m.migrations + r.m.mig_rejections;
        all_ok = all_ok && churn_audit_ok;
      }
      rows.push_back(r);
    }
    std::printf(
        "phase churn (audit): decisions=%llu migrations=%llu rejections=%llu "
        "[%s]  adaptation count=%llu p50=%llu p95=%llu p99=%llu ns  "
        "series samples=%zu\n",
        static_cast<unsigned long long>(churn_audit.decisions),
        static_cast<unsigned long long>(churn_audit.migrations),
        static_cast<unsigned long long>(churn_audit.mig_rejections),
        churn_audit_ok ? "accounted" : "MISMATCH",
        static_cast<unsigned long long>(churn_audit.adaptation.count),
        static_cast<unsigned long long>(churn_audit.adaptation.p50),
        static_cast<unsigned long long>(churn_audit.adaptation.p95),
        static_cast<unsigned long long>(churn_audit.adaptation.p99),
        churn_audit.series.samples().size());
    if (!audit_path.empty())
      std::printf("audit ledger -> %s\n", audit_path.c_str());
  }

  // --- report --------------------------------------------------------------
  Table t({"workload", "config", "wall ms", "ops/sec", "msgs", "us/msg",
           "writes", "frames", "shm", "data"});
  CsvWriter csv(bench::CsvPath("mesh"));
  csv.Row({"workload", "config", "wall_seconds", "ops_per_sec", "messages",
           "us_per_msg", "socket_writes", "wire_frames",
           "wire_frames_coalesced", "shm_msgs", "checksum_ok"});
  for (const Row& r : rows) {
    if (!r.ok) {
      t.AddRow({r.workload, r.config, "-", "-", "-", "-", "-", "-", "-",
                "FAILED"});
      csv.Row({r.workload, r.config, "", "", "", "", "", "", "", "", "0"});
      continue;
    }
    t.AddRow({r.workload, r.config, FmtF(r.m.seconds * 1e3, 2),
              FmtI(static_cast<long long>(OpsPerSec(r.m))),
              FmtI(static_cast<long long>(r.m.messages)),
              FmtF(UsPerMsg(r.m), 2),
              FmtI(static_cast<long long>(r.m.socket_writes)),
              FmtI(static_cast<long long>(r.m.wire_frames)),
              FmtI(static_cast<long long>(r.m.shm_msgs)),
              r.checksum_ok ? "ok" : "MISMATCH"});
    csv.Row({r.workload, r.config, std::to_string(r.m.seconds),
             std::to_string(OpsPerSec(r.m)), std::to_string(r.m.messages),
             std::to_string(UsPerMsg(r.m)),
             std::to_string(r.m.socket_writes),
             std::to_string(r.m.wire_frames),
             std::to_string(r.m.wire_frames_coalesced),
             std::to_string(r.m.shm_msgs),
             r.checksum_ok ? "1" : "0"});
  }
  t.Print(std::cout);
  std::printf(
      "\n(sockets rows: forked %u-rank localhost mesh; writes/frames/shm are "
      "cluster totals over every rank's transport. sockets sends every data "
      "frame over loopback TCP; _shm moves same-host data frames onto "
      "shared-memory rings.\n"
      " threads_inject rows: in-process backend with per-delivery Hockney "
      "deadlines — the modeled regime the mesh is compared against.)\n",
      params.nodes);

  const std::string json_path = bench::JsonPath("mesh");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    JsonWriter j(os);
    j.BeginObject();
    j.Key("bench").String("mesh");
    j.Key("smoke").Bool(smoke);
    j.Key("nodes").Uint(params.nodes);
    j.Key("objects").Uint(params.objects);
    j.Key("object_bytes").Uint(params.object_bytes);
    j.Key("repetitions").Uint(params.repetitions);
    j.Key("asp_size").Int(asp_size);
    // Mesh shape: enough to rebuild the exact run from the JSON alone.
    j.Key("ranks_per_proc").Uint(1);
    j.Key("io_threads").Uint(io_threads);
    j.Key("shm").Bool(shm_flag);
    j.Key("rows").BeginArray();
    for (const Row& r : rows) {
      j.BeginObject();
      j.Key("workload").String(r.workload);
      j.Key("config").String(r.config);
      j.Key("ok").Bool(r.ok);
      j.Key("checksum_ok").Bool(r.checksum_ok);
      j.Key("wall_seconds").Double(r.m.seconds);
      j.Key("ops").Uint(r.m.ops);
      j.Key("ops_per_sec").Double(OpsPerSec(r.m));
      j.Key("messages").Uint(r.m.messages);
      j.Key("us_per_msg").Double(UsPerMsg(r.m));
      j.Key("socket_writes").Uint(r.m.socket_writes);
      j.Key("wire_frames").Uint(r.m.wire_frames);
      j.Key("wire_frames_coalesced").Uint(r.m.wire_frames_coalesced);
      j.Key("shm_msgs").Uint(r.m.shm_msgs);
      j.Key("mailbox_overflow_allocs").Uint(r.m.mailbox_overflow_allocs);
      j.Key("rx_buffer_allocs").Uint(r.m.rx_buffer_allocs);
      j.Key("migrations").Uint(r.m.migrations);
      j.Key("mig_rejections").Uint(r.m.mig_rejections);
      j.Key("decisions").Uint(r.m.decisions);
      // Cluster-wide latency quantiles (nanoseconds). Only populated
      // histograms appear; threads rows lack socket_write, sim-free rows
      // lack nothing DSM-side.
      j.Key("latency").BeginObject();
      const auto hist = [&j](const std::string& name,
                             const gos::HistSummary& h) {
        if (h.count == 0) return;
        j.Key(name).BeginObject();
        j.Key("count").Uint(h.count);
        j.Key("mean_ns").Double(h.mean);
        j.Key("p50_ns").Uint(h.p50);
        j.Key("p95_ns").Uint(h.p95);
        j.Key("p99_ns").Uint(h.p99);
        j.Key("max_ns").Uint(h.max);
        j.EndObject();
      };
      for (std::size_t i = 0; i < stats::kNumMsgCats; ++i)
        hist("rtt_" + std::string(stats::MsgCatName(
                          static_cast<stats::MsgCat>(i))),
             r.m.rtt[i]);
      hist("mailbox_dwell", r.m.mailbox_dwell);
      hist("socket_write", r.m.socket_write_ns);
      hist("adaptation", r.m.adaptation);
      j.EndObject();
      // Cluster-merged windowed counter deltas (one sample per rank per
      // poll window; empty unless the run sampled).
      if (!r.m.series.samples().empty()) {
        j.Key("series");
        stats::WriteTimeseriesJson(j, r.m.series);
      }
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
    std::printf("json summary -> %s\n", json_path.c_str());
  }

  return all_ok ? 0 : 1;
}
