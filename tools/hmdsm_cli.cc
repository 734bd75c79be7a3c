// hmdsm_cli — run any evaluation workload under any protocol configuration
// from the command line and print the full run report.
//
//   hmdsm_cli --app=asp --policy=AT --nodes=8 --size=256
//   hmdsm_cli --app=synthetic --policy=FT1 --repetition=2 --target=512
//   hmdsm_cli --app=sor --policy=NoHM --nodes=16 --size=512 --iterations=20
//   hmdsm_cli --app=tsp --cities=11 --policy=MH
//   hmdsm_cli --app=nbody --bodies=1024 --steps=4
//   hmdsm_cli --app=scenario --pattern=pingpong --policy=AT --nodes=8
//   hmdsm_cli --app=scenario --pattern=migratory --record=/tmp/mig.trace
//   hmdsm_cli --app=scenario --replay=/tmp/mig.trace --policy=BR
//   hmdsm_cli --app=scenario --pattern=hotspot --backend=threads
//   hmdsm_cli --app=asp --backend=threads --inject-latency
//   hmdsm_cli --app=asp --backend=sockets --nodes=4        # forks 4 ranks
//   hmdsm_cli --app=scenario --pattern=hotspot --backend=sockets \
//       --nodes=128 --ranks-per-proc=16                    # 8 processes
//   hmdsm_cli --app=sor --backend=sockets \
//       --rank=1 --peers=hostA:7000,hostB:7000             # real two-host run
//
// Protocol knobs: --policy=NoHM|FT<k>|AT|MH|BR|LF
//                 --notify=fp|manager|broadcast
//                 --piggyback=0|1  --lambda=<float>  --tinit=<float>
//                 --t0-us=<float>  --bandwidth-mbps=<float>  --seed=<int>
// Execution:      --backend=sim|threads|sockets
//                 threads: every app on real OS threads with a wall clock
//                 sockets: one OS process per node over a TCP mesh — with
//                 no --rank the CLI self-forks --nodes ranks on localhost;
//                 with --rank=R --peers=h0:p0,h1:p1,... it joins an
//                 explicit mesh (run one invocation per rank; rank 0 — the
//                 start node — prints the report)
//                 --inject-latency [--inject-scale=F]  (threads only: hold
//                 each delivery until its Hockney deadline; sim prices
//                 messages already, sockets pay real latency)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/asp.h"
#include "src/apps/nbody.h"
#include "src/apps/sor.h"
#include "src/apps/synthetic.h"
#include "src/apps/tsp.h"
#include "src/netio/launcher.h"
#include "src/stats/json.h"
#include "src/trace/trace.h"
#include "src/util/flags.h"
#include "src/util/table.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace {

using namespace hmdsm;

int Usage(const char* error) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(
      stderr,
      "usage: hmdsm_cli --app=asp|sor|nbody|tsp|synthetic|scenario [options]\n"
      "  common:    --policy=NoHM|FT<k>|AT|MH|BR|LF --nodes=N --seed=N\n"
      "             --notify=fp|manager|broadcast --piggyback=0|1\n"
      "             --lambda=F --tinit=F --t0-us=F --bandwidth-mbps=F\n"
      "             --backend=sim|threads|sockets\n"
      "               threads: every app on real OS threads + wall clock\n"
      "               sockets: processes over TCP; self-forks on localhost\n"
      "               (--nodes ranks in --nodes/--ranks-per-proc processes),\n"
      "               or joins an explicit mesh with --rank=R\n"
      "               --peers=host:port,host:port,...\n"
      "             --ranks-per-proc=K  host K consecutive ranks per OS\n"
      "               process (sockets; default 1)\n"
      "             --io-threads=N  epoll reactor threads per process\n"
      "               (sockets; default 4, independent of rank count)\n"
      "             --inject-latency [--inject-scale=F] (threads only)\n"
      "  observe:   --trace-out=FILE   Chrome/Perfetto trace JSON (sockets:\n"
      "               one shard per rank, merged by the launching parent)\n"
      "             --poll-interval=S  time-series sampling every S seconds\n"
      "               (>= 0.01; sockets: the lead also polls every rank and\n"
      "               prints a live cluster ops/s line to stderr)\n"
      "             --poll-out=FILE    persist the lead's live poll\n"
      "               snapshots as JSON (sockets only)\n"
      "             --metrics-port=P   lead serves GET /metrics (Prometheus\n"
      "               text) and /healthz (JSON) on 127.0.0.1:P for the run\n"
      "               (sockets only; 0 picks an ephemeral port, printed to\n"
      "               stderr)\n"
      "             --heartbeat-interval=MS  per-link liveness probe period\n"
      "               (sockets only; default 250, 0 disables heartbeats)\n"
      "             --shm=0|1          shared-memory rings between same-host\n"
      "               processes for data frames (sockets only; default on)\n"
      "             --audit=0|1        migration decision ledger (default on)\n"
      "             --audit-out=FILE   dump the cluster-merged decision\n"
      "               ledger as JSON (reporting rank)\n"
      "             --histograms=0|1   latency histograms (default on)\n"
      "  asp/sor:   --size=N   (sor: --iterations=N)\n"
      "  nbody:     --bodies=N --steps=N\n"
      "  tsp:       --cities=N\n"
      "  synthetic: --repetition=R --target=N --workers=W\n"
      "  scenario:  --pattern=migratory|pingpong|producer_consumer|hotspot|\n"
      "                       read_mostly|phased_writer\n"
      "             --objects=N --bytes=N --reps=N [--spec=pattern,k=v,...]\n"
      "             [--record=/path/trace] [--replay=/path/trace]\n");
  return 2;
}

std::string FmtNs(std::uint64_t ns) {
  char buf[32];
  if (ns < 10'000) {
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  } else if (ns < 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.1fus", static_cast<double>(ns) / 1e3);
  } else if (ns < 10'000'000'000ULL) {
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(ns) / 1e9);
  }
  return buf;
}

void PrintLatencies(const gos::RunReport& r) {
  Table t({"latency", "count", "p50", "p95", "p99", "max"});
  const auto add = [&t](const std::string& name, const gos::HistSummary& h) {
    if (h.count == 0) return;
    t.AddRow({name, FmtI(static_cast<long long>(h.count)), FmtNs(h.p50),
              FmtNs(h.p95), FmtNs(h.p99), FmtNs(h.max)});
  };
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    const auto cat = static_cast<stats::MsgCat>(i);
    add("rtt " + std::string(stats::MsgCatName(cat)), r.rtt[i]);
  }
  add("mailbox dwell", r.mailbox_dwell);
  add("socket write", r.socket_write_ns);
  add("migration first access", r.migration_first_access);
  add("adaptation", r.adaptation);
  if (t.rows() == 0) return;
  std::printf("\n");
  t.Print(std::cout);
}

void PrintReport(const gos::RunReport& r, bool wall_clock = false,
                 const std::string& audit_out = {}) {
  std::printf("\n%s execution time: %s\n", wall_clock ? "wall-clock" : "virtual",
              FmtSeconds(r.seconds).c_str());
  Table t({"category", "messages", "bytes"});
  for (std::size_t i = 0; i < stats::kNumMsgCats; ++i) {
    const auto cat = static_cast<stats::MsgCat>(i);
    if (r.cat[i].messages == 0) continue;
    t.AddRow({std::string(stats::MsgCatName(cat)),
              FmtI(static_cast<long long>(r.cat[i].messages)),
              FmtBytes(static_cast<double>(r.cat[i].bytes))});
  }
  t.AddRow({"total", FmtI(static_cast<long long>(r.messages)),
            FmtBytes(static_cast<double>(r.bytes))});
  t.Print(std::cout);
  std::printf(
      "\nmigrations=%llu rejections=%llu redirect-hops=%llu diffs=%llu "
      "fault-ins=%llu exclusive-home-writes=%llu\n",
      static_cast<unsigned long long>(r.migrations),
      static_cast<unsigned long long>(r.mig_rejections),
      static_cast<unsigned long long>(r.redirect_hops),
      static_cast<unsigned long long>(r.diffs_created),
      static_cast<unsigned long long>(r.fault_ins),
      static_cast<unsigned long long>(r.exclusive_home_writes));
  if (r.socket_writes > 0 || r.shm_msgs > 0) {
    std::printf(
        "wire: shm-msgs=%llu overflow-allocs=%llu rx-buffer-allocs=%llu\n",
        static_cast<unsigned long long>(r.shm_msgs),
        static_cast<unsigned long long>(r.mailbox_overflow_allocs),
        static_cast<unsigned long long>(r.rx_buffer_allocs));
  }
  if (!r.peer_health.empty()) {
    std::printf("mesh health:");
    for (const auto& p : r.peer_health) {
      std::printf(" rank%u=%s", p.primary, p.state.c_str());
      if (p.rtt_p50_us >= 0)
        std::printf("(rtt p50 %.0fus)", p.rtt_p50_us);
    }
    std::printf("\n");
  }
  PrintLatencies(r);
  if (!audit_out.empty() && stats::WriteAuditFile(audit_out, r.ledger)) {
    std::printf("audit ledger (%zu decisions, %llu dropped) -> %s\n",
                r.ledger.size(),
                static_cast<unsigned long long>(r.ledger.dropped()),
                audit_out.c_str());
  }
}

/// The scenario a `--app=scenario` invocation will run. Deterministic, so
/// the sockets launcher can size the mesh in the parent and every forked
/// rank rebuilds the identical scenario. With `force_default_nodes` (an
/// explicit --peers mesh whose size doubles as the node count) the pattern
/// is sized to `default_nodes` even without a --nodes flag.
workload::Scenario BuildScenario(const Flags& flags,
                                 std::size_t default_nodes,
                                 bool force_default_nodes = false) {
  const std::string replay = flags.Get("replay");
  if (!replay.empty()) return workload::LoadScenario(replay);
  workload::PatternParams params;
  const std::string spec = flags.Get("spec");
  if (!spec.empty()) params = workload::ParsePatternSpec(spec);
  if (flags.Has("pattern")) params.pattern = flags.Get("pattern");
  // --nodes was already consumed for vm.nodes; only an explicit flag (or
  // an explicit mesh size) may override the spec's node count.
  if (flags.Has("nodes")) {
    params.nodes = static_cast<std::uint32_t>(
        flags.GetInt("nodes", static_cast<std::int64_t>(default_nodes)));
  } else if (force_default_nodes) {
    params.nodes = static_cast<std::uint32_t>(default_nodes);
  }
  params.objects =
      static_cast<std::uint32_t>(flags.GetInt("objects", params.objects));
  params.object_bytes =
      static_cast<std::uint32_t>(flags.GetInt("bytes", params.object_bytes));
  params.repetitions =
      static_cast<std::uint32_t>(flags.GetInt("reps", params.repetitions));
  params.seed = static_cast<std::uint64_t>(
      flags.GetInt("seed", static_cast<std::int64_t>(params.seed)));
  return workload::GeneratePattern(params);
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(list.substr(start));
      break;
    }
    out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Runs the selected app in this process. On the sockets backend this is
/// one rank of the mesh; only the reporting rank prints. `prebuilt` is the
/// scenario main() already constructed for mesh sizing (sockets), so a
/// replay trace is parsed once per process, not twice.
int RunApp(const Flags& flags, gos::VmOptions vm, const std::string& app,
           const workload::Scenario* prebuilt = nullptr) {
  // On sockets the report is printed by the process hosting the start node
  // (its lead rank gathers cluster stats) — with --ranks-per-proc that is
  // the process whose primary rank opens the start node's group.
  const std::size_t rpp = std::max<std::size_t>(1, vm.sockets.ranks_per_proc);
  const bool reporting =
      vm.backend != gos::Backend::kSockets ||
      vm.sockets.rank == (vm.start_node / rpp) * rpp;
  if (reporting) {
    std::printf("app=%s policy=%s nodes=%zu notify=%s backend=%s\n",
                app.c_str(), vm.dsm.policy.c_str(), vm.nodes,
                dsm::NotifyMechanismName(vm.dsm.notify).c_str(),
                std::string(gos::BackendName(vm.backend)).c_str());
  }

  const bool wall_clock = vm.backend != gos::Backend::kSim;
  try {
    if (app == "asp") {
      apps::AspConfig cfg;
      cfg.n = static_cast<int>(flags.GetInt("size", 256));
      cfg.seed = static_cast<std::uint64_t>(
          flags.GetInt("seed", static_cast<std::int64_t>(cfg.seed)));
      const auto res = apps::RunAsp(vm, cfg);
      if (reporting) {
        std::printf("checksum: %llu\n",
                    static_cast<unsigned long long>(res.checksum));
        PrintReport(res.report, wall_clock, vm.audit_out);
      }
    } else if (app == "sor") {
      apps::SorConfig cfg;
      cfg.n = static_cast<int>(flags.GetInt("size", 256));
      cfg.iterations = static_cast<int>(flags.GetInt("iterations", 10));
      cfg.seed = static_cast<std::uint64_t>(
          flags.GetInt("seed", static_cast<std::int64_t>(cfg.seed)));
      const auto res = apps::RunSor(vm, cfg);
      if (reporting) {
        std::printf("checksum: %.6f\n", res.checksum);
        PrintReport(res.report, wall_clock, vm.audit_out);
      }
    } else if (app == "nbody") {
      apps::NbodyConfig cfg;
      cfg.bodies = static_cast<int>(flags.GetInt("bodies", 512));
      cfg.steps = static_cast<int>(flags.GetInt("steps", 4));
      cfg.seed = static_cast<std::uint64_t>(
          flags.GetInt("seed", static_cast<std::int64_t>(cfg.seed)));
      const auto res = apps::RunNbody(vm, cfg);
      if (reporting) {
        std::printf("position checksum: %.6f\n", res.position_checksum);
        PrintReport(res.report, wall_clock, vm.audit_out);
      }
    } else if (app == "tsp") {
      apps::TspConfig cfg;
      cfg.cities = static_cast<int>(flags.GetInt("cities", 10));
      cfg.seed = static_cast<std::uint64_t>(
          flags.GetInt("seed", static_cast<std::int64_t>(cfg.seed)));
      const auto res = apps::RunTsp(vm, cfg);
      if (reporting) {
        std::printf("best tour length: %d\n", res.best_length);
        PrintReport(res.report, wall_clock, vm.audit_out);
      }
    } else if (app == "synthetic") {
      apps::SyntheticConfig cfg;
      cfg.repetition = static_cast<int>(flags.GetInt("repetition", 4));
      cfg.target = flags.GetInt("target", 512);
      cfg.workers = static_cast<int>(flags.GetInt("workers", 8));
      if (vm.nodes < static_cast<std::size_t>(cfg.workers) + 1)
        vm.nodes = static_cast<std::size_t>(cfg.workers) + 1;
      const auto res = apps::RunSynthetic(vm, cfg);
      if (reporting) {
        std::printf("final count: %lld (turns: %d)\n",
                    static_cast<long long>(res.final_count), res.turns_taken);
        PrintReport(res.report, wall_clock, vm.audit_out);
      }
    } else if (app == "scenario") {
      const workload::Scenario scenario =
          prebuilt != nullptr ? *prebuilt : BuildScenario(flags, vm.nodes);
      const std::string record = flags.Get("record");
      const auto res = workload::RunScenario(vm, scenario, !record.empty());
      if (reporting) {
        std::printf("scenario: %s\nworkers=%zu objects=%zu ops=%llu "
                    "checksum=%016llx\n",
                    scenario.name.c_str(), scenario.workers.size(),
                    scenario.objects.size(),
                    static_cast<unsigned long long>(res.ops_executed),
                    static_cast<unsigned long long>(res.checksum));
        if (!record.empty()) {
          workload::SaveScenario(res.recorded, record);
          std::printf("recorded trace (%llu ops) -> %s\n",
                      static_cast<unsigned long long>(
                          res.recorded.total_ops()),
                      record.c_str());
        }
        PrintReport(res.report, wall_clock, vm.audit_out);
      }
    } else {
      return Usage("unknown --app");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    return 1;
  }

  if (reporting) {
    for (const std::string& unused : flags.UnusedFlags())
      std::fprintf(stderr, "warning: unused flag --%s\n", unused.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string app = flags.Get("app");
  if (app.empty()) return Usage("missing --app");

  gos::VmOptions vm;
  vm.nodes = static_cast<std::size_t>(flags.GetInt("nodes", 8));
  vm.dsm.policy = flags.Get("policy", "AT");
  vm.model = net::HockneyModel(flags.GetDouble("t0-us", 70.0),
                               flags.GetDouble("bandwidth-mbps", 12.5));
  vm.dsm.piggyback_diffs = flags.GetBool("piggyback", true);
  vm.dsm.adaptive.feedback_coefficient = flags.GetDouble("lambda", 1.0);
  vm.dsm.adaptive.initial_threshold = flags.GetDouble("tinit", 1.0);
  const std::string notify = flags.Get("notify", "fp");
  if (notify == "fp") {
    vm.dsm.notify = dsm::NotifyMechanism::kForwardingPointer;
  } else if (notify == "manager") {
    vm.dsm.notify = dsm::NotifyMechanism::kHomeManager;
  } else if (notify == "broadcast") {
    vm.dsm.notify = dsm::NotifyMechanism::kBroadcast;
  } else {
    return Usage("bad --notify (fp|manager|broadcast)");
  }

  const std::string backend = flags.Get("backend", "sim");
  if (backend == "sim") {
    vm.backend = gos::Backend::kSim;
  } else if (backend == "threads") {
    vm.backend = gos::Backend::kThreads;
  } else if (backend == "sockets") {
    vm.backend = gos::Backend::kSockets;
  } else {
    return Usage("bad --backend (sim|threads|sockets)");
  }
  vm.sockets.ranks_per_proc =
      static_cast<std::size_t>(flags.GetInt("ranks-per-proc", 1));
  if (vm.sockets.ranks_per_proc < 1)
    return Usage("--ranks-per-proc must be >= 1");
  if (flags.Has("ranks-per-proc") && vm.backend != gos::Backend::kSockets)
    return Usage("--ranks-per-proc needs --backend=sockets");
  vm.sockets.io_threads =
      static_cast<std::size_t>(flags.GetInt("io-threads", 4));
  if (vm.sockets.io_threads < 1) return Usage("--io-threads must be >= 1");
  vm.inject_latency = flags.GetBool("inject-latency", false);
  vm.inject_scale = flags.GetDouble("inject-scale", 1.0);
  vm.histograms = flags.GetBool("histograms", true);
  vm.trace_out = flags.Get("trace-out");
  vm.dsm.audit = flags.GetBool("audit", true);
  vm.audit_out = flags.Get("audit-out");
  vm.poll_interval_s = flags.GetDouble("poll-interval", 0.0);
  // Sub-second sampling is fine, but a pathological interval (microseconds)
  // would make the sampler the workload; clamp to 10ms.
  if (vm.poll_interval_s > 0 && vm.poll_interval_s < 0.01)
    vm.poll_interval_s = 0.01;
  vm.poll_out = flags.Get("poll-out");
  if (!vm.poll_out.empty() && vm.backend != gos::Backend::kSockets)
    return Usage("--poll-out needs --backend=sockets (the live poll plane)");
  if (flags.Has("metrics-port")) {
    if (vm.backend != gos::Backend::kSockets)
      return Usage("--metrics-port needs --backend=sockets (the mesh health "
                   "plane)");
    const std::int64_t port = flags.GetInt("metrics-port", -1);
    if (port < 0 || port > 65535)
      return Usage("--metrics-port must be 0..65535 (0 = ephemeral)");
    vm.sockets.metrics_port = static_cast<int>(port);
  }
  if (flags.Has("heartbeat-interval")) {
    if (vm.backend != gos::Backend::kSockets)
      return Usage("--heartbeat-interval needs --backend=sockets");
    const std::int64_t hb = flags.GetInt("heartbeat-interval", 250);
    if (hb < 0) return Usage("--heartbeat-interval must be >= 0 (ms)");
    vm.sockets.heartbeat_interval_ms = static_cast<std::size_t>(hb);
  }
  if (flags.Has("shm")) {
    if (vm.backend != gos::Backend::kSockets)
      return Usage("--shm needs --backend=sockets");
    vm.sockets.shm = flags.GetBool("shm", true);
  }
  const std::string rejection = gos::ValidateBackendRequest(
      vm.backend, app, flags.Has("record"), vm.inject_latency);
  if (!rejection.empty()) return Usage(rejection.c_str());

  // An explicit mesh (one CLI invocation per rank, possibly on other
  // hosts) is parsed first: its size doubles as the default node count.
  const bool explicit_mesh = flags.Has("rank") || flags.Has("peers");
  if (explicit_mesh) {
    if (vm.backend != gos::Backend::kSockets)
      return Usage("--rank/--peers need --backend=sockets");
    if (!flags.Has("rank") || !flags.Has("peers"))
      return Usage("explicit sockets mode needs both --rank and --peers");
    vm.sockets.rank = static_cast<std::uint32_t>(flags.GetInt("rank", 0));
    vm.sockets.peers = SplitCommas(flags.Get("peers"));
    if (vm.sockets.peers.size() < 2)
      return Usage("--peers needs at least two host:port entries");
    if (vm.sockets.rank >= vm.sockets.peers.size())
      return Usage("--rank is outside the --peers list");
    // With multi-rank hosting the --peers list still has one entry per
    // rank (same-process ranks repeat their process's endpoint) and each
    // invocation runs one process, so --rank must be a group primary.
    if (vm.sockets.rank % vm.sockets.ranks_per_proc != 0)
      return Usage("--rank must be a multiple of --ranks-per-proc");
    if (!flags.Has("nodes")) vm.nodes = vm.sockets.peers.size();
  }

  // The final cluster size must be known before any rank is launched: the
  // synthetic benchmark needs node 0 plus one node per worker, and a
  // scenario may declare more nodes than --nodes.
  if (app == "synthetic") {
    const auto workers = static_cast<std::size_t>(flags.GetInt("workers", 8));
    if (vm.nodes < workers + 1) vm.nodes = workers + 1;
  }
  std::optional<workload::Scenario> scenario;
  if (app == "scenario" && vm.backend == gos::Backend::kSockets) {
    try {
      scenario = BuildScenario(flags, vm.nodes, explicit_mesh);
      vm.nodes = std::max<std::size_t>(vm.nodes, scenario->nodes);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }
  const workload::Scenario* prebuilt =
      scenario.has_value() ? &*scenario : nullptr;

  if (vm.backend != gos::Backend::kSockets)
    return RunApp(flags, vm, app);

  if (explicit_mesh) {
    if (vm.nodes > vm.sockets.peers.size()) {
      std::fprintf(stderr,
                   "error: this workload needs %zu nodes but --peers lists "
                   "only %zu ranks\n",
                   vm.nodes, vm.sockets.peers.size());
      return 2;
    }
    vm.nodes = vm.sockets.peers.size();
    return RunApp(flags, vm, app, prebuilt);
  }

  if (vm.sockets.ranks_per_proc > vm.nodes)
    return Usage("--ranks-per-proc is larger than the node count");

  // Localhost: self-fork ceil(nodes / ranks_per_proc) processes over
  // pre-bound ephemeral ports (the process hosting the start node prints
  // the report).
  const int rc = netio::RunLocalMesh(
      vm.nodes, vm.sockets.ranks_per_proc,
      [&](const netio::LocalRank& self) {
        gos::VmOptions rank_vm = vm;
        rank_vm.sockets.rank = self.rank;
        rank_vm.sockets.peers = self.peers;
        rank_vm.sockets.ranks_per_proc = self.ranks_per_proc;
        rank_vm.sockets.listen_fd = self.listen_fd;
        return RunApp(flags, rank_vm, app, prebuilt);
      });
  // Each rank wrote a trace shard on teardown; stitch them into one
  // Chrome/Perfetto file now that every child has exited. (An explicit
  // multi-host mesh leaves the per-rank shards in place instead.)
  if (rc == 0 && !vm.trace_out.empty())
    trace::MergeChromeShards(vm.trace_out, vm.nodes);
  return rc;
}
