// Cross-backend app conformance: every paper application produces the same
// answer on the threads backend (real OS threads, wall clock) as on the
// discrete-event simulator and as the serial reference — across node
// counts, and with and without Hockney latency injection. This is the
// data-integrity guarantee behind every measured number: protocol races
// (migrations vs fault-ins, redirects vs chain updates, lock handoffs vs
// diff flushes) may reorder messages, but never corrupt data.
//
// The suite's second half extends the guarantee to the sockets backend:
// every app and every generated scenario pattern is run as a real
// multi-process mesh (self-forked ranks exchanging all protocol traffic
// over localhost TCP), and the lead rank's checksum must equal the sim and
// threads answers, with gathered cluster-wide stats whose send half equals
// their receive half.
#include <gtest/gtest.h>

#include <unistd.h>

#include <functional>

#include "src/apps/asp.h"
#include "src/apps/nbody.h"
#include "src/apps/sor.h"
#include "src/apps/synthetic.h"
#include "src/apps/tsp.h"
#include "src/netio/launcher.h"
#include "src/util/serde.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

// Fork-based multi-process tests and ThreadSanitizer do not mix (TSan
// supports fork only from single-threaded processes and the forked mesh is
// anything but); the sockets half of this suite is covered by its own CI
// job instead.
#if defined(__SANITIZE_THREAD__)
#define HMDSM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HMDSM_TSAN 1
#endif
#endif
#ifndef HMDSM_TSAN
#define HMDSM_TSAN 0
#endif

#define HMDSM_SKIP_UNDER_TSAN()                                         \
  do {                                                                  \
    if (HMDSM_TSAN) GTEST_SKIP() << "fork-based mesh tests skip TSan";  \
  } while (0)

namespace hmdsm::apps {
namespace {

struct CrossParam {
  std::size_t nodes;
  bool inject;  // threads-backend Hockney latency injection
  const char* policy = "AT";
};

std::string ParamName(const ::testing::TestParamInfo<CrossParam>& info) {
  const std::string policy = info.param.policy;
  return std::to_string(info.param.nodes) + "nodes" +
         (info.param.inject ? "_inject" : "") +
         (policy == "AT" ? "" : "_" + policy);
}

gos::VmOptions Opts(std::size_t nodes, gos::Backend backend, bool inject,
                    const char* policy = "AT") {
  gos::VmOptions o;
  o.nodes = nodes;
  o.dsm.policy = policy;
  o.backend = backend;
  if (backend == gos::Backend::kThreads && inject) {
    o.inject_latency = true;
    // A tiny injected regime (t0 = 3us, 1 GB/s) exercises the deadline
    // path on every delivery while keeping the suite fast.
    o.model = net::HockneyModel(3.0, 1000.0);
  }
  return o;
}

class AppsCrossBackend : public ::testing::TestWithParam<CrossParam> {
 protected:
  std::size_t nodes() const { return GetParam().nodes; }
  gos::VmOptions Sim() const {
    return Opts(nodes(), gos::Backend::kSim, false, GetParam().policy);
  }
  gos::VmOptions Threads() const {
    return Opts(nodes(), gos::Backend::kThreads, GetParam().inject,
                GetParam().policy);
  }
};

TEST_P(AppsCrossBackend, AspMatchesSimAndSerial) {
  AspConfig cfg;
  cfg.n = 24;
  cfg.model_compute = false;
  const std::uint64_t serial = AspChecksum(SerialAsp(cfg.n, cfg.seed));
  EXPECT_EQ(RunAsp(Sim(), cfg).checksum, serial);
  EXPECT_EQ(RunAsp(Threads(), cfg).checksum, serial);
}

TEST_P(AppsCrossBackend, SorMatchesSimAndSerialBitwise) {
  SorConfig cfg;
  cfg.n = 16;
  cfg.iterations = 3;
  cfg.model_compute = false;
  // Red-black sweeps read only opposite-parity neighbors, so the result is
  // bitwise order-independent: exact equality across all three paths.
  const double serial = SorChecksum(SerialSor(cfg));
  EXPECT_DOUBLE_EQ(RunSor(Sim(), cfg).checksum, serial);
  EXPECT_DOUBLE_EQ(RunSor(Threads(), cfg).checksum, serial);
}

TEST_P(AppsCrossBackend, NbodyMatchesSimAndSerialBitwise) {
  NbodyConfig cfg;
  cfg.bodies = 32;
  cfg.steps = 2;
  cfg.model_compute = false;
  const double serial = NbodyChecksum(SerialNbody(cfg));
  EXPECT_DOUBLE_EQ(RunNbody(Sim(), cfg).position_checksum, serial);
  EXPECT_DOUBLE_EQ(RunNbody(Threads(), cfg).position_checksum, serial);
}

TEST_P(AppsCrossBackend, TspFindsTheOptimumOnBothBackends) {
  TspConfig cfg;
  cfg.cities = 8;
  cfg.model_compute = false;
  // Exploration order (and therefore message traffic) is timing-dependent
  // on the threads backend, but branch-and-bound always terminates with
  // the global optimum, and the reported tour must have that length.
  const std::int32_t optimum = SerialTspBest(cfg);
  const TspResult sim = RunTsp(Sim(), cfg);
  const TspResult thr = RunTsp(Threads(), cfg);
  EXPECT_EQ(sim.best_length, optimum);
  EXPECT_EQ(thr.best_length, optimum);
  const std::vector<std::int32_t> dist = TspInput(cfg.cities, cfg.seed);
  EXPECT_EQ(TourLength(dist, cfg.cities, sim.best_tour), optimum);
  EXPECT_EQ(TourLength(dist, cfg.cities, thr.best_tour), optimum);
}

TEST_P(AppsCrossBackend, SyntheticCounterIsExactOnBothBackends) {
  SyntheticConfig cfg;
  cfg.workers = static_cast<int>(nodes());
  cfg.repetition = 4;
  cfg.target = 24;
  cfg.model_compute = false;
  // Each turn advances the counter by `repetition` from below the target,
  // so the final count is interleaving-independent.
  const std::int64_t expected =
      (cfg.target + cfg.repetition - 1) / cfg.repetition * cfg.repetition;
  auto sim_opts = Sim();
  auto thr_opts = Threads();
  sim_opts.nodes = thr_opts.nodes = nodes() + 1;  // node 0 runs the app
  const SyntheticResult sim = RunSynthetic(sim_opts, cfg);
  const SyntheticResult thr = RunSynthetic(thr_opts, cfg);
  EXPECT_EQ(sim.final_count, expected);
  EXPECT_EQ(thr.final_count, expected);
  EXPECT_EQ(sim.turns_taken, thr.turns_taken);
}

INSTANTIATE_TEST_SUITE_P(NodeCountsAndInjection, AppsCrossBackend,
                         ::testing::Values(CrossParam{2, false},
                                           CrossParam{4, false},
                                           CrossParam{2, true},
                                           CrossParam{4, true},
                                           // Homes never move under NoHM,
                                           // so injection delays another
                                           // message mix than under AT.
                                           CrossParam{4, true, "NoHM"}),
                         ParamName);

// ---------------------------------------------------------------------------
// Sockets backend: the same conformance bar, as a real multi-process run.
// ---------------------------------------------------------------------------

/// Forks a `nodes`-rank localhost mesh of ceil(nodes / ranks_per_proc)
/// processes, runs `lead_result` in every process (SPMD — the replicas are
/// what make the closures exist everywhere), and returns the bytes the
/// process hosting rank 0 (the lead) produced, shipped back on a pipe.
Bytes RunOnSocketMesh(
    std::size_t nodes, std::size_t ranks_per_proc,
    const std::function<Bytes(gos::VmOptions)>& lead_result) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
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
        const Bytes result = lead_result(std::move(vm));
        if (self.rank == 0 && !result.empty()) {
          const auto written =
              ::write(fds[1], result.data(), result.size());
          if (written != static_cast<ssize_t>(result.size())) return 3;
        }
        ::close(fds[1]);
        return 0;
      });
  ::close(fds[1]);
  EXPECT_EQ(status, 0) << "a mesh rank failed";
  Bytes out;
  Byte buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0)
    out.insert(out.end(), buf, buf + n);
  ::close(fds[0]);
  return out;
}

/// Standard result blob: one u64 answer plus the gathered cluster stats'
/// sent/received message counts (which must balance at quiescence).
Bytes PackResult(std::uint64_t answer, const gos::RunReport& report) {
  Writer w;
  w.u64(answer);
  w.u64(report.sent_messages);
  w.u64(report.received_messages);
  w.u64(report.sent_bytes);
  w.u64(report.received_bytes);
  return w.take();
}

struct MeshResult {
  std::uint64_t answer = 0;
};

/// Unpacks and asserts the merged multi-process stats balance.
MeshResult UnpackResult(const Bytes& blob) {
  MeshResult r;
  Reader reader(blob);
  r.answer = reader.u64();
  const std::uint64_t sent_messages = reader.u64();
  const std::uint64_t received_messages = reader.u64();
  const std::uint64_t sent_bytes = reader.u64();
  const std::uint64_t received_bytes = reader.u64();
  EXPECT_GT(sent_messages, 0u) << "a multi-process run must use the wire";
  EXPECT_EQ(sent_messages, received_messages);
  EXPECT_EQ(sent_bytes, received_bytes);
  return r;
}

class AppsOnSockets : public ::testing::TestWithParam<std::size_t> {
 protected:
  std::size_t nodes() const { return GetParam(); }
};

TEST_P(AppsOnSockets, AspMatchesSimThreadsAndSerial) {
  HMDSM_SKIP_UNDER_TSAN();
  AspConfig cfg;
  cfg.n = 24;
  cfg.model_compute = false;
  const std::uint64_t serial = AspChecksum(SerialAsp(cfg.n, cfg.seed));
  EXPECT_EQ(RunAsp(Opts(nodes(), gos::Backend::kSim, false), cfg).checksum,
            serial);
  const Bytes blob = RunOnSocketMesh(nodes(), /*ranks_per_proc=*/1, [&](gos::VmOptions vm) {
    const AspResult r = RunAsp(vm, cfg);
    return PackResult(r.checksum, r.report);
  });
  EXPECT_EQ(UnpackResult(blob).answer, serial);
}

TEST_P(AppsOnSockets, SorMatchesSimThreadsAndSerialBitwise) {
  HMDSM_SKIP_UNDER_TSAN();
  SorConfig cfg;
  cfg.n = 16;
  cfg.iterations = 3;
  cfg.model_compute = false;
  const double serial = SorChecksum(SerialSor(cfg));
  const Bytes blob = RunOnSocketMesh(nodes(), /*ranks_per_proc=*/1, [&](gos::VmOptions vm) {
    const SorResult r = RunSor(vm, cfg);
    std::uint64_t bits;
    std::memcpy(&bits, &r.checksum, sizeof bits);
    return PackResult(bits, r.report);
  });
  double got;
  const std::uint64_t bits = UnpackResult(blob).answer;
  std::memcpy(&got, &bits, sizeof got);
  EXPECT_DOUBLE_EQ(got, serial);
}

TEST_P(AppsOnSockets, NbodyMatchesSimThreadsAndSerialBitwise) {
  HMDSM_SKIP_UNDER_TSAN();
  NbodyConfig cfg;
  cfg.bodies = 32;
  cfg.steps = 2;
  cfg.model_compute = false;
  const double serial = NbodyChecksum(SerialNbody(cfg));
  EXPECT_DOUBLE_EQ(
      RunNbody(Opts(nodes(), gos::Backend::kSim, false), cfg)
          .position_checksum,
      serial);
  const Bytes blob = RunOnSocketMesh(nodes(), /*ranks_per_proc=*/1, [&](gos::VmOptions vm) {
    const NbodyResult r = RunNbody(vm, cfg);
    std::uint64_t bits;
    std::memcpy(&bits, &r.position_checksum, sizeof bits);
    return PackResult(bits, r.report);
  });
  double got;
  const std::uint64_t bits = UnpackResult(blob).answer;
  std::memcpy(&got, &bits, sizeof got);
  EXPECT_DOUBLE_EQ(got, serial);
}

TEST_P(AppsOnSockets, TspFindsTheOptimum) {
  HMDSM_SKIP_UNDER_TSAN();
  TspConfig cfg;
  cfg.cities = 8;
  cfg.model_compute = false;
  const std::int32_t optimum = SerialTspBest(cfg);
  const Bytes blob = RunOnSocketMesh(nodes(), /*ranks_per_proc=*/1, [&](gos::VmOptions vm) {
    const TspResult r = RunTsp(vm, cfg);
    return PackResult(static_cast<std::uint64_t>(r.best_length), r.report);
  });
  EXPECT_EQ(UnpackResult(blob).answer,
            static_cast<std::uint64_t>(optimum));
}

TEST_P(AppsOnSockets, SyntheticCounterIsExact) {
  HMDSM_SKIP_UNDER_TSAN();
  SyntheticConfig cfg;
  cfg.workers = static_cast<int>(nodes());
  cfg.repetition = 4;
  cfg.target = 24;
  cfg.model_compute = false;
  const std::int64_t expected =
      (cfg.target + cfg.repetition - 1) / cfg.repetition * cfg.repetition;
  // Note: turns_taken is process-local (ghost mains host no workers), so
  // only the shared-memory answer — the counter — crosses the mesh.
  const Bytes blob =
      RunOnSocketMesh(nodes() + 1, /*ranks_per_proc=*/1,
                      [&](gos::VmOptions vm) {
        const SyntheticResult r = RunSynthetic(vm, cfg);
        return PackResult(static_cast<std::uint64_t>(r.final_count),
                          r.report);
      });
  EXPECT_EQ(UnpackResult(blob).answer,
            static_cast<std::uint64_t>(expected));
}

TEST_P(AppsOnSockets, EveryScenarioPatternMatchesSimAndThreads) {
  HMDSM_SKIP_UNDER_TSAN();
  for (const char* pattern :
       {"migratory", "pingpong", "producer_consumer", "hotspot",
        "read_mostly", "phased_writer"}) {
    workload::PatternParams params;
    params.pattern = pattern;
    params.nodes = static_cast<std::uint32_t>(nodes());
    const workload::Scenario scenario = workload::GeneratePattern(params);

    gos::VmOptions sim = Opts(nodes(), gos::Backend::kSim, false);
    gos::VmOptions threads = Opts(nodes(), gos::Backend::kThreads, false);
    const auto sim_res = workload::RunScenario(sim, scenario);
    const auto thr_res = workload::RunScenario(threads, scenario);
    EXPECT_EQ(sim_res.checksum, thr_res.checksum) << pattern;

    const Bytes blob = RunOnSocketMesh(nodes(), /*ranks_per_proc=*/1, [&](gos::VmOptions vm) {
      const auto r = workload::RunScenario(vm, scenario);
      return PackResult(r.checksum, r.report);
    });
    EXPECT_EQ(UnpackResult(blob).answer, sim_res.checksum) << pattern;
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, AppsOnSockets,
                         ::testing::Values(std::size_t{2}, std::size_t{4}),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return std::to_string(i.param) + "nodes";
                         });

// Multi-rank hosting: 8 ranks packed into 2 OS processes (4 per process).
// Same-process rank pairs exchange through local mailboxes while
// cross-process traffic takes the wire; the answers and the gathered
// cluster stats balance must be exactly what the flat 8-process mesh (and
// the sim) produce.
TEST(AppsOnSocketsMultiRank, HotspotEightRanksInTwoProcesses) {
  HMDSM_SKIP_UNDER_TSAN();
  workload::PatternParams params;
  params.pattern = "hotspot";
  params.nodes = 8;
  const workload::Scenario scenario = workload::GeneratePattern(params);
  const auto sim_res = workload::RunScenario(
      Opts(8, gos::Backend::kSim, false), scenario);
  const Bytes blob =
      RunOnSocketMesh(8, /*ranks_per_proc=*/4, [&](gos::VmOptions vm) {
        const auto r = workload::RunScenario(vm, scenario);
        return PackResult(r.checksum, r.report);
      });
  EXPECT_EQ(UnpackResult(blob).answer, sim_res.checksum);
}

/// Ships the checksum plus the shm counter so the lead test process can see
/// whether the rings actually carried data cluster-wide, and the sample
/// counts of the mailbox-dwell and socket-write histograms.
Bytes PackHotPathResult(std::uint64_t answer, const gos::RunReport& report) {
  Writer w;
  w.u64(answer);
  w.u64(report.sent_messages);
  w.u64(report.received_messages);
  w.u64(report.shm_msgs);
  w.u64(report.mailbox_dwell.count);
  w.u64(report.socket_write_ns.count);
  return w.take();
}

// 8 ranks in 2 co-located processes with the shared-memory rings
// explicitly on. The answer must still equal the sim's, and the counter
// must show data frames genuinely rode the rings.
TEST(AppsOnSocketsMultiRank, HotspotEightRanksWithShm) {
  HMDSM_SKIP_UNDER_TSAN();
  workload::PatternParams params;
  params.pattern = "hotspot";
  params.nodes = 8;
  const workload::Scenario scenario = workload::GeneratePattern(params);
  const auto sim_res = workload::RunScenario(
      Opts(8, gos::Backend::kSim, false), scenario);
  const Bytes blob =
      RunOnSocketMesh(8, /*ranks_per_proc=*/4, [&](gos::VmOptions vm) {
        vm.sockets.shm = true;
        const auto r = workload::RunScenario(vm, scenario);
        return PackHotPathResult(r.checksum, r.report);
      });
  Reader reader(blob);
  EXPECT_EQ(reader.u64(), sim_res.checksum);
  const std::uint64_t sent_messages = reader.u64();
  EXPECT_EQ(sent_messages, reader.u64()) << "message conservation";
  EXPECT_GT(reader.u64(), 0u) << "co-located data frames should ride shm";
}

// The same run with shm explicitly off is the control: identical answer,
// and the counter proves the rings stayed cold.
TEST(AppsOnSocketsMultiRank, HotspotEightRanksPlainWireControl) {
  HMDSM_SKIP_UNDER_TSAN();
  workload::PatternParams params;
  params.pattern = "hotspot";
  params.nodes = 8;
  const workload::Scenario scenario = workload::GeneratePattern(params);
  const auto sim_res = workload::RunScenario(
      Opts(8, gos::Backend::kSim, false), scenario);
  const Bytes blob =
      RunOnSocketMesh(8, /*ranks_per_proc=*/4, [&](gos::VmOptions vm) {
        vm.sockets.shm = false;
        const auto r = workload::RunScenario(vm, scenario);
        return PackHotPathResult(r.checksum, r.report);
      });
  Reader reader(blob);
  EXPECT_EQ(reader.u64(), sim_res.checksum);
  const std::uint64_t sent_messages = reader.u64();
  EXPECT_EQ(sent_messages, reader.u64());
  EXPECT_EQ(reader.u64(), 0u) << "shm was off";
  EXPECT_GT(reader.u64(), 0u) << "every delivered packet is dwell-stamped";
  EXPECT_GT(reader.u64(), 0u) << "every wire write is timed";
}

TEST(AppsOnSocketsMultiRank, AspEightRanksInTwoProcesses) {
  HMDSM_SKIP_UNDER_TSAN();
  AspConfig cfg;
  cfg.n = 24;
  cfg.model_compute = false;
  const std::uint64_t serial = AspChecksum(SerialAsp(cfg.n, cfg.seed));
  const Bytes blob =
      RunOnSocketMesh(8, /*ranks_per_proc=*/4, [&](gos::VmOptions vm) {
        const AspResult r = RunAsp(vm, cfg);
        return PackResult(r.checksum, r.report);
      });
  EXPECT_EQ(UnpackResult(blob).answer, serial);
}

// The end-of-run gather while the live poll thread runs: both are rounds
// of one StatsPoll sequence, so a poll reply may answer the gather and a
// gather reply may answer a poll. The report must still be complete — the
// answer, balanced cluster stats, and a time series from every rank.
TEST(AppsOnSocketsMultiRank, ReportDuringLivePollingIsComplete) {
  HMDSM_SKIP_UNDER_TSAN();
  workload::PatternParams params;
  params.pattern = "hotspot";
  params.nodes = 8;
  params.repetitions = 200;  // tens of ms: several polls before the gather
  const workload::Scenario scenario = workload::GeneratePattern(params);
  const auto sim_res = workload::RunScenario(
      Opts(8, gos::Backend::kSim, false), scenario);
  const Bytes blob =
      RunOnSocketMesh(8, /*ranks_per_proc=*/4, [&](gos::VmOptions vm) {
        vm.poll_interval_s = 0.005;
        const auto r = workload::RunScenario(vm, scenario);
        std::uint64_t sampled = 0;  // bit n: the series has a rank-n sample
        for (const stats::Sample& sample : r.report.series.samples())
          sampled |= std::uint64_t{1} << sample.node;
        Writer w(PackResult(r.checksum, r.report));
        w.u64(sampled);
        return w.take();
      });
  ASSERT_EQ(blob.size(), 6 * sizeof(std::uint64_t));
  EXPECT_EQ(UnpackResult(blob).answer, sim_res.checksum);
  Reader reader(ByteSpan(blob).subspan(5 * sizeof(std::uint64_t)));
  EXPECT_EQ(reader.u64(), 0xFFu) << "every rank's series reaches the report";
}

// The measured clock must actually reflect injected latency: the same app
// with a fat injected t0 takes measurably longer than without injection.
TEST(AppsCrossBackendTiming, InjectionStretchesWallClock) {
  AspConfig cfg;
  cfg.n = 16;
  cfg.model_compute = false;
  gos::VmOptions fast = Opts(2, gos::Backend::kThreads, false);
  gos::VmOptions slow = fast;
  slow.inject_latency = true;
  slow.model = net::HockneyModel(/*startup_us=*/2000.0, /*mbps=*/12.5);
  const AspResult a = RunAsp(fast, cfg);
  const AspResult b = RunAsp(slow, cfg);
  EXPECT_EQ(a.checksum, b.checksum);
  // n=16 iterations of barrier + remote row fetches, each round trip >= 4ms
  // injected: the slow run cannot complete in under 50ms of measured time.
  EXPECT_GT(b.report.seconds, 0.05);
  EXPECT_GT(b.report.seconds, a.report.seconds);
}

}  // namespace
}  // namespace hmdsm::apps
