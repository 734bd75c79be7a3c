// Cross-backend equivalence: the same scenario must produce the same data
// on the deterministic simulator and on real OS threads.
//
// `ScenarioResult::checksum` digests every byte the workers read plus the
// final contents of every shared object, so equality means the protocol
// preserved data integrity under genuine concurrency — whatever the
// interleaving of migrations, redirects, lock handoffs, and diffs was.
// Timing-dependent metrics (seconds, message counts) are backend-specific
// and deliberately not compared.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace hmdsm::workload {
namespace {

gos::VmOptions Opts(const std::string& policy,
                    gos::Backend backend = gos::Backend::kSim) {
  gos::VmOptions vm;
  vm.nodes = 4;
  vm.dsm.policy = policy;
  vm.backend = backend;
  return vm;
}

PatternParams Params(const std::string& pattern, std::uint64_t seed = 7) {
  PatternParams p;
  p.pattern = pattern;
  p.nodes = 4;
  p.objects = 2;
  p.object_bytes = 64;
  p.repetitions = 3;
  p.seed = seed;
  return p;
}

class AllPatterns : public ::testing::TestWithParam<std::string> {};

TEST_P(AllPatterns, ChecksumMatchesAcrossBackends) {
  const Scenario scenario = GeneratePattern(Params(GetParam()));
  const ScenarioResult sim = RunScenario(Opts("AT"), scenario);
  const ScenarioResult thr =
      RunScenario(Opts("AT", gos::Backend::kThreads), scenario);
  EXPECT_EQ(sim.checksum, thr.checksum) << GetParam();
  EXPECT_EQ(sim.ops_executed, thr.ops_executed);
  EXPECT_EQ(thr.ops_executed, scenario.total_ops());
}

TEST_P(AllPatterns, ThreadsBackendIsDataDeterministicAcrossRuns) {
  const Scenario scenario = GeneratePattern(Params(GetParam(), 13));
  const gos::VmOptions opts = Opts("AT", gos::Backend::kThreads);
  const std::uint64_t first = RunScenario(opts, scenario).checksum;
  for (int run = 0; run < 2; ++run)
    EXPECT_EQ(RunScenario(opts, scenario).checksum, first) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(SixCanonical, AllPatterns,
                         ::testing::Values("migratory", "pingpong",
                                           "producer_consumer", "hotspot",
                                           "read_mostly", "phased_writer"),
                         [](const auto& info) { return info.param; });

TEST(CrossBackend, AgreesUnderAggressiveMigrationAndEveryNotify) {
  // MH migrates on every remote request — the maximum-migration stress —
  // under each notification mechanism.
  const Scenario scenario = GeneratePattern(Params("migratory", 3));
  for (auto notify : {dsm::NotifyMechanism::kForwardingPointer,
                      dsm::NotifyMechanism::kHomeManager,
                      dsm::NotifyMechanism::kBroadcast}) {
    gos::VmOptions sim_opts = Opts("MH");
    sim_opts.dsm.notify = notify;
    gos::VmOptions thr_opts = sim_opts;
    thr_opts.backend = gos::Backend::kThreads;
    EXPECT_EQ(RunScenario(sim_opts, scenario).checksum,
              RunScenario(thr_opts, scenario).checksum)
        << dsm::NotifyMechanismName(notify);
  }
}

TEST(CrossBackend, ThreadsReplaysATraceRecordedOnSim) {
  // Record under the deterministic simulator, replay the captured access
  // stream on real threads: data must agree with the sim replay.
  const Scenario scenario = GeneratePattern(Params("producer_consumer", 5));
  const ScenarioResult recorded =
      RunScenario(Opts("AT"), scenario, /*record=*/true);
  ASSERT_EQ(recorded.recorded.total_ops(), scenario.total_ops());
  const ScenarioResult sim_replay = RunScenario(Opts("FT1"),
                                                recorded.recorded);
  const ScenarioResult thr_replay =
      RunScenario(Opts("FT1", gos::Backend::kThreads), recorded.recorded);
  EXPECT_EQ(sim_replay.checksum, thr_replay.checksum);
}

/// Two workers on node 1 and one on node 2 share lock 0, managed at node
/// 0. First only worker 0 takes it, so the lock stays at node 1 between
/// its critical sections; after a barrier all three contend for it, and
/// the first acquire to reach the manager recalls it. Each object has one
/// writer, so every value read is fixed by program order and barriers.
/// Workers 0 and 1 write objects homed at nodes 1 and 2, so their releases
/// carry nothing to the manager; worker 2 writes one homed at the manager,
/// so its releases carry a diff and send the lock back.
Scenario KeptThenContendedLock() {
  Scenario s;
  s.name = "kept_then_contended";
  s.nodes = 3;
  // Homes of objects 0, 1 (worker 0), 2 (worker 1) and 3 (worker 2).
  for (NodeId home : {1, 2, 2, 0}) s.objects.push_back({64, home});
  s.lock_managers = {0};
  s.barrier_managers = {0};
  const auto section = [](std::vector<Op>& prog,
                          std::initializer_list<std::uint32_t> objs) {
    prog.push_back({OpKind::kAcquire, 0, 0});
    for (std::uint32_t o : objs) {
      prog.push_back({OpKind::kWrite, o, 8});
      prog.push_back({OpKind::kRead, o, 0});
    }
    prog.push_back({OpKind::kRelease, 0, 0});
  };
  const std::pair<NodeId, std::vector<std::uint32_t>> workers[] = {
      {1, {0, 1}}, {1, {2}}, {2, {3}}};
  for (std::size_t w = 0; w < 3; ++w) {
    WorkerSpec spec;
    spec.node = workers[w].first;
    spec.name = "w" + std::to_string(w);
    const std::vector<std::uint32_t>& objs = workers[w].second;
    if (w == 0)
      for (int i = 0; i < 8; ++i) section(spec.program, {objs[0], objs[1]});
    spec.program.push_back({OpKind::kBarrier, 0, 3});
    for (int i = 0; i < 8; ++i) {
      if (objs.size() == 1) section(spec.program, {objs[0]});
      else section(spec.program, {objs[0], objs[1]});
    }
    spec.program.push_back({OpKind::kBarrier, 0, 3});
    for (std::uint32_t o = 0; o < 4; ++o)
      spec.program.push_back({OpKind::kRead, o, 0});
    s.workers.push_back(std::move(spec));
  }
  return s;
}

TEST(CrossBackend, KeptLockTurnsContendedWithTwoThreadsOnOneNode) {
  const Scenario scenario = KeptThenContendedLock();
  ValidateScenario(scenario);
  gos::VmOptions sim_opts = Opts("AT");
  sim_opts.nodes = scenario.nodes;
  gos::VmOptions thr_opts = sim_opts;
  thr_opts.backend = gos::Backend::kThreads;
  const ScenarioResult sim = RunScenario(sim_opts, scenario);
  EXPECT_GT(sim.report.lock_local_acquires, 0u);
  EXPECT_GT(sim.report.lock_recalls, 0u);
  for (int run = 0; run < 3; ++run) {
    const ScenarioResult thr = RunScenario(thr_opts, scenario);
    EXPECT_EQ(thr.checksum, sim.checksum) << "run " << run;
    EXPECT_EQ(thr.ops_executed, scenario.total_ops());
    // Worker 0 alone keeps the lock; the first contended acquire recalls.
    EXPECT_GT(thr.report.lock_local_acquires, 0u) << "run " << run;
    EXPECT_GT(thr.report.lock_recalls, 0u) << "run " << run;
  }
}

TEST(CrossBackend, ThreadsReportsWallClockAndRealTraffic) {
  const Scenario scenario = GeneratePattern(Params("hotspot", 2));
  const ScenarioResult thr =
      RunScenario(Opts("AT", gos::Backend::kThreads), scenario);
  // Wall time is positive and sane; the protocol really exchanged messages.
  EXPECT_GT(thr.report.seconds, 0.0);
  EXPECT_LT(thr.report.seconds, 60.0);
  EXPECT_GT(thr.report.messages, 0u);
  EXPECT_GT(thr.report.bytes, 0u);
  EXPECT_GT(thr.report.fault_ins, 0u);
}

}  // namespace
}  // namespace hmdsm::workload
