// Workload subsystem: pattern generation, cross-policy execution, and
// determinism guarantees.
#include "src/workload/patterns.h"

#include <gtest/gtest.h>

#include "meshbench/workloads.h"
#include "src/workload/runner.h"

namespace hmdsm::workload {
namespace {

PatternParams SmallParams(const std::string& pattern, std::uint64_t seed = 7) {
  PatternParams p;
  p.pattern = pattern;
  p.nodes = 4;
  p.objects = 2;
  p.object_bytes = 64;
  p.repetitions = 3;
  p.seed = seed;
  return p;
}

ScenarioResult RunUnder(const Scenario& scenario, const std::string& policy) {
  gos::VmOptions vm;
  vm.nodes = scenario.nodes;
  vm.dsm.policy = policy;
  return RunScenario(vm, scenario);
}

TEST(Patterns, NamesAreTheSixCanonicalOnes) {
  EXPECT_EQ(PatternNames().size(), 6u);
  for (const std::string& name : PatternNames())
    EXPECT_TRUE(IsPatternName(name)) << name;
  EXPECT_FALSE(IsPatternName("tornado"));
}

TEST(Patterns, UnknownPatternThrows) {
  EXPECT_THROW(GeneratePattern(SmallParams("tornado")), CheckError);
}

TEST(Patterns, GenerationIsDeterministic) {
  for (const std::string& name : PatternNames()) {
    const Scenario a = GeneratePattern(SmallParams(name));
    const Scenario b = GeneratePattern(SmallParams(name));
    EXPECT_EQ(a, b) << name;
  }
}

TEST(Patterns, SeedOnlyPerturbsTiming) {
  for (const std::string& name : PatternNames()) {
    const Scenario a = GeneratePattern(SmallParams(name, /*seed=*/1));
    const Scenario b = GeneratePattern(SmallParams(name, /*seed=*/2));
    ASSERT_EQ(a.workers.size(), b.workers.size()) << name;
    for (std::size_t w = 0; w < a.workers.size(); ++w) {
      // Strip the jitter delays: the remaining access/sync streams must be
      // identical across seeds.
      auto strip = [](const std::vector<Op>& prog) {
        std::vector<Op> out;
        for (const Op& op : prog)
          if (op.kind != OpKind::kDelay) out.push_back(op);
        return out;
      };
      EXPECT_EQ(strip(a.workers[w].program), strip(b.workers[w].program))
          << name << " worker " << w;
    }
  }
}

// Acceptance: all six patterns exercised across at least AT, FT1, and NoHM.
TEST(Patterns, AllPatternsRunUnderAtFt1NoHm) {
  for (const std::string& name : PatternNames()) {
    const Scenario scenario = GeneratePattern(SmallParams(name));
    for (const char* policy : {"AT", "FT1", "NoHM"}) {
      const ScenarioResult res = RunUnder(scenario, policy);
      EXPECT_EQ(res.ops_executed, scenario.total_ops())
          << name << " under " << policy;
      EXPECT_GT(res.report.messages, 0u) << name << " under " << policy;
      EXPECT_GT(res.report.seconds, 0.0) << name << " under " << policy;
    }
  }
}

// Acceptance: same scenario + seed => identical stats::Recorder totals.
TEST(Patterns, SameScenarioSameSeedIsBitDeterministic) {
  for (const std::string& name : PatternNames()) {
    const Scenario scenario = GeneratePattern(SmallParams(name));
    const ScenarioResult a = RunUnder(scenario, "AT");
    const ScenarioResult b = RunUnder(scenario, "AT");
    EXPECT_EQ(a.checksum, b.checksum) << name;
    EXPECT_EQ(a.report.seconds, b.report.seconds) << name;
    for (std::size_t c = 0; c < stats::kNumMsgCats; ++c) {
      EXPECT_EQ(a.report.cat[c].messages, b.report.cat[c].messages)
          << name << " cat " << c;
      EXPECT_EQ(a.report.cat[c].bytes, b.report.cat[c].bytes)
          << name << " cat " << c;
    }
  }
}

TEST(Patterns, MigratoryMigratesUnderAtButNotNoHm) {
  const Scenario scenario = GeneratePattern(SmallParams("migratory"));
  EXPECT_GT(RunUnder(scenario, "AT").report.migrations, 0u);
  EXPECT_GT(RunUnder(scenario, "FT1").report.migrations, 0u);
  EXPECT_EQ(RunUnder(scenario, "NoHM").report.migrations, 0u);
}

TEST(Patterns, PingpongAlternationDefeatsConsecutiveCounting) {
  // Strictly alternating writers never accumulate C >= T at the moment the
  // same node re-faults, so threshold policies keep the home put while MH
  // chases every fault.
  const Scenario scenario = GeneratePattern(SmallParams("pingpong"));
  EXPECT_EQ(RunUnder(scenario, "AT").report.migrations, 0u);
  EXPECT_EQ(RunUnder(scenario, "FT1").report.migrations, 0u);
  EXPECT_GT(RunUnder(scenario, "MH").report.migrations, 0u);
}

TEST(Patterns, PhasedWriterFavorsBarrierMigration) {
  const Scenario scenario = GeneratePattern(SmallParams("phased_writer"));
  EXPECT_GT(RunUnder(scenario, "BR").report.migrations, 0u);
  // The sole-writer phases also give AT its positive-feedback case.
  EXPECT_GT(RunUnder(scenario, "AT").report.migrations, 0u);
}

TEST(Patterns, HotspotMixedWritersKeepHomeStableUnderThresholds) {
  const Scenario scenario = GeneratePattern(SmallParams("hotspot"));
  EXPECT_EQ(RunUnder(scenario, "AT").report.migrations, 0u);
  EXPECT_GT(RunUnder(scenario, "MH").report.migrations, 0u);
}

TEST(Patterns, ScenarioRunsOnLargerClusterThanItNeeds) {
  const Scenario scenario = GeneratePattern(SmallParams("pingpong"));
  gos::VmOptions vm;
  vm.nodes = 16;  // more nodes than the scenario's 4
  vm.dsm.policy = "AT";
  const ScenarioResult res = RunScenario(vm, scenario);
  EXPECT_EQ(res.ops_executed, scenario.total_ops());
}

TEST(Patterns, ResultChecksumCoversObjectContents) {
  // Different patterns write different payload streams, so their digests
  // should differ — a constant checksum would mean we digest nothing.
  const ScenarioResult a =
      RunUnder(GeneratePattern(SmallParams("migratory")), "AT");
  const ScenarioResult b = RunUnder(GeneratePattern(SmallParams("hotspot")), "AT");
  EXPECT_NE(a.checksum, b.checksum);
}

// ---------------------------------------------------------------------------
// Sync locality: AT against NoHM on the repo benchmark's workloads
// ---------------------------------------------------------------------------

TEST(SyncLocality, HotHomeKeepsAtNearNoHmMessages) {
  // Several writers' diffs ride the global lock's releases to the home at
  // the lock manager. Moving the home off it turns each of them into a
  // standalone diff+ack pair, which AT must count against migration.
  for (std::uint64_t seed : {1, 2, 3}) {
    const Scenario scenario =
        meshbench::FindWorkload("hot_home")->generate(seed);
    const ScenarioResult at = RunUnder(scenario, "AT");
    const ScenarioResult nohm = RunUnder(scenario, "NoHM");
    EXPECT_EQ(at.checksum, nohm.checksum) << "seed " << seed;
    EXPECT_LE(static_cast<double>(at.report.messages),
              1.10 * static_cast<double>(nohm.report.messages))
        << "seed " << seed << ": AT " << at.report.messages << " vs NoHM "
        << nohm.report.messages;
  }
}

TEST(SyncLocality, WriterChurnStillFollowsTheSoleWriter) {
  // One piggybacking writer at a time: AT must keep migrating toward it.
  for (std::uint64_t seed : {1, 2, 3}) {
    const Scenario scenario =
        meshbench::FindWorkload("writer_churn")->generate(seed);
    const ScenarioResult at = RunUnder(scenario, "AT");
    const ScenarioResult nohm = RunUnder(scenario, "NoHM");
    EXPECT_EQ(at.checksum, nohm.checksum) << "seed " << seed;
    EXPECT_GT(at.report.migrations, 0u) << "seed " << seed;
    for (const stats::Decision& d : at.report.ledger.decisions())
      ASSERT_EQ(d.piggyback_switches, 0u) << "seed " << seed;
    EXPECT_LE(static_cast<double>(at.report.messages),
              0.90 * static_cast<double>(nohm.report.messages))
        << "seed " << seed << ": AT " << at.report.messages << " vs NoHM "
        << nohm.report.messages;
  }
}

TEST(SyncLocality, LockHandoffsCarryTheHotObjects) {
  // Every contended handoff of hot_home's global lock carries the objects
  // homed at its manager, so a critical section costs only its sync
  // messages (acquire, grant, release): 19 fault-ins remain per run. Its
  // releases carry diffs, so the lock is never kept; the one recall is
  // sent before the lock guards anything. writer_churn's locks are never
  // contended and its homes follow the writer, so its releases carry
  // nothing and the lock stays with its holder.
  for (std::uint64_t seed : {1, 2, 3}) {
    const ScenarioResult hot = RunUnder(
        meshbench::FindWorkload("hot_home")->generate(seed), "AT");
    EXPECT_EQ(hot.report.messages, 13959u) << "seed " << seed;
    EXPECT_EQ(hot.report.lock_recalls, 1u) << "seed " << seed;
    EXPECT_EQ(hot.report.fault_ins, 19u) << "seed " << seed;
    EXPECT_GT(hot.report.grant_copies, 0u) << "seed " << seed;
  }
  const std::uint64_t churn_messages[] = {17228, 17020, 17452};
  for (std::uint64_t seed : {1, 2, 3}) {
    const ScenarioResult churn = RunUnder(
        meshbench::FindWorkload("writer_churn")->generate(seed), "AT");
    EXPECT_EQ(churn.report.messages, churn_messages[seed - 1])
        << "seed " << seed;
    EXPECT_EQ(churn.report.grant_copies, 0u) << "seed " << seed;
    EXPECT_GT(churn.report.lock_local_acquires, 0u) << "seed " << seed;
  }
}

// Every packet is stamped on its way into a mailbox, so a threads run
// reports the enqueue→dispatch dwell that the repo benchmark reads.
TEST(RunScenario, ThreadsRunReportsMailboxDwell) {
  gos::VmOptions vm;
  vm.nodes = 4;
  vm.backend = gos::Backend::kThreads;
  const ScenarioResult r =
      RunScenario(vm, GeneratePattern(SmallParams("migratory")));
  EXPECT_GT(r.report.mailbox_dwell.count, 0u);
}

// A failing worker must not free the lock bindings under the others: the
// run joins every worker first, then rethrows the first failure.
TEST(RunScenario, WorkerFailureJoinsTheOthersBeforeRethrowing) {
  Scenario s;
  s.name = "one_worker_throws";
  s.nodes = 2;
  s.objects = {ObjectSpec{64, 0}};
  s.lock_managers = {0};
  // The threads backend rejects a negative delay, so worker 0 throws at
  // once; worker 1 goes on acquiring its lock well after that.
  s.workers.push_back({0, "thrower", {{OpKind::kDelay, 0, ~0ull}}});
  WorkerSpec survivor{1, "survivor", {{OpKind::kDelay, 0, 50'000'000}}};
  for (int i = 0; i < 50; ++i) {
    survivor.program.push_back({OpKind::kAcquire, 0, 0});
    survivor.program.push_back({OpKind::kWrite, 0, 8});
    survivor.program.push_back({OpKind::kRelease, 0, 0});
  }
  s.workers.push_back(survivor);
  gos::VmOptions vm;
  vm.nodes = s.nodes;
  vm.backend = gos::Backend::kThreads;
  EXPECT_THROW(RunScenario(vm, s), std::exception);
}

}  // namespace
}  // namespace hmdsm::workload
