// meshbench_selftest — checks the seeded workload generators and the
// order-independence rule the mesh-vs-sim digest check relies on.
// Exits 0 when every check passes.
#include <cstdio>
#include <string>
#include <vector>

#include "meshbench/workloads.h"
#include "src/util/check.h"
#include "src/workload/runner.h"

namespace {

using namespace hmdsm;
using namespace hmdsm::meshbench;
using workload::Op;
using workload::OpKind;
using workload::Scenario;

int failures = 0;

void Expect(bool cond, const std::string& what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

std::vector<std::vector<Op>> Programs(const Scenario& s) {
  std::vector<std::vector<Op>> p;
  for (const workload::WorkerSpec& w : s.workers) p.push_back(w.program);
  return p;
}

bool HasDelay(const Scenario& s) {
  for (const workload::WorkerSpec& w : s.workers)
    for (const Op& op : w.program)
      if (op.kind == OpKind::kDelay) return true;
  return false;
}

/// Two workers, one 64-byte object, one lock, one barrier; programs given.
Scenario Tiny(std::vector<Op> w0, std::vector<Op> w1) {
  Scenario s;
  s.name = "tiny";
  s.nodes = 2;
  s.objects = {{64, 0}};
  s.lock_managers = {0};
  s.barrier_managers = {0};
  s.workers = {{0, "w0", std::move(w0)}, {1, "w1", std::move(w1)}};
  return s;
}

const Op kAcq{OpKind::kAcquire, 0, 0};
const Op kRel{OpKind::kRelease, 0, 0};
const Op kWr{OpKind::kWrite, 0, 0};
const Op kRd{OpKind::kRead, 0, 0};
const Op kBar{OpKind::kBarrier, 0, 2};

void GeneratorChecks() {
  for (const Workload& wl : Workloads()) {
    const std::string name(wl.name);
    for (const std::uint64_t seed : {1ull, 2ull, 7ull, 12345ull}) {
      const Scenario a = wl.generate(seed);
      const std::string tag = name + " seed " + std::to_string(seed);
      Expect(a == wl.generate(seed), tag + ": same seed, identical scenario");
      Expect(!HasDelay(a), tag + ": no delay ops");
      bool valid = true;
      try {
        workload::ValidateScenario(a);
      } catch (const CheckError&) {
        valid = false;
      }
      Expect(valid, tag + ": passes ValidateScenario");
      const std::string why = CheckOrderIndependent(a);
      Expect(why.empty(), tag + ": no read depends on lock-arrival order" +
                              (why.empty() ? "" : " (" + why + ")"));
    }
    Expect(Programs(wl.generate(1)) != Programs(wl.generate(2)),
           name + ": seeds 1 and 2 give different access streams");
  }
}

void CheckerControls() {
  const auto flagged = [](const Scenario& s) {
    return !CheckOrderIndependent(s).empty();
  };
  Expect(flagged(Tiny({kAcq, kWr, kRel, kBar}, {kAcq, kWr, kRel, kBar})),
         "checker flags final contents left by racing writers");
  Expect(!flagged(Tiny({kAcq, kWr, kRel, kBar, kAcq, kWr, kRel},
                       {kAcq, kWr, kRel, kBar})),
         "checker accepts a settle pass after racing writers");
  Expect(flagged(Tiny({kAcq, kWr, kRel, kBar, kAcq, {OpKind::kWrite, 0, 8},
                       kRel},
                      {kAcq, kWr, kRel, kBar})),
         "checker flags a partial settle write");
  Expect(flagged(Tiny({kAcq, kWr, kRel, kBar, kRd, kBar, kAcq, kWr, kRel},
                      {kAcq, kWr, kRel, kBar, kBar})),
         "checker flags a read after racing writers");
  Expect(flagged(Tiny({kAcq, kWr, kRel, kBar}, {kRd, kBar})),
         "checker flags a read beside another worker's write");
  Expect(!flagged(Tiny({kAcq, kWr, kRel, kBar, kRd}, {kBar, kRd})),
         "checker accepts reads a barrier after a sole writer");
  Expect(flagged(Tiny({{OpKind::kDelay, 0, 1000}, kBar}, {kBar})),
         "checker flags a delay op");
  Expect(flagged(Tiny({kBar, kBar}, {kBar})),
         "checker flags unequal barrier counts");
}

void SimReferenceRepeats() {
  gos::VmOptions sim;
  sim.nodes = kRanks;
  for (const Workload& wl : Workloads()) {
    const Scenario s = wl.generate(1);
    const workload::ScenarioResult a = workload::RunScenario(sim, s);
    const workload::ScenarioResult b = workload::RunScenario(sim, s);
    Expect(a.checksum == b.checksum && a.ops_executed == s.total_ops(),
           std::string(wl.name) + ": sim reference digest repeats");
  }
}

}  // namespace

int main() {
  GeneratorChecks();
  CheckerControls();
  SimReferenceRepeats();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
