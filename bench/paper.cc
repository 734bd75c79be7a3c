// bench_paper — the paper's evaluation as one table of simulator rows.
//
// Each row is one deterministic sim run: an application with its
// parameters, a VmOptions (node count, policy and protocol knobs) and an
// id. bench_paper runs every row once and prints BENCH_paper.json to stdout,
// one row per line, with the exact counts of the run:
//
//   ./build/bench_paper > BENCH_paper.json
//
// The `paper_counts` test (bench/paper_counts.cmake) compares a live run
// with the committed file, so any change that moves a count must
// regenerate it and say why.
//
// Rows, at CI-scale sizes (the paper's are noted where each table is built):
//   fig2_<app>_p<P>_<policy>      Fig. 2, time against processors
//   fig3_<app>_n<N>_<policy>      Fig. 3, AT against FT2 as the size grows
//   fig5_r<r>_<policy>            Fig. 5, the synthetic benchmark against r
//   fig6_<pattern>_<policy>       generated sharing patterns, every policy
//   ablation_*                    protocol knobs the paper discusses
//   mesh_<workload>_<policy>      the repo benchmark's generators, seed 1
// Figs. 2, 3 and 5 and the mesh rows run under NoHM, FT1, FT2 and AT.
//
// A configuration that several tables share is one row: the first id that
// asks for it keeps it, and the others are listed in its "also" field. The
// "config" field is that identity: the app, its parameters and every
// VmOptions field that differs from the default.
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "meshbench/workloads.h"
#include "src/apps/asp.h"
#include "src/apps/nbody.h"
#include "src/apps/sor.h"
#include "src/apps/synthetic.h"
#include "src/apps/tsp.h"
#include "src/gos/vm.h"
#include "src/stats/msgcat.h"
#include "src/util/json.h"
#include "src/workload/patterns.h"
#include "src/workload/runner.h"

namespace hmdsm::bench {
namespace {

/// A finished run: its report and the app's answer (checksum, tour length
/// or final count), printed exactly.
struct Outcome {
  gos::RunReport report;
  std::string answer;
};

/// An application with fixed parameters; `desc` names both.
struct App {
  std::string desc;
  std::function<Outcome(const gos::VmOptions&)> run;
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Short(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

App Asp(int n) {
  return {"asp n=" + std::to_string(n), [n](const gos::VmOptions& vm) {
            apps::AspConfig cfg;
            cfg.n = n;
            const apps::AspResult r = apps::RunAsp(vm, cfg);
            return Outcome{r.report, std::to_string(r.checksum)};
          }};
}

App Sor(int n, int iterations) {
  return {"sor n=" + std::to_string(n) + " iterations=" +
              std::to_string(iterations),
          [n, iterations](const gos::VmOptions& vm) {
            apps::SorConfig cfg;
            cfg.n = n;
            cfg.iterations = iterations;
            const apps::SorResult r = apps::RunSor(vm, cfg);
            return Outcome{r.report, Num(r.checksum)};
          }};
}

App Nbody(int bodies, int steps) {
  return {"nbody bodies=" + std::to_string(bodies) + " steps=" +
              std::to_string(steps),
          [bodies, steps](const gos::VmOptions& vm) {
            apps::NbodyConfig cfg;
            cfg.bodies = bodies;
            cfg.steps = steps;
            const apps::NbodyResult r = apps::RunNbody(vm, cfg);
            return Outcome{r.report, Num(r.position_checksum)};
          }};
}

App Tsp(int cities) {
  return {"tsp cities=" + std::to_string(cities),
          [cities](const gos::VmOptions& vm) {
            apps::TspConfig cfg;
            cfg.cities = cities;
            const apps::TspResult r = apps::RunTsp(vm, cfg);
            return Outcome{r.report, std::to_string(r.best_length)};
          }};
}

/// The Figure-4 synthetic benchmark: 8 workers on nodes 1..8, the locks
/// and the counter's first home on node 0.
App Synthetic(int repetition, std::int64_t target) {
  return {"synthetic workers=8 r=" + std::to_string(repetition) +
              " target=" + std::to_string(target),
          [repetition, target](const gos::VmOptions& vm) {
            apps::SyntheticConfig cfg;
            cfg.workers = 8;
            cfg.repetition = repetition;
            cfg.target = target;
            const apps::SyntheticResult r = apps::RunSynthetic(vm, cfg);
            return Outcome{r.report, std::to_string(r.final_count)};
          }};
}

App Scenario(const std::string& desc, const workload::Scenario& scenario) {
  return {desc, [scenario](const gos::VmOptions& vm) {
            const workload::ScenarioResult r =
                workload::RunScenario(vm, scenario);
            return Outcome{r.report, std::to_string(r.checksum)};
          }};
}

gos::VmOptions Vm(std::size_t nodes, const std::string& policy) {
  gos::VmOptions vm;
  vm.nodes = nodes;
  vm.dsm.policy = policy;
  return vm;
}

/// The VmOptions half of a row's identity: node count, policy, and every
/// protocol knob some row moves off its default.
std::string Describe(const gos::VmOptions& vm) {
  const dsm::DsmConfig& d = vm.dsm;
  const core::AdaptiveParams def;
  std::string s =
      "nodes=" + std::to_string(vm.nodes) + " policy=" + d.policy;
  if (d.adaptive.feedback_coefficient != def.feedback_coefficient)
    s += " lambda=" + Short(d.adaptive.feedback_coefficient);
  if (d.adaptive.initial_threshold != def.initial_threshold)
    s += " tinit=" + Short(d.adaptive.initial_threshold);
  if (d.adaptive.approximate_alpha) s += " alpha=approx";
  if (!std::isnan(d.adaptive.fixed_alpha))
    s += " alpha=" + Short(d.adaptive.fixed_alpha);
  if (d.notify != dsm::NotifyMechanism::kForwardingPointer)
    s += " notify=" + dsm::NotifyMechanismName(d.notify);
  if (d.compress_chains) s += " compress";
  if (d.write_through) s += " write-through";
  return s;
}

struct Row {
  std::string id;
  std::string also;  // ids of the tables' duplicate requests for this row
  std::string config;
  App app;
  gos::VmOptions vm;
};

/// Rows in insertion order, one per distinct configuration.
class RowTable {
 public:
  void Add(std::string id, const App& app, const gos::VmOptions& vm) {
    std::string config = app.desc + " " + Describe(vm);
    const auto [it, fresh] = index_.emplace(config, rows_.size());
    if (!fresh) {
      std::string& also = rows_[it->second].also;
      also += (also.empty() ? "" : " ") + id;
      return;
    }
    rows_.push_back(Row{std::move(id), "", std::move(config), app, vm});
  }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
  std::map<std::string, std::size_t> index_;
};

const std::vector<std::string> kPaperPolicies{"NoHM", "FT1", "FT2", "AT"};

RowTable BuildRows() {
  RowTable t;

  // Fig. 2: execution time against processors (paper: ASP n=1024, SOR
  // 2048x2048, NBody 2048 bodies, TSP 12 cities).
  const std::vector<std::pair<std::string, App>> fig2{
      {"asp", Asp(192)},
      {"nbody", Nbody(512, 5)},
      {"sor", Sor(256, 10)},
      {"tsp", Tsp(10)}};
  for (const auto& [name, app] : fig2)
    for (int p : {2, 4, 8, 16})
      for (const std::string& policy : kPaperPolicies)
        t.Add("fig2_" + name + "_p" + std::to_string(p) + "_" + policy, app,
              Vm(p, policy));

  // Fig. 3: AT against FT2 on eight nodes as the problem grows (paper:
  // 128..1024).
  for (int n : {64, 128, 256})
    for (const std::string& policy : kPaperPolicies) {
      const std::string suffix = "_n" + std::to_string(n) + "_" + policy;
      t.Add("fig3_asp" + suffix, Asp(n), Vm(8, policy));
      t.Add("fig3_sor" + suffix, Sor(n, 10), Vm(8, policy));
    }

  // Fig. 5: the synthetic benchmark against repetition r (paper: n=4096).
  for (int r : {2, 4, 8, 16})
    for (const std::string& policy : kPaperPolicies)
      t.Add("fig5_r" + std::to_string(r) + "_" + policy, Synthetic(r, 512),
            Vm(9, policy));

  // Generated sharing patterns under every policy, on identical access
  // streams.
  for (const std::string& pattern : workload::PatternNames()) {
    workload::PatternParams params;
    params.pattern = pattern;
    params.nodes = 8;
    params.objects = 4;
    params.object_bytes = 256;
    params.repetitions = 8;
    params.seed = 1;
    const App app = Scenario(pattern + " objects=4 bytes=256 reps=8 seed=1",
                             workload::GeneratePattern(params));
    for (const char* policy : {"NoHM", "FT1", "FT2", "AT", "MH", "BR", "LF"})
      t.Add("fig6_" + pattern + "_" + policy, app, Vm(8, policy));
  }

  // The related-work baselines (Section 2) on every workload: MH is
  // JUMP-style, BR Jidia-style barrier migration.
  struct Baseline {
    std::string name;
    App app;
    std::size_t nodes;
  };
  const std::vector<Baseline> baselines{{"asp", Asp(128), 8},
                                        {"sor", Sor(128, 10), 8},
                                        {"tsp", Tsp(10), 8},
                                        {"synthetic_r2", Synthetic(2, 512), 9}};
  for (const Baseline& b : baselines)
    for (const char* policy : {"NoHM", "FT1", "FT2", "MH", "BR", "AT"})
      t.Add("ablation_baselines_" + b.name + "_" + policy, b.app,
            Vm(b.nodes, policy));

  // Forwarding-pointer chain compression (off by default: it mutes AT's
  // redirection feedback R).
  for (const char* policy : {"FT1", "AT"})
    for (int r : {2, 8, 16})
      for (bool compress : {false, true}) {
        gos::VmOptions vm = Vm(9, policy);
        vm.dsm.compress_chains = compress;
        t.Add(std::string("ablation_compression_") + policy + "_r" +
                  std::to_string(r) + (compress ? "_on" : "_off"),
              Synthetic(r, 512), vm);
      }

  // Lazy release consistency against write-through (SC-style), the
  // paper's introduction motivation.
  for (bool write_through : {false, true})
    for (const char* policy : {"NoHM", "AT"}) {
      const std::string suffix =
          std::string(write_through ? "_wt_" : "_lrc_") + policy;
      gos::VmOptions vm = Vm(8, policy);
      vm.dsm.write_through = write_through;
      t.Add("ablation_consistency_asp" + suffix, Asp(96), vm);
      vm.nodes = 9;
      t.Add("ablation_consistency_synthetic_r8" + suffix, Synthetic(8, 256),
            vm);
    }

  // Home location notification mechanisms (Section 3.2) under AT.
  for (auto m : {dsm::NotifyMechanism::kForwardingPointer,
                 dsm::NotifyMechanism::kHomeManager,
                 dsm::NotifyMechanism::kBroadcast}) {
    const std::string name = dsm::NotifyMechanismName(m);
    gos::VmOptions vm = Vm(9, "AT");
    vm.dsm.notify = m;
    t.Add("ablation_notify_synthetic_r16_" + name, Synthetic(16, 512), vm);
    vm.nodes = 8;
    t.Add("ablation_notify_asp_" + name, Asp(128), vm);
  }

  // AT's parameters (Section 4.2) at a transient (r=2) and a lasting
  // (r=16) repetition.
  auto adaptive = [&t](const std::string& name,
                       const std::function<void(core::AdaptiveParams&)>& set) {
    for (int r : {2, 16}) {
      gos::VmOptions vm = Vm(9, "AT");
      set(vm.dsm.adaptive);
      t.Add("ablation_" + name + "_r" + std::to_string(r), Synthetic(r, 512),
            vm);
    }
  };
  for (double lambda : {0.25, 0.5, 1.0, 2.0, 4.0})
    adaptive("lambda_" + Short(lambda),
             [lambda](core::AdaptiveParams& p) {
               p.feedback_coefficient = lambda;
             });
  adaptive("alpha_exact", [](core::AdaptiveParams&) {});
  adaptive("alpha_approx",
           [](core::AdaptiveParams& p) { p.approximate_alpha = true; });
  for (double alpha : {1.0, 0.0})
    adaptive("alpha_" + Short(alpha),
             [alpha](core::AdaptiveParams& p) { p.fixed_alpha = alpha; });
  for (double tinit : {1.0, 2.0, 4.0, 8.0})
    adaptive("tinit_" + Short(tinit), [tinit](core::AdaptiveParams& p) {
      p.initial_threshold = tinit;
    });

  // The repo benchmark's workload generators (meshbench/), seed 1.
  for (const meshbench::Workload& w : meshbench::Workloads()) {
    const workload::Scenario scenario = w.generate(1);
    const App app = Scenario(std::string(w.name) + " seed=1", scenario);
    for (const std::string& policy : kPaperPolicies)
      t.Add("mesh_" + std::string(w.name) + "_" + policy, app,
            Vm(scenario.nodes, policy));
  }
  return t;
}

void PrintRow(const Row& row, const Outcome& out) {
  const gos::RunReport& r = out.report;
  JsonWriter j(std::cout);
  j.BeginObject();
  j.Key("id").String(row.id);
  j.Key("also").String(row.also);
  j.Key("config").String(row.config);
  j.Key("seconds").Double(r.seconds);
  for (std::size_t c = 0; c < stats::kNumMsgCats; ++c) {
    const std::string cat(stats::MsgCatName(static_cast<stats::MsgCat>(c)));
    j.Key(cat + "_msgs").Uint(r.cat[c].messages);
    j.Key(cat + "_bytes").Uint(r.cat[c].bytes);
  }
  j.Key("fault_ins").Uint(r.fault_ins);
  j.Key("migrations").Uint(r.migrations);
  j.Key("mig_rejections").Uint(r.mig_rejections);
  j.Key("redirect_hops").Uint(r.redirect_hops);
  j.Key("diffs_created").Uint(r.diffs_created);
  j.Key("grant_copies").Uint(r.grant_copies);
  j.Key("lock_local_acquires").Uint(r.lock_local_acquires);
  j.Key("lock_recalls").Uint(r.lock_recalls);
  j.Key("exclusive_home_writes").Uint(r.exclusive_home_writes);
  j.Key("answer").String(out.answer);
  j.EndObject();
}

}  // namespace
}  // namespace hmdsm::bench

int main() {
  using namespace hmdsm::bench;
  const RowTable table = BuildRows();
  std::cout << "{\"rows\":[\n";
  bool first = true;
  for (const Row& row : table.rows()) {
    if (!first) std::cout << ",\n";
    first = false;
    PrintRow(row, row.app.run(row.vm));
  }
  std::cout << "\n]}\n";
  return 0;
}
