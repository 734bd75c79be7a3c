// Figure 5 — "Effects of home migration protocols against repetition of
// single-writer pattern" (paper Section 5.2).
//
// Reproduces both panels on the synthetic benchmark of Figure 4, with
// 8 worker threads on nodes 1..8 and the application (lock managers,
// initial counter home) on node 0:
//   (a) normalized execution time of NM / FT1 / FT2 / AT for repetition
//       r ∈ {2, 4, 8, 16} — each column normalized to its slowest protocol;
//   (b) normalized message number broken down into obj / mig / diff / redir
//       (sync messages excluded, as in the paper; they are no longer
//       invariant across protocols: once a protocol moves the counter to
//       its writer, lock1's releases carry nothing and the lock stays
//       with the writer, so AT sends fewer than NM).
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/apps/synthetic.h"
#include "src/util/csv.h"
#include "src/util/table.h"

namespace {

using hmdsm::CsvWriter;
using hmdsm::FmtF;
using hmdsm::FmtI;
using hmdsm::Table;
using hmdsm::apps::RunSynthetic;
using hmdsm::apps::SyntheticConfig;
using hmdsm::apps::SyntheticResult;
using hmdsm::stats::MsgCat;

struct Cell {
  double seconds = 0;
  std::uint64_t obj = 0, mig = 0, diff = 0, redir = 0;
  std::uint64_t fault_ins = 0, diffs_created = 0;
  std::uint64_t total() const { return obj + mig + diff + redir; }
  std::uint64_t pairs() const { return fault_ins + diffs_created; }
};

Cell RunOne(const std::string& policy, int repetition, std::int64_t target) {
  hmdsm::gos::VmOptions vm;
  vm.nodes = 9;  // application node + 8 workers
  vm.dsm.policy = policy == "NM" ? "NoHM" : policy;
  SyntheticConfig cfg;
  cfg.workers = 8;
  cfg.repetition = repetition;
  cfg.target = target;
  const SyntheticResult res = RunSynthetic(vm, cfg);
  Cell c;
  c.seconds = res.report.seconds;
  c.obj = res.report.cat[static_cast<int>(MsgCat::kObj)].messages;
  c.mig = res.report.cat[static_cast<int>(MsgCat::kMig)].messages;
  c.diff = res.report.cat[static_cast<int>(MsgCat::kDiff)].messages;
  c.redir = res.report.cat[static_cast<int>(MsgCat::kRedir)].messages;
  c.fault_ins = res.report.fault_ins;
  c.diffs_created = res.report.diffs_created;
  return c;
}

}  // namespace

int main() {
  hmdsm::bench::Banner(
      "Figure 5",
      "synthetic single-writer benchmark: sensitivity & robustness");
  const std::int64_t target = hmdsm::bench::FullScale() ? 4096 : 512;
  const std::vector<int> repetitions{2, 4, 8, 16};
  const std::vector<std::string> protocols{"NM", "FT1", "FT2", "AT"};
  std::cout << "workers=8 (nodes 1..8), locks managed at node 0, counter "
               "target n="
            << target << "\n\n";

  std::map<std::pair<int, std::string>, Cell> cells;
  for (int r : repetitions)
    for (const auto& p : protocols) cells[{r, p}] = RunOne(p, r, target);

  // ---- (a) normalized execution time ----
  std::cout << "(a) Normalized execution time (100% = slowest protocol at "
               "that repetition)\n";
  Table ta({"repetition", "NM", "FT1", "FT2", "AT"});
  CsvWriter csv_a(hmdsm::bench::CsvPath("fig5a_exec_time"));
  csv_a.Row({"repetition", "NM_s", "FT1_s", "FT2_s", "AT_s"});
  for (int r : repetitions) {
    double worst = 0;
    for (const auto& p : protocols)
      worst = std::max(worst, cells[{r, p}].seconds);
    std::vector<std::string> row{std::to_string(r)};
    std::vector<std::string> crow{std::to_string(r)};
    for (const auto& p : protocols) {
      row.push_back(FmtF(100.0 * cells[{r, p}].seconds / worst, 1) + "%");
      crow.push_back(FmtF(cells[{r, p}].seconds, 6));
    }
    ta.AddRow(row);
    csv_a.Row(crow);
  }
  ta.Print(std::cout);

  // ---- (b) normalized message number with breakdown ----
  std::cout << "\n(b) Normalized message number, breakdown obj/mig/diff/"
               "redir (sync excluded; 100% = largest total at that "
               "repetition)\n";
  Table tb({"repetition", "protocol", "obj", "mig", "diff", "redir", "total",
            "normalized"});
  CsvWriter csv_b(hmdsm::bench::CsvPath("fig5b_messages"));
  csv_b.Row({"repetition", "protocol", "obj", "mig", "diff", "redir"});
  for (int r : repetitions) {
    std::uint64_t worst = 0;
    for (const auto& p : protocols)
      worst = std::max(worst, cells[{r, p}].total());
    for (const auto& p : protocols) {
      const Cell& c = cells[{r, p}];
      tb.AddRow({std::to_string(r), p, FmtI(c.obj), FmtI(c.mig), FmtI(c.diff),
                 FmtI(c.redir), FmtI(c.total()),
                 FmtF(100.0 * c.total() / worst, 1) + "%"});
      csv_b.Row({std::to_string(r), p, std::to_string(c.obj),
                 std::to_string(c.mig), std::to_string(c.diff),
                 std::to_string(c.redir)});
    }
  }
  tb.Print(std::cout);

  // ---- headline check (paper: 87.2% elimination at r=16 by FT1) ----
  const Cell& nm16 = cells[{16, "NM"}];
  const Cell& ft116 = cells[{16, "FT1"}];
  const double pairs_eliminated =
      1.0 - static_cast<double>(ft116.pairs()) /
                static_cast<double>(nm16.pairs());
  const double msgs_eliminated =
      1.0 - static_cast<double>(ft116.obj + ft116.diff) /
                static_cast<double>(nm16.obj + nm16.diff);
  std::cout << "\nheadline: FT1 at repetition 16 eliminates "
            << FmtF(100 * pairs_eliminated, 1)
            << "% of object fault-ins and diff propagations (paper: 87.2%);\n"
            << "          in wire messages that is " << FmtF(100 * msgs_eliminated, 1)
            << "% of the obj+diff categories (redirect-chain re-requests "
               "inflate obj).\n";
  return 0;
}
