// Reproduces Figure 10: adaptation to workload changes. 200 instances
// of template Q5 (big selectivity, heavy skew) on the 100 GB instance;
// the selection-midpoint distribution switches at query 101.
//   (a) cumulative elapsed time under NP, E-5, NR (DeepSea without
//       repartitioning) and DS,
//   (b) the ratio DS / NR of cumulative time over queries 101..200:
//       DS pays repartitioning cost first (ratio > 1), then amortizes
//       it (ratio falls below 1).
//
// Paper result: DS beats NR by ~7% and E-5 by ~27% on the changing
// workload; the DS/NR ratio exceeds 1 for roughly 30 queries after the
// shift, then drops below 1.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

using namespace deepsea;

int main() {
  bench::Banner("Figure 10", "Adaptation to workload changes, Q5 x200, 100GB");
  ExperimentRunner runner(bench::Dataset(100.0, /*sdss_distribution=*/false));

  std::vector<WorkloadQuery> workload;
  {
    RangeGenerator::Config cfg;
    cfg.domain = bench::ItemSkDomain();
    cfg.selectivity_fraction = SelectivityFraction(Selectivity::kBig);
    cfg.skew = Skew::kHeavy;
    cfg.center = 100000.0;
    RangeGenerator phase1(cfg, /*seed=*/51);
    auto first = bench::TemplateWorkload("Q5", 100, &phase1);
    cfg.center = 300000.0;
    RangeGenerator phase2(cfg, /*seed=*/52);
    auto second = bench::TemplateWorkload("Q5", 100, &phase2);
    workload = first;
    workload.insert(workload.end(), second.begin(), second.end());
  }

  std::vector<StrategySpec> specs = {bench::NoPartition(), bench::EquiDepth(5),
                                     bench::NoRefine(), bench::DeepSea()};
  for (StrategySpec& spec : specs) {
    spec.options.benefit_cost_threshold = 0.0;
    // Fig. 10 relies on progressive repartitioning to fix the initial
    // layout after the shift; fragment-size bounding would mask the
    // giant-cold-fragment problem the experiment studies.
    spec.options.max_fragment_fraction = 0.0;
  }

  TablePrinter table;
  table.Header({"strategy", "cum 101..200 (s)", "total (s)", "frags"});
  RunResult nr_result, ds_result;
  std::vector<double> totals;  // NP, E-5, NR, DS
  for (const StrategySpec& spec : specs) {
    auto result = runner.Run(spec, workload);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const double tail = result->CumulativeAt(200) - result->CumulativeAt(100);
    table.Row({result->label, FmtSeconds(tail),
               FmtSeconds(result->total_seconds),
               std::to_string(result->totals.fragments_created)});
    totals.push_back(result->total_seconds);
    if (result->label == "NR") nr_result = *result;
    if (result->label == "DS") ds_result = *result;
  }

  std::printf("\n[10b] cumulative-time ratio DS/NR from query 101\n");
  TablePrinter ratio_table(12);
  ratio_table.Header({"at query", "DS/NR"});
  auto ds_over_nr = [&](size_t q) {
    const double nr = nr_result.CumulativeAt(q) - nr_result.CumulativeAt(100);
    const double ds = ds_result.CumulativeAt(q) - ds_result.CumulativeAt(100);
    return ds / std::max(nr, 1.0);
  };
  for (size_t q : {110, 120, 130, 140, 160, 180, 200}) {
    ratio_table.Row({std::to_string(q), FmtRatio(ds_over_nr(q))});
  }
  std::printf(
      "\nPaper: DS beats NR by ~7%% and E-5 by ~27%% overall; DS/NR > 1 for"
      "\n~30 queries after the shift (repartitioning cost), then < 1.\n");
  bench::ShapeGate shapes;
  shapes.Check("fig10a DS lowest total",
               totals[3] < *std::min_element(totals.begin(), totals.end() - 1));
  shapes.Check("fig10a NP highest total",
               totals[0] > *std::max_element(totals.begin() + 1, totals.end()));
  shapes.Check("fig10b DS/NR > 1 at q110", ds_over_nr(110) > 1.0);
  shapes.Check("fig10b DS/NR < 1 at q200", ds_over_nr(200) < 1.0);
  return shapes.ExitCode();
}
