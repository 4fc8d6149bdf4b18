// Extension bench: fragment merging (paper Section 11, "merge
// consecutive fragments that are mostly accessed together"). A
// workload of queries spanning the same pair of adjacent ranges leaves
// co-accessed fragments; merging them reduces cover sizes, map-task
// counts and per-file overheads for the rest of the workload.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

using namespace deepsea;

int main() {
  bench::Banner("Extension", "Fragment merging (Section 11 future work), 100GB");
  ExperimentRunner runner(bench::Dataset(100.0, /*sdss_distribution=*/false));

  // Phase 1 creates a fragment for [100000, 140000]; phase 2 widens to
  // [100000, 180000], adding a refinement fragment next to it. From
  // then on every query reads BOTH fragments (co-access ~1): exactly
  // the "consecutive fragments mostly accessed together" the merge
  // extension targets.
  std::vector<WorkloadQuery> workload;
  for (int i = 0; i < 15; ++i) {
    workload.push_back({"Q30", Interval(100000, 140000)});
  }
  for (int i = 0; i < 45; ++i) {
    workload.push_back({"Q30", Interval(100000, 180000)});
  }

  TablePrinter table;
  table.Header({"variant", "total (s)", "map tasks", "merges", "frags"});
  std::vector<EngineTotals> totals;  // without, with merging
  for (bool merging : {false, true}) {
    StrategySpec spec = bench::DeepSea();
    spec.label = merging ? "DS + merging" : "DS";
    spec.options.benefit_cost_threshold = 0.02;
    spec.options.merge.enabled = merging;
    spec.options.merge.min_co_access = 0.75;
    spec.options.merge.max_merged_fraction = 0.6;
    spec.options.merge.min_hits = 4;
    auto result = runner.Run(spec, workload);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    table.Row({result->label, FmtSeconds(result->total_seconds),
               std::to_string(result->totals.map_tasks),
               std::to_string(result->totals.fragments_merged),
               std::to_string(result->totals.fragments_created)});
    totals.push_back(result->totals);
  }
  std::printf(
      "\nExpected: merging consolidates the co-accessed pair; the merged"
      "\nlayout reads fewer files (fewer map tasks) for the same answers.\n");
  bench::ShapeGate shapes;
  shapes.Check("extension merging merges and reads fewer map tasks",
               totals[1].fragments_merged > 0 &&
                   totals[1].map_tasks < totals[0].map_tasks);
  return shapes.ExitCode();
}
