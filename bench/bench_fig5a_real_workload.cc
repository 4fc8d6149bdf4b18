// Reproduces Figure 5a: total elapsed time of the SDSS-patterned
// BigBench workload (1000 queries, 500 GB instance, no pool limit)
// under vanilla Hive (H), materialization without partitioning (NP),
// and DeepSea (DS).
//
// Paper result: NP ~= 65.6% of H; DS ~= 64.2% of NP.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

using namespace deepsea;

int main() {
  bench::Banner("Figure 5a",
                "SDSS-patterned workload (1000 queries), 500GB, DS vs NP vs H");
  const auto workload = bench::SdssWorkload(1000, /*seed=*/2017);
  ExperimentRunner runner(bench::Dataset(500.0, /*sdss_distribution=*/true));

  TablePrinter table;
  table.Header({"strategy", "elapsed (s)", "% of H", "views", "frags", "from views"});
  double hive_total = 0.0;
  std::vector<double> totals;  // H, NP, DS
  for (const StrategySpec& spec :
       {bench::Hive(), bench::NoPartition(), bench::DeepSea()}) {
    auto result = runner.Run(spec, workload);
    if (!result.ok()) {
      std::printf("run %s failed: %s\n", spec.label.c_str(),
                  result.status().ToString().c_str());
      return 1;
    }
    if (spec.label == "H") hive_total = result->total_seconds;
    totals.push_back(result->total_seconds);
    table.Row({result->label, FmtSeconds(result->total_seconds),
               StrFormat("%.1f%%", 100.0 * result->total_seconds /
                                        std::max(hive_total, 1.0)),
               std::to_string(result->totals.views_created),
               std::to_string(result->totals.fragments_created),
               std::to_string(result->totals.queries_answered_from_views)});
  }
  std::printf("\nPaper: NP ~= 65.6%% of H, DS ~= 64.2%% of NP (~42%% of H).\n");
  bench::ShapeGate shapes;
  shapes.Check("fig5a DS < NP < H", totals[2] < totals[1] && totals[1] < totals[0]);
  return shapes.ExitCode();
}
