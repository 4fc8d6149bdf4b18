// Ablation: the benefit decay function DEC (Section 7.1). On a
// regime-shifting workload under a tight pool, decay lets DeepSea evict
// views/fragments fitted to the old access pattern; without decay,
// stale benefits keep them competitive and the pool adapts slowly.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

using namespace deepsea;

int main() {
  bench::Banner("Ablation", "Benefit decay on a shifting workload, pool-limited");
  ExperimentRunner runner(bench::Dataset(100.0, /*sdss_distribution=*/false));

  // Three regimes across the domain; tight pool forces eviction choices.
  std::vector<WorkloadQuery> workload;
  int seed = 0;
  for (double center : {50000.0, 200000.0, 350000.0}) {
    RangeGenerator::Config cfg;
    cfg.domain = bench::ItemSkDomain();
    cfg.selectivity_fraction = 0.05;
    cfg.skew = Skew::kHeavy;
    cfg.center = center;
    RangeGenerator gen(cfg, static_cast<uint64_t>(900 + seed++));
    auto part = bench::TemplateWorkload("Q30", 30, &gen);
    workload.insert(workload.end(), part.begin(), part.end());
  }

  TablePrinter table;
  table.Header({"variant", "total (s)", "evictions", "from views"});
  std::vector<double> totals;  // decay on, decay off
  for (bool decay_enabled : {true, false}) {
    StrategySpec spec = bench::DeepSea();
    spec.label = decay_enabled ? "DS (decay on)" : "DS (decay off)";
    spec.options.decay.enabled = decay_enabled;
    spec.options.decay.t_max = 40.0;
    spec.options.pool_limit_bytes = 4e9;
    spec.options.benefit_cost_threshold = 0.0;
    auto result = runner.Run(spec, workload);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    table.Row({result->label, FmtSeconds(result->total_seconds),
               std::to_string(result->totals.fragments_evicted),
               std::to_string(result->totals.queries_answered_from_views)});
    totals.push_back(result->total_seconds);
  }
  std::printf(
      "\nExpected: decay-on adapts to each regime shift and accumulates less"
      "\ntotal time than decay-off under the same pool limit.\n");
  bench::ShapeGate shapes;
  shapes.Check("ablation decay on < decay off", totals[0] < totals[1]);
  return shapes.ExitCode();
}
