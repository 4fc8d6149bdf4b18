// Strategy face-off: run one workload under every materialization /
// partitioning strategy the library implements (the paper's H, NP,
// E-k, NR, DS plus the Nectar selection models) and compare them side
// by side. A compact way to explore how the knobs in EngineOptions
// shape behaviour on your own workload.
//
// Run:  ./examples/strategy_faceoff

#include <cstdio>
#include <vector>

#include "exp/experiment.h"
#include "workload/range_generator.h"

using namespace deepsea;

namespace {

// A focused session: one hot region queried intensely, then a brief
// excursion — the access pattern DeepSea's adaptive partitioning is
// built for.
std::vector<WorkloadQuery> FocusedWorkload() {
  std::vector<WorkloadQuery> workload;
  RangeGenerator::Config cfg;
  cfg.domain = Interval(0.0, 400000.0);
  cfg.selectivity_fraction = 0.02;
  cfg.skew = Skew::kHeavy;
  cfg.center = 120000.0;
  RangeGenerator hot(cfg, 100);
  for (int i = 0; i < 60; ++i) workload.push_back({"Q30", hot.Next()});
  cfg.center = 300000.0;
  RangeGenerator excursion(cfg, 101);
  for (int i = 0; i < 15; ++i) workload.push_back({"Q30", excursion.Next()});
  return workload;
}

// A roaming session: interest hops across three regions. Static
// full-coverage partitioning (equi-depth) is strong here — the honest
// tradeoff the paper's Fig. 7 shows for low-skew workloads.
std::vector<WorkloadQuery> RoamingWorkload() {
  std::vector<WorkloadQuery> workload;
  int seed = 200;
  for (double center : {80000.0, 240000.0, 330000.0}) {
    RangeGenerator::Config cfg;
    cfg.domain = Interval(0.0, 400000.0);
    cfg.selectivity_fraction = 0.03;
    cfg.skew = Skew::kHeavy;
    cfg.center = center;
    RangeGenerator gen(cfg, static_cast<uint64_t>(seed++));
    for (int i = 0; i < 25; ++i) workload.push_back({"Q30", gen.Next()});
  }
  return workload;
}

}  // namespace

int main() {
  BigBenchDataset::Options data;
  data.total_bytes = 100e9;
  data.sample_rows_per_fact = 256;
  data.sample_rows_per_dim = 64;
  ExperimentRunner runner(data);

  auto strategy = [](const char* label, StrategyKind kind,
                     ValueModel model = ValueModel::kDeepSea) {
    StrategySpec s;
    s.label = label;
    s.options.strategy = kind;
    s.options.value_model = model;
    s.options.benefit_cost_threshold = 0.05;
    s.options.pool_limit_bytes = 12e9;  // a tight pool makes selection matter
    // The heavy-skew ranges jitter around each region's center; a
    // coarser snap grid than the default lets one refinement fragment
    // serve a region instead of one per jitter cell.
    s.options.candidate_snap_fraction = 0.0125;
    return s;
  };
  std::vector<StrategySpec> specs = {
      strategy("Hive", StrategyKind::kHive),
      strategy("NoPartition", StrategyKind::kNoPartition),
      strategy("EquiDepth-8", StrategyKind::kEquiDepth),
      strategy("NoRefine", StrategyKind::kNoRefine),
      strategy("Nectar", StrategyKind::kDeepSea, ValueModel::kNectar),
      strategy("Nectar+", StrategyKind::kDeepSea, ValueModel::kNectarPlus),
      strategy("DeepSea", StrategyKind::kDeepSea),
  };
  specs[2].options.equi_depth_fragments = 8;

  struct Scenario {
    const char* title;
    std::vector<WorkloadQuery> workload;
  };
  const Scenario scenarios[] = {
      {"focused session (one hot region, heavy skew)", FocusedWorkload()},
      {"roaming session (three regions)", RoamingWorkload()},
  };
  for (const Scenario& scenario : scenarios) {
    std::printf("\n== %s ==\n", scenario.title);
    std::printf("%-14s %12s %10s %8s %8s %8s %10s\n", "strategy", "total (s)",
                "% of Hive", "views", "frags", "evicted", "pool (GB)");
    double hive_total = 0.0;
    for (const StrategySpec& spec : specs) {
      auto result = runner.Run(spec, scenario.workload);
      if (!result.ok()) {
        std::printf("%s failed: %s\n", spec.label.c_str(),
                    result.status().ToString().c_str());
        return 1;
      }
      if (hive_total == 0.0) hive_total = result->total_seconds;
      std::printf("%-14s %12.0f %9.1f%% %8ld %8ld %8ld %10.2f\n",
                  result->label.c_str(), result->total_seconds,
                  100.0 * result->total_seconds / hive_total,
                  result->totals.views_created, result->totals.fragments_created,
                  result->totals.fragments_evicted,
                  result->final_pool_bytes / 1e9);
    }
  }
  std::printf(
      "\nThe focused session rewards adaptive partitioning (small hot"
      "\nfragments, little creation work); the roaming session shows the"
      "\ntradeoff: static full-coverage partitioning amortizes across"
      "\nregions the adaptive strategies must chase.\n");
  return 0;
}
