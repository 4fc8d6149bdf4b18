// Ablation: fragment size bounding (Section 9, "Bounding Fragment
// Size"). When early queries touch only a narrow hot range, unbounded
// creation leaves one huge cold fragment; if the workload later moves
// into that cold region, queries over-read until repartitioning catches
// up. The phi bound splits oversized fragments at creation time.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

using namespace deepsea;

int main() {
  bench::Banner("Ablation", "Fragment size bounding (phi), 100GB");
  ExperimentRunner runner(bench::Dataset(100.0, /*sdss_distribution=*/false));

  // Phase 1: narrow hot range; phase 2: jump into the formerly cold area.
  std::vector<WorkloadQuery> workload;
  {
    RangeGenerator::Config cfg;
    cfg.domain = bench::ItemSkDomain();
    cfg.selectivity_fraction = 0.01;
    cfg.skew = Skew::kHeavy;
    cfg.center = 30000.0;
    RangeGenerator phase1(cfg, 61);
    auto first = bench::TemplateWorkload("Q30", 8, &phase1);
    cfg.center = 280000.0;
    RangeGenerator phase2(cfg, 62);
    auto second = bench::TemplateWorkload("Q30", 12, &phase2);
    workload = first;
    workload.insert(workload.end(), second.begin(), second.end());
  }

  TablePrinter table;
  table.Header({"phi", "total (s)", "phase2 (s)", "frags"});
  std::vector<double> phase2s;  // unbounded, phi=0.25, phi=0.10
  for (double phi : {0.0, 0.25, 0.10}) {
    StrategySpec spec = bench::DeepSea();
    spec.label = phi <= 0.0 ? "unbounded" : StrFormat("phi=%.2f", phi);
    spec.options.max_fragment_fraction = phi;
    spec.options.benefit_cost_threshold = 0.0;
    auto result = runner.Run(spec, workload);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    const double phase2 = result->CumulativeAt(20) - result->CumulativeAt(8);
    table.Row({result->label, FmtSeconds(result->total_seconds),
               FmtSeconds(phase2),
               std::to_string(result->totals.fragments_created)});
    phase2s.push_back(phase2);
  }
  std::printf(
      "\nExpected: bounding phi reduces phase-2 over-reads of the cold"
      "\nfragment at a modest extra creation cost.\n");
  bench::ShapeGate shapes;
  shapes.Check("ablation bounded phi < unbounded in phase 2",
               phase2s[1] < phase2s[0] && phase2s[2] < phase2s[0]);
  return shapes.ExitCode();
}
