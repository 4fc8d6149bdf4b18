// Reproduces Figure 8: exploitation of fragment correlations.
//   (a) Workload of 10 Q30 queries with big selectivity + heavy skew
//       followed by 40 small heavy-skew queries scattered around the
//       hot centre, 500 GB instance, tight pool: DeepSea's MLE
//       smoothing keeps fragments that neighbor hot fragments, beating
//       Nectar's hit-count-only selection which evicts and re-creates.
//   (b) Selection ranges whose midpoints follow a Zipf distribution
//       (radically non-Normal): DeepSea must not do worse than Nectar.
// An extra "DS-noMLE" series isolates the smoothing (ablation).
//
// Paper result: DS << N under Normal-like hits; DS ~= N (not worse)
// under Zipf.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/math_util.h"
#include "common/str_util.h"

using namespace deepsea;

namespace {

// 8b's "not worse": the 40-query Zipf sequence costs about 10,000 s,
// and one materialization decision moves that by several percent, so
// DS may exceed N by up to one such decision (EXPERIMENTS.md, Fig. 8).
constexpr double kZipfTolerance = 0.10;

StrategySpec DeepSeaNoMle() {
  StrategySpec s = deepsea::bench::DeepSea();
  s.label = "DS-noMLE";
  s.options.use_mle_smoothing = false;
  return s;
}

}  // namespace

int main() {
  bench::Banner("Figure 8", "Fragment correlations: Normal (8a) and Zipf (8b)");
  ExperimentRunner runner(bench::Dataset(500.0, /*sdss_distribution=*/false));

  // ---- 8a: big+small heavy-skew sequence, tight pool ----
  // The pool is sized so the jittering small queries' hot fragments do
  // not all fit: eviction decisions differentiate the strategies (the
  // paper's point: Nectar evicts low-hit neighbors of hot fragments and
  // pays re-creation; DeepSea's smoothing keeps them).
  std::printf("\n[8a] 10 big + 50 small heavy-skew Q30 queries, pool 4GB\n");
  std::vector<WorkloadQuery> workload_a;
  {
    RangeGenerator big(bench::ItemSkDomain(), Selectivity::kBig, Skew::kHeavy, 7);
    // Small queries scatter around the hot centre widely enough (sigma
    // ~2% of the domain) that their fragments cannot all stay resident:
    // the strategies must choose which neighbors of the hot spot to
    // keep — the decision the probabilistic model improves.
    RangeGenerator::Config small_cfg;
    small_cfg.domain = bench::ItemSkDomain();
    small_cfg.selectivity_fraction = 0.01;
    small_cfg.skew = Skew::kHeavy;
    RangeGenerator small(small_cfg, 8);
    auto first = bench::TemplateWorkload("Q30", 10, &big);
    workload_a = first;
    Rng spread(99);
    for (int i = 0; i < 50; ++i) {
      Interval r = small.Next();
      const double offset = spread.Gaussian(0.0, 8000.0);
      workload_a.push_back(
          {"Q30", Interval(Clamp(r.lo + offset, 0.0, 396000.0),
                           Clamp(r.hi + offset, 4000.0, 400000.0))});
    }
  }
  TablePrinter table;
  table.Header({"strategy", "cumulative (s)", "evictions", "from views"});
  std::vector<double> totals_a;  // N, DS-noMLE, DS
  for (StrategySpec spec : {bench::Nectar(), DeepSeaNoMle(), bench::DeepSea()}) {
    spec.options.pool_limit_bytes = 4e9;
    spec.options.benefit_cost_threshold = 0.0;
    auto result = runner.Run(spec, workload_a);
    if (!result.ok()) {
      std::printf("run failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    table.Row({result->label, FmtSeconds(result->total_seconds),
               std::to_string(result->totals.fragments_evicted),
               std::to_string(result->totals.queries_answered_from_views)});
    totals_a.push_back(result->total_seconds);
  }

  // ---- 8b: Zipf-distributed selections, pool sweep ----
  std::printf("\n[8b] Zipf-distributed selection midpoints, N vs DS\n");
  TablePrinter tb;
  tb.Header({"pool (GB)", "N (s)", "DS (s)", "DS/N"});
  std::vector<std::pair<double, double>> ratios_b;  // pool GB, DS/N
  for (double pool_gb : {4.0, 8.0, 25.0}) {
    ZipfRangeGenerator zipf(bench::ItemSkDomain(), 0.01, /*buckets=*/64,
                            /*exponent=*/1.3, /*seed=*/11);
    std::vector<WorkloadQuery> workload_b;
    for (int i = 0; i < 40; ++i) workload_b.push_back({"Q30", zipf.Next()});
    std::vector<double> totals;
    for (StrategySpec spec : {bench::Nectar(), bench::DeepSea()}) {
      spec.options.pool_limit_bytes = pool_gb * 1e9;
      spec.options.benefit_cost_threshold = 0.0;
      auto result = runner.Run(spec, workload_b);
      if (!result.ok()) {
        std::printf("run failed: %s\n", result.status().ToString().c_str());
        return 1;
      }
      totals.push_back(result->total_seconds);
    }
    tb.Row({StrFormat("%.0f", pool_gb), FmtSeconds(totals[0]),
            FmtSeconds(totals[1]), FmtRatio(totals[1] / totals[0])});
    ratios_b.emplace_back(pool_gb, totals[1] / totals[0]);
  }
  std::printf(
      "\nPaper: DS significantly beats N when hits are Normal-like (8a); DS"
      "\nis not worse than N under Zipf (8b).\n");
  bench::ShapeGate shapes;
  shapes.Check("fig8a N > DS-noMLE > DS",
               totals_a[0] > totals_a[1] && totals_a[1] > totals_a[2]);
  for (const auto& [pool_gb, ratio] : ratios_b) {
    shapes.Check(StrFormat("fig8b DS/N <= %.2f at %.0f GB pool",
                           1.0 + kZipfTolerance, pool_gb),
                 ratio <= 1.0 + kZipfTolerance);
  }
  return shapes.ExitCode();
}
