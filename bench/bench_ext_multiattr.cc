// Extension bench: multi-attribute partitioning (paper Section 11
// future work; Section 4 already permits multiple partitions per view
// on different attributes). A workload alternates item-range-selective
// and date-range-selective queries over the same projected join view;
// maintaining partitions on both attributes answers both query shapes
// from small fragments.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"
#include "workload/bigbench.h"

using namespace deepsea;

int main() {
  bench::Banner("Extension", "Multi-attribute partitioning, Q30D, 100GB");

  // This bench drives the engine directly (the Q30D extension template
  // takes two ranges, which the generic runner does not model).
  struct Variant {
    const char* label;
    StrategyKind strategy;
  };
  TablePrinter table;
  table.Header({"variant", "total (s)", "base (s)", "from views", "frags"});
  std::vector<double> totals;  // Hive, DS
  for (const Variant& variant :
       {Variant{"Hive", StrategyKind::kHive},
        Variant{"DS multi-attr", StrategyKind::kDeepSea}}) {
    Catalog catalog;
    BigBenchDataset::Options data = bench::Dataset(100.0, false);
    if (Status s = BigBenchDataset::Generate(data, &catalog); !s.ok()) {
      std::printf("dataset failed: %s\n", s.ToString().c_str());
      return 1;
    }
    EngineOptions opts = bench::BaseOptions();
    opts.strategy = variant.strategy;
    DeepSeaEngine engine(&catalog, opts);
    Rng rng(17);
    double total = 0.0, base = 0.0;
    for (int i = 0; i < 60; ++i) {
      // Even queries are item-selective (narrow item range, all dates);
      // odd queries are date-selective (all items, narrow date window).
      const double lo = 100000 + rng.Uniform(-2000, 2000);
      const double d = 100 + rng.Uniform(-10, 10);
      auto plan = (i % 2 == 0)
                      ? BigBenchTemplates::BuildQ30D(lo, lo + 30000, 0, 365)
                      : BigBenchTemplates::BuildQ30D(0, 400000, d, d + 30);
      if (!plan.ok()) return 1;
      auto report = engine.ProcessQuery(*plan);
      if (!report.ok()) {
        std::printf("query failed: %s\n", report.status().ToString().c_str());
        return 1;
      }
      total += report->total_seconds;
      base += report->base_seconds;
    }
    table.Row({variant.label, FmtSeconds(total), FmtSeconds(base),
               std::to_string(engine.totals().queries_answered_from_views),
               std::to_string(engine.totals().fragments_created)});
    totals.push_back(total);
  }
  std::printf(
      "\nExpected: with partitions on both item_sk and sold_date, both query"
      "\nshapes are answered from fragments and total time drops well below"
      "\nthe no-views baseline.\n");
  bench::ShapeGate shapes;
  shapes.Check("extension multi-attribute DS < H", totals[1] < totals[0]);
  return shapes.ExitCode();
}
