// Quickstart: the smallest end-to-end DeepSea session.
//
// Builds a BigBench-like catalog, processes a handful of analytic
// queries through the DeepSea engine, and shows how the engine first
// answers from base tables, then materializes a partitioned view, and
// finally answers follow-up queries from small view fragments. Physical
// execution is enabled, so real rows flow through the executor and the
// printed result comes from actual data.
//
// Run:  ./examples/quickstart
//
// At end-of-run the example prints a Prometheus scrape of the session
// (see OBSERVABILITY.md) and also writes it to quickstart_metrics.prom
// in the working directory — CI validates that file with tools/promlint.

#include <cstdio>

#include "core/engine.h"
#include "exp/metrics.h"
#include "workload/bigbench.h"

using namespace deepsea;

int main() {
  // 1. Generate a 20 GB (logical) retail dataset with a physical sample
  //    of a few thousand rows per fact table.
  Catalog catalog;
  BigBenchDataset::Options data;
  data.total_bytes = 20e9;
  data.sample_rows_per_fact = 4000;
  data.sample_rows_per_dim = 500;
  if (Status s = BigBenchDataset::Generate(data, &catalog); !s.ok()) {
    std::printf("dataset generation failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 2. Create a DeepSea engine. The default options run the full
  //    adaptive strategy; physical_execution also runs every query over
  //    the sample rows (not just the cost model).
  EngineOptions options;
  options.physical_execution = true;
  options.benefit_cost_threshold = 0.05;  // materialize after little evidence
  DeepSeaEngine engine(&catalog, options);

  // Attach the production metrics sink: counters/histograms accumulate
  // from the observer hooks, pool gauges are read at scrape time.
  MetricsObserver metrics;
  metrics.set_pool(&engine.pool());
  engine.set_observer(&metrics);

  // 3. Ask the same analytic question over a drifting item range:
  //    "revenue per category for items in [lo, hi]" (template Q30).
  std::printf("%-5s %-28s %10s %10s %8s %s\n", "query", "item_sk range",
              "base (s)", "total (s)", "source", "notes");
  for (int i = 0; i < 8; ++i) {
    const double lo = 100000 + i * 2000;
    const double hi = 180000 + i * 2000;
    auto plan = BigBenchTemplates::Build("Q30", lo, hi);
    if (!plan.ok()) return 1;
    auto report = engine.ProcessQuery(*plan);
    if (!report.ok()) {
      std::printf("query failed: %s\n", report.status().ToString().c_str());
      return 1;
    }
    std::string notes;
    if (!report->created_views.empty()) {
      notes = "materialized view " + report->created_views[0];
      if (report->created_fragments > 0) {
        notes += " (" + std::to_string(report->created_fragments) + " fragments)";
      }
    } else if (report->created_fragments > 0) {
      notes = "refined " + std::to_string(report->created_fragments) + " fragment(s)";
    }
    std::printf("Q30_%d [%.0f, %.0f]%*s %10.1f %10.1f %8s %s\n", i + 1, lo, hi,
                static_cast<int>(12 - std::to_string(i).size()), "",
                report->base_seconds, report->total_seconds,
                report->used_view.empty() ? "base" : report->used_view.c_str(),
                notes.c_str());
  }

  // 4. Show the final pool state: which fragments exist and how big.
  std::printf("\nmaterialized view pool (%.2f GB):\n", engine.PoolBytes() / 1e9);
  for (const ViewInfo* view : engine.views().AllViews()) {
    if (!view->InPool()) continue;
    std::printf("  %s  (creation cost %.0f s)\n", view->id.c_str(),
                view->stats.creation_cost);
    for (const auto& [attr, part] : view->partitions) {
      for (const FragmentStats& f : part.fragments()) {
        if (!f.materialized) continue;
        std::printf("    %-28s %8.2f GB  %zu hits\n",
                    f.interval.ToString().c_str(), f.size_bytes / 1e9,
                    f.hits().size());
      }
    }
  }

  // 5. And the last query's actual result rows (physical execution).
  std::printf("\nlast result (category, revenue):\n");
  auto last = BigBenchTemplates::Build("Q30", 114000, 194000);
  auto report = engine.ProcessQuery(*last);
  if (report.ok() && report->physically_executed) {
    int shown = 0;
    for (const Row& row : report->physical.rows) {
      std::printf("  %-10s %s\n", row[0].ToString().c_str(),
                  row[1].ToString().c_str());
      if (++shown >= 8) break;
    }
    std::printf("  (%zu rows total)\n", report->physical.rows.size());
  }

  // 6. The Prometheus scrape an operator would see (OBSERVABILITY.md
  //    explains every series). Also saved for the CI format check.
  const std::string scrape = metrics.RenderPrometheusText();
  std::printf("\n--- prometheus scrape ---\n%s", scrape.c_str());
  if (FILE* f = std::fopen("quickstart_metrics.prom", "w")) {
    std::fwrite(scrape.data(), 1, scrape.size(), f);
    std::fclose(f);
    std::printf("--- scrape written to quickstart_metrics.prom ---\n");
  }
  return 0;
}
