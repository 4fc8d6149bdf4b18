// SQL shell: an interactive (or piped) SQL session over the DeepSea
// engine. Every statement flows through the full adaptive pipeline —
// matching, candidate generation, selection, materialization — and the
// shell reports where the answer came from and what the pool did.
//
// Run interactively:   ./examples/sql_shell
// Or pipe a script:    ./examples/sql_shell < queries.sql
//
// Example session:
//   deepsea> SELECT item.category_id, SUM(store_sales.net_paid) AS revenue
//            FROM store_sales JOIN item ON store_sales.item_sk = item.item_sk
//            WHERE store_sales.item_sk BETWEEN 100000 AND 180000
//            GROUP BY item.category_id
//   deepsea> \pool         -- show the materialized view pool
//   deepsea> \quit

#include <cstdio>
#include <iostream>
#include <string>

#include "core/engine.h"
#include "sql/parser.h"
#include "workload/bigbench.h"

using namespace deepsea;

namespace {

void PrintResult(const ExecResult& result, size_t max_rows = 20) {
  for (size_t c = 0; c < result.schema.num_columns(); ++c) {
    std::printf("%-24s", result.schema.column(c).name.c_str());
  }
  std::printf("\n");
  size_t shown = 0;
  for (const Row& row : result.rows) {
    for (const Value& v : row) std::printf("%-24s", v.ToString().c_str());
    std::printf("\n");
    if (++shown >= max_rows) {
      std::printf("... (%zu rows total)\n", result.rows.size());
      return;
    }
  }
  std::printf("(%zu rows)\n", result.rows.size());
}

void PrintPool(const DeepSeaEngine& engine) {
  std::printf("pool: %.2f GB\n", engine.PoolBytes() / 1e9);
  for (const ViewInfo* view : engine.views().AllViews()) {
    if (!view->InPool()) continue;
    std::printf("  %s (cost %.0f s, benefit %.0f s)\n", view->id.c_str(),
                view->stats.creation_cost, view->stats.UndecayedBenefit());
    if (view->whole_materialized) {
      std::printf("    whole view, %.2f GB\n", view->stats.size_bytes / 1e9);
    }
    for (const auto& [attr, part] : view->partitions) {
      for (const FragmentStats& f : part.fragments()) {
        if (!f.materialized) continue;
        std::printf("    %s %-26s %8.2f GB  %zu hits\n", attr.c_str(),
                    f.interval.ToString().c_str(), f.size_bytes / 1e9,
                    f.hits().size());
      }
    }
  }
}

}  // namespace

int main() {
  Catalog catalog;
  BigBenchDataset::Options data;
  data.total_bytes = 50e9;
  data.sample_rows_per_fact = 3000;
  data.sample_rows_per_dim = 400;
  if (Status s = BigBenchDataset::Generate(data, &catalog); !s.ok()) {
    std::printf("dataset generation failed: %s\n", s.ToString().c_str());
    return 1;
  }
  EngineOptions options;
  options.physical_execution = true;
  options.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog, options);

  std::printf(
      "DeepSea SQL shell over a BigBench-like catalog (50 GB logical).\n"
      "Tables: store_sales, web_sales, web_clickstreams, item, customer.\n"
      "Statements end at end-of-line; \\pool shows the view pool, \\quit"
      " exits.\n");
  std::string line;
  while (true) {
    std::printf("deepsea> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\pool") {
      PrintPool(engine);
      continue;
    }
    auto plan = ParseSql(line);
    if (!plan.ok()) {
      std::printf("parse error: %s\n", plan.status().ToString().c_str());
      continue;
    }
    auto report = engine.ProcessQuery(*plan);
    if (!report.ok()) {
      std::printf("error: %s\n", report.status().ToString().c_str());
      continue;
    }
    if (report->physically_executed) PrintResult(report->physical);
    std::printf("[simulated %.1f s vs %.1f s conventional; source: %s%s]\n",
                report->total_seconds, report->base_seconds,
                report->used_view.empty() ? "base tables"
                                          : ("view " + report->used_view).c_str(),
                report->created_views.empty() ? "" : "; materialized a view");
  }
  return 0;
}
