// Reproduces Figure 5b: elapsed time of the SDSS-patterned workload
// under the Nectar (N), Nectar+ (N+), and DeepSea (DS) selection
// strategies as the materialized-view pool limit shrinks from 100% to
// 5% of the base-table size, next to vanilla Hive (H), which never
// materializes and so does not depend on the pool (the same workload
// and dataset as Figure 5a).
//
// Paper result: N+ consistently beats N, DS consistently beats N+; the
// gap is marginal at 100% pool and large at 10% (DS ~= 28% of N). DS is
// about 30% faster than H at 10%; every strategy loses to H only at 5%.

#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/str_util.h"

using namespace deepsea;

int main() {
  bench::Banner("Figure 5b",
                "Selection strategies vs pool size (% of base tables), 500GB");
  const auto workload = bench::SdssWorkload(1000, /*seed=*/2017);
  ExperimentRunner runner(bench::Dataset(500.0, /*sdss_distribution=*/true));
  auto base_bytes = runner.BaseTableBytes();
  if (!base_bytes.ok()) {
    std::printf("dataset failed: %s\n", base_bytes.status().ToString().c_str());
    return 1;
  }

  auto hive = runner.Run(bench::Hive(), workload);
  if (!hive.ok()) {
    std::printf("run H failed: %s\n", hive.status().ToString().c_str());
    return 1;
  }
  const double hive_seconds = hive->total_seconds;

  TablePrinter table;
  table.Header({"pool size", "N (s)", "N+ (s)", "DS (s)", "DS/N", "H (s)",
                "DS/H"});
  const double fractions[] = {0.05, 0.10, 0.25, 0.50, 1.00};
  std::vector<std::vector<double>> rows;  // N, N+, DS per pool
  std::vector<EngineTotals> ds_totals;    // DS's ledger per pool
  for (double fraction : fractions) {
    std::vector<double> row_totals;
    for (StrategySpec spec :
         {bench::Nectar(), bench::NectarPlus(), bench::DeepSea()}) {
      spec.options.pool_limit_bytes = fraction * (*base_bytes);
      auto result = runner.Run(spec, workload);
      if (!result.ok()) {
        std::printf("run %s failed: %s\n", spec.label.c_str(),
                    result.status().ToString().c_str());
        return 1;
      }
      row_totals.push_back(result->total_seconds);
      if (spec.label == bench::DeepSea().label) {
        ds_totals.push_back(result->totals);
      }
    }
    table.Row({StrFormat("%.0f%%", fraction * 100.0), FmtSeconds(row_totals[0]),
               FmtSeconds(row_totals[1]), FmtSeconds(row_totals[2]),
               FmtRatio(row_totals[2] / std::max(row_totals[0], 1.0)),
               FmtSeconds(hive_seconds),
               FmtRatio(row_totals[2] / std::max(hive_seconds, 1.0))});
    rows.push_back(std::move(row_totals));
  }
  std::printf(
      "\nPaper: DS < N+ < N everywhere; marginal at 100%% pool, DS ~= 0.28x N"
      " at 10%% pool.\n"
      "Paper: DS ~= 0.7x H at 10%% pool; every strategy loses to H only at"
      " 5%%.\n");

  // DS's realized-return ledger (DESIGN.md §7 deviation 11): views
  // created and the premium their queries paid over the Hive plan, by
  // creation kind; repeat creations the gate withheld, by kind; and the
  // queries answered from a view that created none, with what they
  // saved.
  std::printf("\nDS creation ledger per pool (premium in s):\n");
  TablePrinter ledger(12);
  ledger.Header({"pool size", "first", "premium", "recreation", "premium",
                 "topup", "premium", "recr. w/held", "topup w/held", "reads",
                 "saved"});
  for (size_t i = 0; i < ds_totals.size(); ++i) {
    const EngineTotals& t = ds_totals[i];
    std::vector<std::string> cells = {
        StrFormat("%.0f%%", fractions[i] * 100.0)};
    for (size_t k = 0; k < kCreationKindCount; ++k) {
      cells.push_back(std::to_string(t.views_created_by_kind[k]));
      cells.push_back(FmtSeconds(t.creation_premium_by_kind[k]));
    }
    for (CreationKind kind : {CreationKind::kRecreation, CreationKind::kTopUp}) {
      cells.push_back(
          std::to_string(t.creations_withheld_by_kind[static_cast<size_t>(kind)]));
    }
    cells.push_back(std::to_string(t.view_reads_credited));
    cells.push_back(FmtSeconds(t.view_read_savings));
    ledger.Row(cells);
  }
  // DS < H is reproduced at the 100% pool only (EXPERIMENTS.md); the
  // smaller pools' DS < H target is still open, so it is not gated.
  bench::ShapeGate shapes;
  for (size_t i = 0; i < rows.size(); ++i) {
    shapes.Check(StrFormat("fig5b DS < N and DS < N+ at %.0f%% pool",
                           fractions[i] * 100.0),
                 rows[i][2] < rows[i][0] && rows[i][2] < rows[i][1]);
  }
  shapes.Check("fig5b DS < H at 100% pool", rows.back()[2] < hive_seconds);
  return shapes.ExitCode();
}
