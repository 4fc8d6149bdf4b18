#ifndef DEEPSEA_EXP_EXPERIMENT_H_
#define DEEPSEA_EXP_EXPERIMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/engine_observer.h"
#include "workload/bigbench.h"

namespace deepsea {

/// One workload element: a template instantiated with a selection range
/// on its fact table's item_sk.
struct WorkloadQuery {
  std::string template_name;
  Interval range;
};

/// A named engine configuration to run a workload under.
struct StrategySpec {
  std::string label;
  EngineOptions options;
};

/// Outcome of running one workload under one strategy.
struct RunResult {
  std::string label;
  double total_seconds = 0.0;        ///< execution + materialization
  double base_total_seconds = 0.0;   ///< what vanilla Hive would cost
  std::vector<double> per_query_seconds;
  std::vector<int64_t> per_query_map_tasks;  ///< of each executed plan
  std::vector<double> cumulative_seconds;
  EngineTotals totals;
  double final_pool_bytes = 0.0;

  /// Cumulative time after query i (1-based prefix sums).
  double CumulativeAt(size_t i) const { return cumulative_seconds.at(i); }
};

/// Drives workloads through DeepSeaEngine instances over freshly
/// generated BigBench-like catalogs. Each Run() builds its own catalog
/// (same seed => identical data) so strategies never share state.
class ExperimentRunner {
 public:
  explicit ExperimentRunner(BigBenchDataset::Options data_options)
      : data_options_(data_options) {}

  const BigBenchDataset::Options& data_options() const { return data_options_; }

  /// Runs `workload` under `strategy` on a fresh catalog. When
  /// `observer` is non-null it is attached to the engine for the run
  /// (e.g. a MetricsObserver folding the reports and stage timings;
  /// see exp/metrics.h).
  Result<RunResult> Run(const StrategySpec& strategy,
                        const std::vector<WorkloadQuery>& workload,
                        EngineObserver* observer = nullptr) const;

  /// Total logical bytes of the base tables (for pool-size fractions).
  Result<double> BaseTableBytes() const;

 private:
  BigBenchDataset::Options data_options_;
};

/// Fixed-width table printer for bench output: call Header once, then
/// Row per line. Columns are right-aligned to `width`.
class TablePrinter {
 public:
  explicit TablePrinter(int width = 14) : width_(width) {}
  void Header(const std::vector<std::string>& cols) const;
  void Row(const std::vector<std::string>& cells) const;

 private:
  int width_;
};

/// Formats seconds with no decimals ("12345").
std::string FmtSeconds(double s);
/// Formats a ratio as "0.64".
std::string FmtRatio(double r);

}  // namespace deepsea

#endif  // DEEPSEA_EXP_EXPERIMENT_H_
