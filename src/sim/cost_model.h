#ifndef DEEPSEA_SIM_COST_MODEL_H_
#define DEEPSEA_SIM_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "plan/plan.h"
#include "sim/cluster.h"

namespace deepsea {

/// Estimated execution profile of a (logical-scale) plan.
struct PlanCost {
  double seconds = 0.0;        ///< simulated elapsed time
  double out_rows = 0.0;       ///< estimated output cardinality
  double out_bytes = 0.0;      ///< estimated output size
  double avg_row_bytes = 0.0;  ///< estimated output row width
  int64_t map_tasks = 0;       ///< total map tasks issued
  double bytes_read = 0.0;
  double bytes_shuffled = 0.0;
  double bytes_written = 0.0;  ///< inter-job temp writes
  int64_t num_jobs = 0;        ///< MR job boundaries (joins/aggregates)
};

/// Estimates the execution cost of logical plans against the simulated
/// cluster. Operates purely on logical statistics (table logical bytes,
/// histograms, NDVs) — the physical sample is never consulted — so the
/// same estimator prices 100 GB and 500 GB instances.
///
/// Execution model: scans/fused selections+projections form map phases;
/// every Join and Aggregate is an MR job boundary adding a shuffle and a
/// temp write of its output (the intermediate results that ReStore-style
/// systems and DeepSea consider for materialization).
class PlanCostEstimator {
 public:
  PlanCostEstimator(const ClusterModel* cluster, const Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  /// Full-plan estimate. `plan` may contain ViewRef nodes; fragment
  /// sizes are derived from the view table's histogram on the partition
  /// attribute (the pool keeps that histogram up to date).
  Result<PlanCost> Estimate(const PlanPtr& plan) const;

  /// Estimated selectivity (fraction of child rows retained) of a
  /// predicate, combining histogram mass for range conjuncts with a
  /// fixed selectivity per residual conjunct.
  Result<double> EstimateSelectivity(const ExprPtr& predicate) const;

 private:
  Result<PlanCost> EstimateNode(const PlanPtr& plan) const;

  /// Fraction of the base table's rows inside `iv` for qualified column
  /// `table.column`; falls back to interval-width ratio, then 0.1.
  double RangeFraction(const std::string& column, const Interval& iv) const;

  double ColumnNdv(const std::string& column, double fallback_rows) const;

  const ClusterModel* cluster_;
  const Catalog* catalog_;
};

}  // namespace deepsea

#endif  // DEEPSEA_SIM_COST_MODEL_H_
