#ifndef DEEPSEA_SIM_COST_MODEL_H_
#define DEEPSEA_SIM_COST_MODEL_H_

#include <cstddef>
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
  /// Output column count, as PlanNode::OutputSchema counts them.
  size_t out_columns = 0;
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
  /// The cost the fold takes for `target` instead of descending into
  /// it: the plan is priced as if that subtree were replaced by a node
  /// costing `cost`.
  struct Replacement {
    const PlanNode* target = nullptr;
    PlanCost cost;
  };

  PlanCostEstimator(const ClusterModel* cluster, const Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  /// Full-plan estimate: EstimateNode without a replacement. `plan` may
  /// contain ViewRef nodes; fragment sizes are derived from the view
  /// table's histogram on the partition attribute (the pool keeps that
  /// histogram up to date).
  Result<PlanCost> Estimate(const PlanPtr& plan) const;

  /// The one estimator: a bottom-up fold over `plan`. Every node whose
  /// identity is `replacement->target` yields `replacement->cost` (when
  /// `replacement` is non-null), so a rewriting is priced without
  /// building its plan; the nodes above it do the same arithmetic as on
  /// the built plan.
  Result<PlanCost> EstimateNode(const PlanPtr& plan,
                                const Replacement* replacement = nullptr) const;

  /// A read of view table `view`, restricted to `fragments` of its
  /// partition on `partition_attr` (no fragments = the whole view), as
  /// a ViewRef node prices it. The table is resolved in the estimator's
  /// catalog.
  Result<PlanCost> EstimateViewRead(const std::string& view,
                                    const std::string& partition_attr,
                                    const std::vector<Interval>& fragments) const;

  /// Estimated selectivity (fraction of input rows retained) of a
  /// conjunction given as its extraction, ExtractRanges(predicate) for a
  /// predicate: histogram mass per range in order, then a fixed
  /// selectivity per residual and per column equality, clamped to
  /// [0, 1].
  double SelectivityOf(const RangeExtraction& conjuncts) const;

  /// A selection with selectivity `sel` over an input costing `cost`.
  /// It is fused into the producing phase: rows and bytes shrink, time
  /// does not grow.
  static void ApplySelection(double sel, PlanCost* cost);

 private:
  /// Fraction of the base table's rows inside `iv` for qualified column
  /// `table.column`; falls back to interval-width ratio, then 0.1.
  double RangeFraction(const std::string& column, const Interval& iv) const;

  double ColumnNdv(const std::string& column, double fallback_rows) const;

  const ClusterModel* cluster_;
  const Catalog* catalog_;
};

}  // namespace deepsea

#endif  // DEEPSEA_SIM_COST_MODEL_H_
