#ifndef DEEPSEA_REWRITE_MATCHER_H_
#define DEEPSEA_REWRITE_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "core/interval.h"
#include "core/view_catalog.h"
#include "plan/plan.h"
#include "plan/signature.h"
#include "rewrite/filter_tree.h"
#include "sim/cost_model.h"

namespace deepsea {

class PlanningDelta;

/// One possible rewriting of a query using a (tracked) view: the
/// subplan `replaced` is substituted by a compensated read of the view,
/// restricted to `fragments` of `partition` when a matching partition
/// covers the query range. A rewriting is priced without being built;
/// BuildPlan builds the one the planner picks.
struct Rewriting {
  ViewInfo* view = nullptr;
  const PlanNode* replaced = nullptr;
  /// Signature of `replaced`, owned by the query's SignatureTable.
  const PlanSignature* replaced_sig = nullptr;
  /// The view's partition on an attribute the query constrains with a
  /// range; null when there is none.
  const PartitionState* partition = nullptr;
  /// Greedy cover of `query_range` from `partition`; empty = whole-view
  /// read.
  std::vector<Interval> fragments;
  /// True when every byte the rewriting reads is materialized in the
  /// pool (only such rewritings are eligible as Q_best).
  bool executable = false;
  double est_seconds = 0.0;
  int64_t map_tasks = 0;             ///< of the same estimate
  /// Query's selection range on the partition attribute, clamped to the
  /// domain. Set when `partition` is.
  Interval query_range;

  /// The rewritten plan of `query`, the plan the rewriting was computed
  /// for: `replaced` becomes the view read under its compensation.
  PlanPtr BuildPlan(const PlanPtr& query) const;

  std::string ToString() const;
};

/// Computes the set Rewr(Q) of Algorithm 1: for every subplan of the
/// query and every tracked view surviving the filter-tree lookup, tests
/// the sufficient matching condition and, on success, selects fragments
/// with the greedy partition matcher (Algorithm 2) and prices the
/// compensated rewriting.
class ViewMatcher {
 public:
  /// View tables are resolved in the estimator's catalog.
  ViewMatcher(ViewCatalog* views, FilterTree* index,
              const PlanCostEstimator* estimator)
      : views_(views), index_(index), estimator_(estimator) {}

  /// All rewritings of `query`, sorted by estimated cost ascending.
  /// Views not in the pool yield non-executable rewritings, kept so the
  /// engine can update "could have been used" statistics. Subplan
  /// signatures come from `signatures` (the query's table), which must
  /// resolve the query's tables as the estimator's catalog does, and
  /// must outlive the rewritings.
  ///
  /// When `delta` is non-null, every filter-tree lookup is recorded as
  /// an index-probe read on the delta (RecordIndexProbe): a foreign
  /// commit inserting a view whose signature subsumes a probed subplan
  /// could have changed the rewriting choice, so the plan must be
  /// invalidated — while signature-disjoint inserts commute.
  Result<std::vector<Rewriting>> ComputeRewritings(
      const PlanPtr& query, SignatureTable* signatures,
      PlanningDelta* delta = nullptr);

  /// The compensation a rewriting must apply on top of the view read so
  /// the result equals the replaced subplan, as ExtractRanges reads the
  /// predicate BuildCompensation renders: every query range the view
  /// does not enforce identically (in `query_sig.ranges` order, bounds
  /// that are not finite dropped), the residual conjuncts the view
  /// lacks, and the equalities of the query's equivalence classes the
  /// view does not enforce.
  static RangeExtraction CompensationOf(const PlanSignature& view_sig,
                                        const PlanSignature& query_sig);

  /// CompensationOf rendered as a conjunction: per range its lower then
  /// its upper bound, then the residuals, then the equalities. nullptr
  /// when no compensation is needed.
  static ExprPtr BuildCompensation(const PlanSignature& view_sig,
                                   const PlanSignature& query_sig);

 private:
  ViewCatalog* views_;
  FilterTree* index_;
  const PlanCostEstimator* estimator_;
};

}  // namespace deepsea

#endif  // DEEPSEA_REWRITE_MATCHER_H_
