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
/// restricted to `fragments` of the partition on `partition_attr` when
/// a matching partition exists.
struct Rewriting {
  PlanPtr plan;                      ///< full rewritten query plan
  std::string view_id;
  const PlanNode* replaced = nullptr;
  std::string partition_attr;        ///< empty = whole-view read
  std::vector<Interval> fragments;   ///< greedy cover of the query range
  /// True when every byte the rewriting reads is materialized in the
  /// pool (only such rewritings are eligible as Q_best).
  bool executable = false;
  double est_seconds = 0.0;
  int64_t map_tasks = 0;             ///< of the same estimate
  /// Query's selection range on partition_attr, clamped to the domain.
  Interval query_range;
  bool has_query_range = false;

  std::string ToString() const;
};

/// Computes the set Rewr(Q) of Algorithm 1: for every subplan of the
/// query and every tracked view surviving the filter-tree lookup, tests
/// the sufficient matching condition and, on success, constructs the
/// compensated rewriting and selects fragments with the greedy
/// partition matcher (Algorithm 2).
class ViewMatcher {
 public:
  ViewMatcher(ViewCatalog* views, FilterTree* index, const Catalog* catalog,
              const PlanCostEstimator* estimator)
      : views_(views), index_(index), catalog_(catalog), estimator_(estimator) {}

  /// All rewritings of `query`, sorted by estimated cost ascending.
  /// Views not in the pool yield non-executable rewritings, kept so the
  /// engine can update "could have been used" statistics. Subplan
  /// signatures come from `signatures` (the query's table), which must
  /// resolve the query's tables as the matcher's catalog does.
  ///
  /// When `delta` is non-null, every filter-tree lookup is recorded as
  /// an index-probe read on the delta (RecordIndexProbe): a foreign
  /// commit inserting a view whose signature subsumes a probed subplan
  /// could have changed the rewriting choice, so the plan must be
  /// invalidated — while signature-disjoint inserts commute.
  Result<std::vector<Rewriting>> ComputeRewritings(
      const PlanPtr& query, SignatureTable* signatures,
      PlanningDelta* delta = nullptr);

  /// Builds the compensation predicate a rewriting must apply on top of
  /// the view read so the result equals the replaced subplan: all range
  /// constraints, residual conjuncts the view lacks, and equality
  /// constraints not enforced by the view. Returns nullptr when no
  /// compensation is needed. Exposed for testing.
  static ExprPtr BuildCompensation(const PlanSignature& view_sig,
                                   const PlanSignature& query_sig);

 private:
  ViewCatalog* views_;
  FilterTree* index_;
  const Catalog* catalog_;
  const PlanCostEstimator* estimator_;
};

}  // namespace deepsea

#endif  // DEEPSEA_REWRITE_MATCHER_H_
