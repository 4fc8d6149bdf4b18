#ifndef DEEPSEA_CORE_REWRITE_PLANNER_H_
#define DEEPSEA_CORE_REWRITE_PLANNER_H_

#include <memory>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "core/engine_options.h"
#include "core/query_context.h"
#include "core/view_catalog.h"
#include "rewrite/filter_tree.h"
#include "rewrite/matcher.h"
#include "sim/cost_model.h"

namespace deepsea {

/// Stage 1 of the pipeline (Algorithm 1 lines 1-3): computes the
/// conventional base plan, enumerates rewritings over the tracked views
/// (owning the ViewMatcher), folds the rewritings into the view and
/// fragment statistics, and picks Q_best — the cheapest executable
/// rewriting if it beats the base plan. The chosen fragment cover is
/// published on the QueryContext for later repartitioning credit.
class RewritePlanner {
 public:
  RewritePlanner(Catalog* catalog, const PlanCostEstimator* estimator,
                 ViewCatalog* views, FilterTree* index)
      : catalog_(catalog), estimator_(estimator) {
    matcher_ = std::make_unique<ViewMatcher>(views, index, estimator);
  }

  /// Selection pushdown + cost of the conventional plan. Runs for every
  /// strategy (including plain Hive); seeds report base/best/map_tasks
  /// and ctx->base_plan / ctx->executed_plan.
  Status PlanBase(QueryContext* ctx, QueryReport* report);

  /// Rewriting enumeration, statistics update, and the Q_best choice.
  /// Only the chosen rewriting's plan is built.
  Status PlanBest(QueryContext* ctx, QueryReport* report);

 private:
  /// Algorithm 1 line 2: every rewriting is evidence. The best rewriting
  /// per view records a benefit event; every tracked fragment
  /// overlapping the query range records a hit (Section 7.1). All
  /// writes go into the query's PlanningDelta — planning runs under the
  /// shared lock and must not touch shared statistics.
  void UpdateStatsFromRewritings(const std::vector<Rewriting>& rewritings,
                                 double base_seconds, double t_now,
                                 PlanningDelta* delta);

  Catalog* catalog_;
  const PlanCostEstimator* estimator_;
  std::unique_ptr<ViewMatcher> matcher_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_REWRITE_PLANNER_H_
