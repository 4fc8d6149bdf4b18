#ifndef DEEPSEA_CORE_SELECTION_PLANNER_H_
#define DEEPSEA_CORE_SELECTION_PLANNER_H_

#include <string>
#include <vector>

#include "catalog/table.h"
#include "core/decay.h"
#include "core/engine_options.h"
#include "core/mle_model.h"
#include "core/query_context.h"
#include "core/selection_strategy.h"
#include "core/view_catalog.h"
#include "sim/cluster.h"

namespace deepsea {

/// Stage 3 of the pipeline: benefit/cost filtering of the candidates
/// (Section 7.2) followed by the knapsack over
/// ALLCAND = V_sel ∪ P_sel ∪ pool content under S_max (Section 7.3).
/// The planner builds the candidate items and hands them to the pure
/// greedy knapsack (ResolveGreedy, core/selection_strategy.h).
/// Planning updates candidate *statistics* tracking (fragments entering
/// STAT, inherited hit histories) — that is the paper's bookkeeping —
/// but all of it lands in the query's PlanningDelta: this stage runs
/// under the shared lock and reads shared statistics strictly const
/// (through the delta's effective readers). Pool state (materialized
/// flags, SimFs files, charged seconds) and the delta fold belong to
/// PoolManager::Apply.
class SelectionPlanner {
 public:
  SelectionPlanner(const Catalog* catalog, const EngineOptions* options,
                   const ClusterModel* cluster, const DecayFunction* decay,
                   MleFragmentModel* mle, ViewCatalog* views)
      : catalog_(catalog),
        options_(options),
        cluster_(cluster),
        decay_(decay),
        mle_(mle),
        views_(views) {}

  /// Produces this query's reconfiguration decision plus the
  /// knapsack's telemetry (objective, items considered).
  /// `base_seconds` is the query's conventional-plan cost (drives the
  /// fragment top-up filter).
  SelectionResolution PlanSelection(const QueryContext& ctx,
                                    double base_seconds);

 private:
  const Catalog* catalog_;
  const EngineOptions* options_;
  const ClusterModel* cluster_;
  const DecayFunction* decay_;
  MleFragmentModel* mle_;
  ViewCatalog* views_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_SELECTION_PLANNER_H_
