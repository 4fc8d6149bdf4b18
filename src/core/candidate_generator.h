#ifndef DEEPSEA_CORE_CANDIDATE_GENERATOR_H_
#define DEEPSEA_CORE_CANDIDATE_GENERATOR_H_

#include "catalog/table.h"
#include "core/engine_options.h"
#include "core/pool_manager.h"
#include "core/query_context.h"
#include "core/view_catalog.h"
#include "rewrite/filter_tree.h"
#include "sim/cluster.h"

namespace deepsea {

/// Stage 2 of the pipeline (Algorithm 1 lines 4-5): enumerates the
/// query's view candidates (Definition 6) and partition candidates
/// (Definition 7), registers new views, seeds their initial rough
/// benefit estimates, and refines pending fragmentations at the query's
/// range endpoints. Results land in QueryContext::view_candidates /
/// fragment_candidates for the SelectionPlanner.
///
/// All registrations are buffered in the query's PlanningDelta (new
/// views, view tables via PoolManager::RegisterViewTable on the
/// planning catalog,
/// rewrite-index inserts, partition/fragment tracking, histogram
/// attachments): this stage runs under the shared lock and publishes
/// nothing until PoolManager::Apply folds the delta.
class CandidateGenerator {
 public:
  CandidateGenerator(Catalog* catalog, const EngineOptions* options,
                     const ClusterModel* cluster, ViewCatalog* views,
                     FilterTree* index, PoolManager* pool)
      : catalog_(catalog),
        options_(options),
        cluster_(cluster),
        views_(views),
        index_(index),
        pool_(pool) {}

  /// V_cand over `candidate_plan` (Q_best's plan when a view answered
  /// the query, the raw query otherwise). `base_seconds` drives the
  /// initial rough benefit seeding.
  void RegisterViewCandidates(const PlanPtr& candidate_plan,
                              double base_seconds, QueryContext* ctx);

  /// P_cand over the query's selection contexts (always the raw query:
  /// they drive refinement of the serving view).
  void RegisterPartitionCandidates(QueryContext* ctx);

 private:
  Catalog* catalog_;
  const EngineOptions* options_;
  const ClusterModel* cluster_;
  ViewCatalog* views_;
  FilterTree* index_;
  PoolManager* pool_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_CANDIDATE_GENERATOR_H_
