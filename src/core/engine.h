#ifndef DEEPSEA_CORE_ENGINE_H_
#define DEEPSEA_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "catalog/table.h"
#include "common/result.h"
#include "core/candidate_generator.h"
#include "core/decay.h"
#include "core/engine_observer.h"
#include "core/engine_options.h"
#include "core/mle_model.h"
#include "core/pool_manager.h"
#include "core/query_context.h"
#include "core/rewrite_planner.h"
#include "core/selection_planner.h"
#include "core/shared_pool.h"
#include "core/view_catalog.h"
#include "exec/executor.h"
#include "plan/plan.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "storage/sim_fs.h"

namespace deepsea {

/// The DeepSea engine: a thin, re-entrant orchestrator over the four
/// pipeline stages of Algorithm 1, wired per query through a fresh
/// QueryContext value object:
///
///   1. RewritePlanner     — rewriting enumeration, statistics update,
///                           Q_best choice (lines 1-3);
///   2. CandidateGenerator — view candidates (Def. 6) and partition
///                           candidates (Def. 7), registered in STAT
///                           (lines 4-5);
///   3. SelectionPlanner   — benefit >= cost filtering (Section 7.2)
///                           and the greedy knapsack under S_max
///                           (Section 7.3), emitted as a declarative
///                           SelectionDecision;
///   4. PoolManager        — owns the pool state (view catalog +
///                           simulated FS + rewrite index + commit
///                           clock); applies the decision, charges
///                           materialization time, and runs the
///                           Section 11 merge pass.
///
/// Tenancy: an engine either owns a private PoolManager (single-tenant
/// constructor — behaviour identical to the pre-tenancy engine) or
/// attaches to a SharedPool as one named tenant among several.
/// ProcessQuery is two-phase: the planning stages (1-3) run
/// speculatively under the pool's *shared* lock, buffering every
/// would-be statistics write into the query's PlanningDelta — which
/// records the plan's read footprint as it goes — so concurrent
/// tenants plan in parallel. The commit then takes one of two paths:
///
///  * Sharded (the steady-state default): IX on the pool lock plus the
///    per-view commit shards of the plan's write footprint. The plan is
///    validated by read-set conflict detection — it commits as planned
///    unless a foreign commit published after its read epoch (or still
///    in flight) wrote something it read. Disjoint-footprint tenants
///    commit truly concurrently — including tenants that CREATE views:
///    new views are named from a per-engine placeholder-id reservation
///    (no shared-counter read), their catalog/index writes publish as
///    precise signature sets, and the catalog fold runs under the
///    pool's internal catalog mutex, so signature-disjoint creations
///    commute.
///
///  * Exclusive: the merge pass, inline evictions (pool occupancy every
///    knapsack budgets against), physical execution, and replans after
///    a failed validation. QueryReport's replan_conflict /
///    replan_spurious record why a replan happened; exclusive_reason
///    attributes each exclusive commit.
///
/// Either way the resulting pool state is a function of the commit
/// order alone: conflicting plans are rebuilt, and commuting (disjoint)
/// plans produce the same state in any order. Statistics recorded
/// during a query are stamped with the tenant's interned ordinal for
/// per-tenant benefit attribution.
///
/// An EngineObserver can be attached to watch stage boundaries, each
/// query's report and the pieces evicted from the pool (see
/// core/engine_observer.h); with no observer attached the pipeline pays
/// no timing overhead. totals() is the fold of every report returned
/// (EngineTotals::Add).
class DeepSeaEngine {
 public:
  /// Single-tenant engine owning a private pool. `catalog` must outlive
  /// the engine and contain the base tables.
  DeepSeaEngine(Catalog* catalog, EngineOptions options);

  /// Multi-tenant engine: one tenant (`tenant` must be non-empty,
  /// without whitespace) sharing `pool` with other engines. The engine
  /// copies the pool's EngineOptions, so all tenants plan under the
  /// same S_max and cost model. `catalog` must be the same catalog the
  /// SharedPool was built over (view tables registered by one tenant
  /// must be visible to the others' estimators); both must outlive the
  /// engine.
  DeepSeaEngine(Catalog* catalog, SharedPool* pool, std::string tenant);

  DeepSeaEngine(const DeepSeaEngine&) = delete;
  DeepSeaEngine& operator=(const DeepSeaEngine&) = delete;

  Result<QueryReport> ProcessQuery(const PlanPtr& query);

  const EngineOptions& options() const { return options_; }
  const ViewCatalog& views() const { return pool_->views(); }
  const SimFs& fs() const { return pool_->fs(); }
  const ClusterModel& cluster() const { return cluster_; }
  const PlanCostEstimator& estimator() const { return estimator_; }
  const EngineTotals& totals() const { return totals_; }
  Catalog* catalog() { return catalog_; }

  /// This engine's tenant id ("" for a single-tenant engine) and its
  /// interned ordinal in the pool's tenant registry.
  const std::string& tenant() const { return tenant_; }
  int32_t tenant_ord() const { return tenant_ord_; }

  /// The pool-state component (view catalog + simulated FS + the
  /// materialize/evict/merge primitives). Mutation goes through the
  /// PoolManager's own commit protocol — the engine no longer exposes
  /// raw mutable access to the catalog or file system.
  const PoolManager& pool() const { return *pool_; }
  PoolManager* mutable_pool() { return pool_; }

  /// Attaches an observer to the pipeline (nullptr detaches). The
  /// observer must outlive the engine or be detached before it dies.
  /// OnEvict events reach the observer only for commits made by THIS
  /// engine (each commit carries its tenant's observer), so two tenants
  /// with separate observers do not see each other's events.
  void set_observer(EngineObserver* observer) { observer_ = observer; }
  EngineObserver* observer() const { return observer_; }

  /// Current pool occupancy in bytes (S(C)). Unlocked: call from the
  /// committing thread or a quiesced pool; monitors should use
  /// pool().PoolBytesSnapshot().
  double PoolBytes() const { return pool_->PoolBytes(); }

  /// The pool's commit clock (number of commits across all tenants;
  /// equals the query count for a single-tenant engine).
  int64_t now() const { return pool_->clock(); }

  /// Serializes the pool's adaptive state — every tracked view's
  /// defining plan, statistics, partitions, fragments (with hit
  /// histories), pool membership, and the tenant registry — into a
  /// text blob that LoadState restores. Enables warm-starting a fresh
  /// engine (e.g. across process restarts) without replaying the
  /// workload. The relational catalog (base tables) is NOT included;
  /// LoadState must run against a catalog with the same base tables.
  /// Takes the pool's commit lock in shared mode: do not call from a
  /// thread that holds the commit (i.e. from observer callbacks).
  Result<std::string> SaveState() const;

  /// Restores state written by SaveState into this engine's pool:
  /// views are re-tracked (signatures recomputed from their
  /// deserialized plans), statistics and fragment pools re-attached,
  /// simulated FS files recreated, and saved tenant attributions
  /// re-interned (ordinals are remapped through the registry, so
  /// loading into a pool with different tenants keeps attributions
  /// correct). Views already tracked merge by signature. The commit
  /// clock advances to the saved clock when the saved one is larger.
  /// Runs as one exclusive commit.
  Status LoadState(const std::string& state);

 private:
  /// Wires the three planning stages to the pool's catalog / index
  /// (briefly entering the commit section to obtain them).
  void InitStages();
  /// Runs stages 1-3 (rewrite, candidates, selection) against `ctx`'s
  /// PlanningDelta. Called once under the shared lock (speculative) and
  /// again under the exclusive lock when read-set validation fails; the
  /// caller holds whichever lock the run requires. Only the rewrite
  /// stage runs for plain Hive.
  Status RunPlanningStages(QueryContext* ctx, QueryReport* report,
                           SelectionDecision* decision);
  /// Executes `decision` through PoolManager::Apply with the configured
  /// fault handling: transient faults are retried (up to
  /// options_.fault.max_retries, each against the rolled-back pool);
  /// permanent faults — or exhausted retries — abandon the decision,
  /// mark the query degraded, and record the fault against the failing
  /// view for quarantine. The query is answered either way. Runs inside
  /// the commit section; `t_now` is the commit clock.
  void ExecuteDecision(const SelectionDecision& decision,
                       const QueryContext& ctx, QueryReport* report,
                       int64_t t_now);
  /// RunMergePass with the same retry/degrade treatment (no quarantine:
  /// merge faults are not attributable to a candidate view). Returns the
  /// simulated seconds to charge, including retry backoff.
  double ExecuteMergePass(const QueryContext& ctx, QueryReport* report);
  /// Physically executes the plan and materializes selected view sample
  /// tables when physical execution is enabled. Runs inside `commit`.
  Status PhysicalExecute(const CommitGuard& commit, const PlanPtr& plan,
                         QueryReport* report);

  Catalog* catalog_;
  EngineOptions options_;
  ClusterModel cluster_;
  PlanCostEstimator estimator_;
  DecayFunction decay_;
  MleFragmentModel mle_;
  Executor executor_;
  EngineObserver* observer_ = nullptr;

  // Pool state: owned for the single-tenant constructor, borrowed from
  // the SharedPool otherwise. `pool_` is the one used either way.
  std::unique_ptr<PoolManager> owned_pool_;
  PoolManager* pool_ = nullptr;

  std::string tenant_;
  int32_t tenant_ord_ = 0;

  // The stages that plan over the pool (constructed by InitStages once
  // the pool pointer is settled; they hold pointers into the pool).
  std::unique_ptr<RewritePlanner> rewrite_planner_;
  std::unique_ptr<CandidateGenerator> candidate_generator_;
  std::unique_ptr<SelectionPlanner> selection_planner_;
  /// The pool's STAT, captured in InitStages: ProcessQuery hands it to
  /// each query's PlanningDelta (which only reads it under the shared
  /// lock; mutation stays behind the commit protocol).
  ViewCatalog* stat_ = nullptr;
  /// This engine's lease on the pool's placeholder-id counter: new
  /// candidate views get placeholder ids during planning (no shared
  /// view-id-counter read), folded to final "v<N>" ids in commit order.
  /// Single-threaded per engine, like ProcessQuery itself.
  std::unique_ptr<ViewIdReservation> reservation_;

  EngineTotals totals_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_ENGINE_H_
