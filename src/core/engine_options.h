#ifndef DEEPSEA_CORE_ENGINE_OPTIONS_H_
#define DEEPSEA_CORE_ENGINE_OPTIONS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/decay.h"
#include "core/merge.h"
#include "core/policy.h"
#include "exec/executor.h"
#include "sim/cluster.h"

namespace deepsea {

/// All knobs of a DeepSea engine instance. Defaults are the paper's
/// DeepSea configuration; baselines are expressed by changing strategy
/// and/or value_model (see core/policy.h). Each value is settable for a
/// reason DESIGN.md §12 records; fixed parameters are constants beside
/// their use.
struct EngineOptions {
  StrategyKind strategy = StrategyKind::kDeepSea;
  ValueModel value_model = ValueModel::kDeepSea;

  /// S_max: pool size limit in bytes (infinite by default).
  double pool_limit_bytes = std::numeric_limits<double>::infinity();

  DecayConfig decay;
  /// DeepSea's fragment-correlation smoothing (Section 7.1); the Nectar
  /// value models never use it regardless of this flag.
  bool use_mle_smoothing = true;

  /// Allow overlapping fragments (Section 3 / 10.4). When false, every
  /// refinement splits the overlapped fragments (read + rewrite them).
  bool overlapping_fragments = true;

  /// Number of fragments for the EquiDepth strategy ("E-k").
  int equi_depth_fragments = 6;

  /// phi, the maximum fragment size relative to the view (Section 9,
  /// "Bounding Fragment Size"); <= 0 disables the upper bound.
  double max_fragment_fraction = 0.0;
  /// Enforce the file-system block size as fragment lower bound.
  bool enforce_block_lower_bound = true;

  /// When true, also execute queries over the physical sample data and
  /// materialize real view tables (correctness path). When false, only
  /// the cost model runs (fast; used by large experiments).
  bool physical_execution = false;

  ClusterConfig cluster;

  /// View admission threshold: materialize a view candidate when its
  /// accumulated benefit >= threshold * creation cost. The paper's
  /// filter uses 1.0; the default here is lower because our per-query
  /// saving estimates are conservative (they ignore reuse by other
  /// templates sharing the view). Set to ~0 to reproduce the paper's
  /// controlled sequences where the first query materializes.
  double benefit_cost_threshold = 0.5;

  /// Fragment-merging extension (paper Section 11 future work): merge
  /// adjacent fragments that are mostly accessed together. Off by
  /// default; see core/merge.h.
  MergeConfig merge;

  /// Fragment boundaries are snapped outward to a grid of this fraction
  /// of the attribute domain before candidate generation, so queries
  /// whose ranges jitter around the same hot region converge on one
  /// refinement fragment instead of spawning a near-duplicate per
  /// query. 0 disables snapping (exact Definition 7 endpoints).
  double candidate_snap_fraction = 0.005;
};

/// The path decision that took a commit to the exclusive (X) path, in
/// the engine's order of precedence: merge (merge pass enabled),
/// eviction (decision evicts inline), physical (physical execution
/// mutates the relational catalog), replan (the plan failed read-set
/// validation). Every X commit has one of them. kExclusiveReasonNames
/// spells each one as QueryReport::exclusive_reason and the metrics
/// labels carry it.
enum class ExclusiveReason {
  kMerge,
  kEviction,
  kPhysical,
  kReplan,
};
inline constexpr size_t kExclusiveReasonCount =
    static_cast<size_t>(ExclusiveReason::kReplan) + 1;
inline constexpr const char* kExclusiveReasonNames[kExclusiveReasonCount] = {
    "merge", "eviction", "physical", "replan"};

/// What a view creation bought (DESIGN.md §7 deviation 11): the view's
/// first creation, a re-creation of a view created before whose pool
/// content had all left, or a top-up of a view that still held pool
/// content when the decision began. kCreationKindNames spells each one
/// as the metrics' `kind` label.
enum class CreationKind { kFirst, kRecreation, kTopUp };
inline constexpr size_t kCreationKindCount =
    static_cast<size_t>(CreationKind::kTopUp) + 1;
inline constexpr const char* kCreationKindNames[kCreationKindCount] = {
    "first", "recreation", "topup"};

/// Per-query outcome of ProcessQuery: the only record of what a query
/// did. Every counter in EngineTotals and MetricsObserver is folded from
/// these reports (EngineTotals::Add).
struct QueryReport {
  /// Position of this query in the pool's total commit order (equals
  /// the engine-local query count for a single-tenant engine).
  int64_t query_index = 0;
  /// Tenant that issued the query ("" for a single-tenant engine).
  std::string tenant_id;
  /// Cost of the conventional (selection-pushed) plan with no views.
  double base_seconds = 0.0;
  /// Cost of the plan actually chosen (view-based or base).
  double best_seconds = 0.0;
  /// Overhead charged this query for view/fragment materialization and
  /// repartitioning.
  double materialize_seconds = 0.0;
  /// Total simulated time charged: best + materialize.
  double total_seconds = 0.0;

  /// True when the speculative shared-lock plan was invalidated by a
  /// concurrent commit and the query replanned under the exclusive
  /// lock (always false for a single-tenant or turnstile-serialized
  /// engine; see DESIGN.md, "Statistics hot path and locking
  /// discipline").
  bool replanned = false;
  /// Why: a foreign commit's write footprint actually intersected this
  /// plan's read footprint (genuine conflict) ...
  bool replan_conflict = false;
  /// ... or the bounded commit-epoch table could no longer cover the
  /// plan's read epoch and the engine invalidated conservatively.
  /// Exactly one of the two is set when `replanned` is.
  bool replan_spurious = false;
  /// Why this commit took the exclusive (X) path ("" = it committed
  /// sharded): one of kExclusiveReasonNames.
  std::string exclusive_reason;

  std::string used_view;             ///< view answering the query ("" = none)
  int fragments_read = 0;
  int64_t map_tasks = 0;             ///< map tasks of the executed plan
  std::vector<std::string> created_views;
  /// Parallel to created_views: what each creation bought.
  std::vector<CreationKind> created_kinds;
  /// total_seconds - base_seconds of a query that created views (0 when
  /// it created none): what the creations made it pay over its
  /// conventional plan, split evenly over created_views in each view's
  /// realized-return ledger (ViewLedger).
  double creation_premium_seconds = 0.0;
  /// View candidates that passed V_sel's benefit filter but whose repeat
  /// creation the realized-return gate withheld this query
  /// (SelectionPlanner::PlanSelection), by the kind of creation each
  /// would have been: recreation or topup (a first creation is never
  /// withheld).
  std::array<int, kCreationKindCount> creations_withheld_by_kind{};
  int created_fragments = 0;
  /// Pieces (fragments or whole views) that left the pool: policy
  /// evictions, parents split by horizontal refinement, and parents
  /// replaced by a merge.
  int evicted_fragments = 0;
  int merged_fragments = 0;          ///< merge-pass merges this query
  /// Bytes written into the pool (views, fragments, merged fragments)
  /// and bytes of the pieces that left it.
  double materialized_bytes = 0.0;
  double evicted_bytes = 0.0;
  double pool_bytes_after = 0.0;

  // --- fault handling (all zero on a fault-free query) ---

  /// Decision-execution attempts that failed and were rolled back
  /// (Apply and merge pass, transient and permanent).
  int fault_count = 0;
  /// Rolled-back attempts that were retried (transient faults only).
  int retry_count = 0;
  /// Decisions abandoned after their faults: 1 for a degraded Apply,
  /// 1 more for a degraded merge pass.
  int degrade_count = 0;
  /// True when a decision was abandoned: the query was still answered,
  /// from the best rewriting over already-materialized state (or base
  /// tables), but the planned pool reconfiguration did not happen.
  bool degraded = false;
  /// View whose action failed first in the last failed attempt ("" when
  /// fault-free or unattributed, e.g. a merge-pass write).
  std::string fault_view;
  /// Status string of the last fault ("" when fault-free).
  std::string fault_message;

  bool physically_executed = false;
  ExecResult physical;               ///< result rows (physical mode only)

  // --- selection telemetry (see core/selection_strategy.h) ---

  /// True when the selection stage ran (every strategy but Hive); the
  /// fields below stay zero otherwise.
  bool selection_ran = false;
  /// The resolved knapsack's objective value: summed Φ of every
  /// admitted item, kept pool content included.
  double selection_benefit = 0.0;
  /// Knapsack items the greedy scan ranked.
  int selection_candidates = 0;
};

/// Aggregate counters across a workload run: the fold of QueryReports.
/// Add is the only code that turns a report into counters; the engine
/// and MetricsObserver (per tenant) both apply it, so their totals over
/// the same reports compare equal.
struct EngineTotals {
  double total_seconds = 0.0;
  double base_seconds = 0.0;
  double materialize_seconds = 0.0;
  int64_t map_tasks = 0;
  int64_t queries = 0;
  int64_t views_created = 0;
  /// Views created and the creation premium charged to them, by kind
  /// (index into kCreationKindNames).
  std::array<int64_t, kCreationKindCount> views_created_by_kind{};
  std::array<double, kCreationKindCount> creation_premium_by_kind{};
  /// Repeat creations the gate withheld, by kind.
  std::array<int64_t, kCreationKindCount> creations_withheld_by_kind{};
  /// Queries answered from a view that created none, and what they saved
  /// over their conventional plans: the credit side of the ledgers.
  int64_t view_reads_credited = 0;
  double view_read_savings = 0.0;
  int64_t fragments_created = 0;
  int64_t fragments_evicted = 0;  ///< pieces that left the pool
  int64_t fragments_merged = 0;
  int64_t fragments_read = 0;     ///< fragments read by chosen rewritings
  int64_t queries_answered_from_views = 0;
  double materialized_bytes = 0.0;
  double evicted_bytes = 0.0;
  int64_t faults = 0;             ///< failed decision-execution attempts
  int64_t retries = 0;            ///< transient-fault retries
  int64_t degrades = 0;           ///< abandoned Apply / merge passes
  int64_t queries_degraded = 0;   ///< queries whose decision was abandoned
  int64_t replans = 0;            ///< queries replanned under the X lock
  int64_t replans_conflict = 0;   ///< ... due to a genuine read-set conflict
  int64_t replans_spurious = 0;   ///< ... due to epoch-table coverage loss
  int64_t commits_sharded = 0;    ///< commits on the sharded (IX) path
  int64_t commits_exclusive = 0;  ///< commits on the exclusive (X) path
  /// Exclusive commits by reason (index into kExclusiveReasonNames).
  std::array<int64_t, kExclusiveReasonCount> commits_exclusive_by_reason{};
  int64_t selection_decisions = 0;  ///< queries whose selection stage ran
  double selection_benefit = 0.0;   ///< summed knapsack objective values

  /// Folds one processed query into the counters.
  void Add(const QueryReport& report);
  EngineTotals& operator+=(const EngineTotals& other);
  bool operator==(const EngineTotals& other) const = default;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_ENGINE_OPTIONS_H_
