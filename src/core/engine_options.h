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
#include "core/mle_model.h"
#include "core/policy.h"
#include "exec/executor.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"

namespace deepsea {

/// Retry and degradation policy for storage faults (see DESIGN.md,
/// "Failure model and recovery"). Materialization is a best-effort
/// optimization: when a decision cannot be applied, the engine answers
/// the query from whatever is already materialized — a fault must never
/// take query answering down with it.
struct FaultHandlingConfig {
  /// Additional attempts for a decision that failed with a transient
  /// fault (StatusCode::kUnavailable). Each attempt re-executes the
  /// whole decision against the rolled-back pool. 0 disables retry.
  int max_retries = 2;
  /// Simulated seconds charged per retry (models backoff + job
  /// re-queue). 0 keeps retried queries' charged time unchanged.
  double retry_backoff_seconds = 0.0;
  /// Permanent decision failures attributed to one view before the view
  /// is quarantined (SelectionPlanner stops proposing it). <= 0
  /// disables quarantine.
  int quarantine_threshold = 3;
  /// Commits after which a quarantined view becomes proposable again.
  int64_t quarantine_cooldown_commits = 50;
};

/// All knobs of a DeepSea engine instance. Defaults are the paper's
/// DeepSea configuration; baselines are expressed by changing strategy
/// and/or value_model (see core/policy.h).
struct EngineOptions {
  StrategyKind strategy = StrategyKind::kDeepSea;
  ValueModel value_model = ValueModel::kDeepSea;

  /// S_max: pool size limit in bytes (infinite by default).
  double pool_limit_bytes = std::numeric_limits<double>::infinity();

  DecayConfig decay;
  MleConfig mle;
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

  EstimatorConfig estimator;
  ClusterConfig cluster;

  /// View admission threshold: materialize a view candidate when its
  /// accumulated benefit >= threshold * creation cost. The paper's
  /// filter uses 1.0; the default here is lower because our per-query
  /// saving estimates are conservative (they ignore reuse by other
  /// templates sharing the view). Set to ~0 to reproduce the paper's
  /// controlled sequences where the first query materializes.
  double benefit_cost_threshold = 0.5;

  /// Fragment refinement threshold: create a refinement fragment when
  /// hits * marginal read saving >= threshold * creation cost (the
  /// paper's P_sel filter uses 1.0). Kept separate from view admission
  /// so that benches forcing eager view creation do not also disable
  /// the repartitioning cost-benefit test.
  double fragment_benefit_threshold = 1.0;

  /// Histogram resolution for view partition-attribute histograms.
  int view_histogram_bins = 256;

  /// Materialized views are stored columnar-compressed (ORC-style), so
  /// their on-disk footprint is a fraction of the raw intermediate
  /// result's width. Applied to view sizes, fragment sizes, and the
  /// read/write costs that depend on them.
  double view_storage_compression = 0.6;

  /// Fragment-merging extension (paper Section 11 future work): merge
  /// adjacent fragments that are mostly accessed together. Off by
  /// default; see core/merge.h.
  MergeConfig merge;

  /// Storage-fault retry / degradation / quarantine policy.
  FaultHandlingConfig fault;

  /// Fragment boundaries are snapped outward to a grid of this fraction
  /// of the attribute domain before candidate generation, so queries
  /// whose ranges jitter around the same hot region converge on one
  /// refinement fragment instead of spawning a near-duplicate per
  /// query. 0 disables snapping (exact Definition 7 endpoints).
  double candidate_snap_fraction = 0.005;
};

/// Why a commit took the exclusive (X) path, in the engine's order of
/// precedence: merge (merge pass enabled), eviction (decision evicts
/// inline), physical (physical execution mutates the relational
/// catalog), new_view / catalog_put / index_insert / attach (a replanned
/// commit carrying that structural content), replan (replanned, no
/// structural content), other. kExclusiveReasonNames spells each one
/// as QueryReport::exclusive_reason and the metrics labels carry it.
enum class ExclusiveReason {
  kMerge,
  kEviction,
  kPhysical,
  kNewView,
  kCatalogPut,
  kIndexInsert,
  kAttach,
  kReplan,
  kOther,
};
inline constexpr size_t kExclusiveReasonCount =
    static_cast<size_t>(ExclusiveReason::kOther) + 1;
inline constexpr const char* kExclusiveReasonNames[kExclusiveReasonCount] = {
    "merge",        "eviction", "physical", "new_view", "catalog_put",
    "index_insert", "attach",   "replan",   "other"};

/// Per-query outcome of ProcessQuery: the only record of what a query
/// did. Every counter in EngineTotals, MetricsObserver and
/// TraceObserver is folded from these reports (EngineTotals::Add).
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
  /// sharded): one of kExclusiveReasonNames. Since structural planning
  /// writes commit sharded by default, the structural reasons identify
  /// replan-forced exclusive commits that also create views — they
  /// should stay near zero on a healthy workload.
  std::string exclusive_reason;

  std::string used_view;             ///< view answering the query ("" = none)
  int fragments_read = 0;
  int64_t map_tasks = 0;             ///< map tasks of the executed plan
  std::vector<std::string> created_views;
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
/// Add is the only code that turns a report into counters; the engine,
/// MetricsObserver (per tenant) and TraceObserver (per tenant) all apply
/// it, so their totals over the same reports compare equal.
struct EngineTotals {
  double total_seconds = 0.0;
  double base_seconds = 0.0;
  double materialize_seconds = 0.0;
  int64_t map_tasks = 0;
  int64_t queries = 0;
  int64_t views_created = 0;
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
