#ifndef DEEPSEA_CORE_ENGINE_OBSERVER_H_
#define DEEPSEA_CORE_ENGINE_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/interval.h"
#include "core/view_catalog.h"
#include "plan/plan.h"

namespace deepsea {

class QueryContext;
struct QueryReport;

/// The pipeline stages of DeepSeaEngine::ProcessQuery (Algorithm 1).
enum class EngineStage {
  kRewrite,     ///< rewriting enumeration + Q_best choice (lines 1-3)
  kCandidates,  ///< view/partition candidate generation (lines 4-5)
  kSelection,   ///< filtering + greedy knapsack planning (Sections 7.2-7.3)
  kApply,       ///< decision application: materialize/evict (lines 6-8)
  kMerge,       ///< fragment-merge maintenance pass (Section 11 extension)
  kPhysical,    ///< physical sample execution (correctness path)
};

const char* EngineStageName(EngineStage stage);

/// Observation seam of the query pipeline: eight hooks. The engine
/// invokes them at query and stage boundaries (OnQueryStart,
/// OnStageStart, OnStageEnd, OnQueryEnd) and on fault handling
/// (OnFault, OnRetry, OnDegrade); its PoolManager invokes OnEvict for
/// every piece that leaves the pool. Implementations must not mutate
/// engine state; all arguments are only valid for the duration of the
/// call.
///
/// Counters come from OnQueryEnd's report: the QueryReport is the only
/// record of what a query did (pieces and bytes materialized and
/// evicted, merges, faults, retries, degrades, commit path), and
/// EngineTotals::Add is the one fold that turns it into counters. The
/// other hooks carry what a report does not: stage timings, the
/// evicted paths, and the fault-event sequence. A query whose
/// ProcessQuery returns an error has no report: OnQueryEnd does not
/// fire and nothing is folded. The one such error raised after the
/// commit has changed the pool is a failed physical execution
/// (EngineOptions::physical_execution): the pieces Apply and the merge
/// pass committed stay in or out of the pool and their OnEvict calls
/// have fired, but no counter sees them.
///
/// Tenancy: every hook identifies the tenant whose query triggered it —
/// either explicitly (`tenant` parameter, "" for a single-tenant
/// engine) or via the QueryContext / QueryReport argument.
///
/// Threading and locking:
///  * Every hook fires on the thread that runs ProcessQuery, during
///    that call.
///  * OnQueryStart and the planning stage hooks (kRewrite/kCandidates/
///    kSelection) fire while planning holds the pool lock in shared
///    mode. OnEvict, the fault hooks (OnFault/OnRetry/OnDegrade), the
///    kApply/kMerge/kPhysical stage hooks and OnQueryEnd fire inside
///    that query's commit — which may be a sharded commit, running
///    concurrently with other tenants' commits on disjoint shards. No
///    hook is serialized across engines.
///  * So an observer shared across engines must make every hook
///    thread-safe, as MetricsObserver does (one mutex per tenant slot).
///    One observer per engine, or an external turnstile as in
///    tests/multitenant_harness.h, needs nothing.
///  * When read-set validation fails and the engine replans under the
///    exclusive lock, the planning stage hooks fire a second time for
///    the same query (OnQueryStart does not repeat); per-stage
///    aggregates then count the replanned stages twice, mirroring the
///    work actually done.
///
/// Timing semantics of OnStageEnd:
///  * `sim_seconds` is the simulated time the stage charged to the
///    current query (0 for stages that charge nothing);
///  * `wall_seconds` is host wall-clock time spent inside the stage
///    (measured only while an observer is attached, so benches without
///    observers pay no timing overhead).
///
/// The default implementations are all no-ops, so subclasses override
/// only what they consume. See exp/trace.h for TraceObserver, which
/// feeds the CSV telemetry used by the experiment harnesses.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void OnQueryStart(int64_t query_index, const PlanPtr& query,
                            const std::string& tenant) {
    (void)query_index;
    (void)query;
    (void)tenant;
  }
  virtual void OnStageStart(EngineStage stage, const QueryContext& ctx) {
    (void)stage;
    (void)ctx;
  }
  virtual void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                          double sim_seconds, double wall_seconds) {
    (void)stage;
    (void)ctx;
    (void)sim_seconds;
    (void)wall_seconds;
  }

  /// A fragment left the pool. `attr` is empty for whole-view eviction.
  /// Fired for policy evictions and also for parents removed by
  /// horizontal splits and merge passes — once per piece the query's
  /// report counts in evicted_fragments. Fired at the commit of the
  /// decision transaction, so a rolled-back attempt fires none. `tenant`
  /// is the committing tenant (whose reconfiguration displaced the
  /// content), not necessarily the tenant that earned the evicted
  /// fragment its hits — use FragmentStats::DecayedHitsByTenant to see
  /// who loses coverage.
  virtual void OnEvict(const ViewInfo& view, const std::string& attr,
                       const Interval& interval, double bytes,
                       const std::string& tenant) {
    (void)view;
    (void)attr;
    (void)interval;
    (void)bytes;
    (void)tenant;
  }

  // --- fault handling (see DESIGN.md, "Failure model and recovery") ---

  /// A decision-execution attempt failed and was rolled back. `stage`
  /// is kApply or kMerge; `view_id` is the view whose action failed
  /// ("" when unattributed, e.g. a merge-pass write); `attempt` counts
  /// from 0. Fired once per failed attempt, before any OnRetry /
  /// OnDegrade that follows from it.
  virtual void OnFault(EngineStage stage, const std::string& view_id,
                       const Status& status, int attempt,
                       const std::string& tenant) {
    (void)stage;
    (void)view_id;
    (void)status;
    (void)attempt;
    (void)tenant;
  }
  /// The engine is about to re-execute a decision that failed with a
  /// transient fault; `next_attempt` is the attempt number about to run.
  virtual void OnRetry(EngineStage stage, int next_attempt,
                       const std::string& tenant) {
    (void)stage;
    (void)next_attempt;
    (void)tenant;
  }
  /// The engine abandoned the decision (permanent fault, or transient
  /// retries exhausted) and degraded: the query is answered from
  /// already-materialized state, the pool keeps its pre-Apply contents.
  virtual void OnDegrade(EngineStage stage, const std::string& view_id,
                         const Status& status, const std::string& tenant) {
    (void)stage;
    (void)view_id;
    (void)status;
    (void)tenant;
  }

  virtual void OnQueryEnd(const QueryReport& report) { (void)report; }
};

/// Fan-out observer: forwards every hook to each attached sink in
/// attachment order, so independent sinks (say a TraceObserver for the
/// offline CSV and a MetricsObserver for the live scrape) can watch one
/// engine through its single observer slot. The multicast adds no
/// synchronization of its own — each hook inherits exactly the locking
/// context documented above, and each sink must individually satisfy
/// the concurrency contract for the hooks it consumes. The sink list is
/// fixed topology: Add() before the multicast is attached to an engine,
/// never while queries are in flight. Sinks must outlive the multicast
/// or the engine must be detached first.
class MulticastObserver : public EngineObserver {
 public:
  MulticastObserver() = default;
  explicit MulticastObserver(std::vector<EngineObserver*> sinks)
      : sinks_(std::move(sinks)) {}

  void Add(EngineObserver* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  size_t size() const { return sinks_.size(); }

  void OnQueryStart(int64_t query_index, const PlanPtr& query,
                    const std::string& tenant) override;
  void OnStageStart(EngineStage stage, const QueryContext& ctx) override;
  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override;
  void OnEvict(const ViewInfo& view, const std::string& attr,
               const Interval& interval, double bytes,
               const std::string& tenant) override;
  void OnFault(EngineStage stage, const std::string& view_id,
               const Status& status, int attempt,
               const std::string& tenant) override;
  void OnRetry(EngineStage stage, int next_attempt,
               const std::string& tenant) override;
  void OnDegrade(EngineStage stage, const std::string& view_id,
                 const Status& status, const std::string& tenant) override;
  void OnQueryEnd(const QueryReport& report) override;

 private:
  std::vector<EngineObserver*> sinks_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_ENGINE_OBSERVER_H_
