#ifndef DEEPSEA_CORE_ENGINE_OBSERVER_H_
#define DEEPSEA_CORE_ENGINE_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

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

/// Observation seam of the query pipeline: four hooks, all fired by
/// DeepSeaEngine at query and stage boundaries (OnQueryStart,
/// OnStageStart, OnStageEnd, OnQueryEnd). The pool calls no observer.
/// Implementations must not mutate engine state; all arguments are only
/// valid for the duration of the call.
///
/// Counters come from OnQueryEnd's report: the QueryReport is the only
/// record of what a query did (pieces and bytes materialized and
/// evicted, merges, faults, retries, degrades and the last fault's view
/// and status, commit path), and EngineTotals::Add is the one fold that
/// turns it into counters. The stage hooks carry what a report does
/// not: stage timings. A query whose ProcessQuery returns an error
/// has no report: OnQueryEnd does not fire and nothing is folded. The
/// one such error raised after the commit has changed the pool is a
/// failed physical execution (EngineOptions::physical_execution): the
/// pieces Apply and the merge pass committed stay in or out of the
/// pool, but no counter sees them.
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
///    mode. The kApply/kMerge/kPhysical stage hooks and OnQueryEnd
///    fire inside that query's commit — which may be a sharded commit,
///    running concurrently with other tenants' commits on disjoint
///    shards. No hook is serialized across engines.
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
/// only what they consume. See exp/metrics.h for MetricsObserver, which
/// folds the reports and histograms the stage timings.
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

  virtual void OnQueryEnd(const QueryReport& report) { (void)report; }
};

/// Fan-out observer: forwards every hook to each attached sink in
/// attachment order, so independent sinks (say a MetricsObserver for the
/// live scrape and a span recorder for a profile) can watch one engine
/// through its single observer slot. The multicast adds no
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
  void OnQueryEnd(const QueryReport& report) override;

 private:
  std::vector<EngineObserver*> sinks_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_ENGINE_OBSERVER_H_
