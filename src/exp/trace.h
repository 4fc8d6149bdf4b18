#ifndef DEEPSEA_EXP_TRACE_H_
#define DEEPSEA_EXP_TRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/engine_observer.h"

namespace deepsea {

/// Per-query telemetry collector: append QueryReports as a workload
/// runs, then export the trace as CSV for offline analysis/plotting.
/// The CSV mirrors the measurements the paper's figures are built from
/// (per-query elapsed time, cumulative time, materialization overhead,
/// pool occupancy, fragments read).
class QueryTrace {
 public:
  /// Records one processed query. `label` tags the series (strategy
  /// name); reports from several engines can share one trace.
  void Record(const std::string& label, const QueryReport& report);

  size_t size() const { return rows_.size(); }

  /// CSV with header:
  /// label,query,base_s,best_s,materialize_s,total_s,cumulative_s,
  /// used_view,fragments_read,created_views,created_fragments,
  /// evicted_fragments,pool_gb
  std::string ToCsv() const;

  /// Writes ToCsv() to `path`; fails on IO errors.
  Status WriteCsv(const std::string& path) const;

  /// Cumulative total seconds of one label's series.
  double CumulativeSeconds(const std::string& label) const;

 private:
  struct TraceRow {
    std::string label;
    int64_t query_index;
    double base_seconds;
    double best_seconds;
    double materialize_seconds;
    double total_seconds;
    double cumulative_seconds;
    std::string used_view;
    int fragments_read;
    int created_views;
    int created_fragments;
    int evicted_fragments;
    double pool_bytes;
  };
  std::vector<TraceRow> rows_;
};

/// EngineObserver that feeds a QueryTrace: attach it to an engine via
/// `engine.set_observer(&obs)` and every processed query lands in the
/// trace automatically — no per-query Record calls in the driver. On
/// top of the per-query CSV rows it aggregates per-stage simulated and
/// wall-clock time, folds every QueryReport into per-tenant
/// EngineTotals (EngineTotals::Add, the engine's own fold), and logs
/// fault-handling events. One TraceObserver may serve several engines
/// sharing a pool only if their queries are externally serialized (e.g.
/// the turnstile in tests/multitenant_harness.h): planning-stage hooks
/// fire under the pool's *shared* lock and may run concurrently across
/// engines, and the aggregates carry no locking of their own. With
/// free-running engines, give each its own TraceObserver.
class TraceObserver : public EngineObserver {
 public:
  /// `trace` may be null: the observer then only aggregates (useful for
  /// profiling without telemetry rows).
  TraceObserver(std::string label, QueryTrace* trace)
      : label_(std::move(label)), trace_(trace) {}

  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override;
  void OnFault(EngineStage stage, const std::string& view_id,
               const Status& status, int attempt,
               const std::string& tenant) override;
  void OnRetry(EngineStage stage, int next_attempt,
               const std::string& tenant) override;
  void OnDegrade(EngineStage stage, const std::string& view_id,
                 const Status& status, const std::string& tenant) override;
  void OnQueryEnd(const QueryReport& report) override;

  /// Cumulative timing of one pipeline stage across all queries seen.
  struct StageStats {
    int64_t calls = 0;
    double sim_seconds = 0.0;
    double wall_seconds = 0.0;
  };
  const StageStats& stage(EngineStage s) const {
    return stages_[static_cast<size_t>(s)];
  }

  /// Fold of the QueryReports seen, per tenant (keyed by tenant id; ""
  /// is the single-tenant default) ...
  const std::map<std::string, EngineTotals>& tenants() const {
    return tenants_;
  }
  /// ... and summed over tenants.
  EngineTotals totals() const;

  /// CSV of the stage aggregates:
  /// label,stage,calls,sim_s,wall_s
  std::string StageSummaryCsv() const;

  /// CSV of every fault-handling event in occurrence order:
  /// label,event,stage,view,code,attempt,tenant
  /// where event is fault|retry|degrade; view and code are empty for
  /// retry rows. Fault-free runs return just the header.
  std::string FaultEventsCsv() const;

 private:
  static constexpr size_t kStageCount =
      static_cast<size_t>(EngineStage::kPhysical) + 1;

  std::string label_;
  QueryTrace* trace_;
  std::array<StageStats, kStageCount> stages_{};
  std::map<std::string, EngineTotals> tenants_;
  struct FaultEvent {
    std::string event;  ///< "fault" | "retry" | "degrade"
    EngineStage stage;
    std::string view;
    std::string code;   ///< StatusCodeName of the injected status
    int attempt = 0;
    std::string tenant;
  };
  std::vector<FaultEvent> fault_events_;
};

}  // namespace deepsea

#endif  // DEEPSEA_EXP_TRACE_H_
