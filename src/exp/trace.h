#ifndef DEEPSEA_EXP_TRACE_H_
#define DEEPSEA_EXP_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace deepsea {

/// Per-query telemetry collector: whoever calls ProcessQuery records each
/// report as a workload runs, then exports the trace as CSV for offline
/// analysis/plotting. The CSV mirrors the measurements the paper's
/// figures are built from (per-query elapsed time, cumulative time,
/// materialization overhead, pool occupancy, fragments read).
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

}  // namespace deepsea

#endif  // DEEPSEA_EXP_TRACE_H_
