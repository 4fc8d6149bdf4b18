#include "exp/trace.h"

#include <cstdio>

#include "common/str_util.h"

namespace deepsea {

void QueryTrace::Record(const std::string& label, const QueryReport& report) {
  double cumulative = report.total_seconds;
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->label == label) {
      cumulative += it->cumulative_seconds;
      break;
    }
  }
  TraceRow row;
  row.label = label;
  row.query_index = report.query_index;
  row.base_seconds = report.base_seconds;
  row.best_seconds = report.best_seconds;
  row.materialize_seconds = report.materialize_seconds;
  row.total_seconds = report.total_seconds;
  row.cumulative_seconds = cumulative;
  row.used_view = report.used_view;
  row.fragments_read = report.fragments_read;
  row.created_views = static_cast<int>(report.created_views.size());
  row.created_fragments = report.created_fragments;
  row.evicted_fragments = report.evicted_fragments;
  row.pool_bytes = report.pool_bytes_after;
  rows_.push_back(std::move(row));
}

std::string QueryTrace::ToCsv() const {
  std::string out =
      "label,query,base_s,best_s,materialize_s,total_s,cumulative_s,"
      "used_view,fragments_read,created_views,created_fragments,"
      "evicted_fragments,pool_gb\n";
  for (const TraceRow& r : rows_) {
    out += StrFormat("%s,%lld,%.3f,%.3f,%.3f,%.3f,%.3f,%s,%d,%d,%d,%d,%.3f\n",
                     r.label.c_str(), static_cast<long long>(r.query_index),
                     r.base_seconds, r.best_seconds, r.materialize_seconds,
                     r.total_seconds, r.cumulative_seconds,
                     r.used_view.c_str(), r.fragments_read, r.created_views,
                     r.created_fragments, r.evicted_fragments,
                     r.pool_bytes / 1e9);
  }
  return out;
}

Status QueryTrace::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const std::string csv = ToCsv();
  const size_t written = std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
  if (written != csv.size()) return Status::Internal("short write to " + path);
  return Status::OK();
}

double QueryTrace::CumulativeSeconds(const std::string& label) const {
  for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
    if (it->label == label) return it->cumulative_seconds;
  }
  return 0.0;
}

void TraceObserver::OnStageEnd(EngineStage stage, const QueryContext& ctx,
                               double sim_seconds, double wall_seconds) {
  (void)ctx;
  StageStats& s = stages_[static_cast<size_t>(stage)];
  ++s.calls;
  s.sim_seconds += sim_seconds;
  s.wall_seconds += wall_seconds;
}

void TraceObserver::OnFault(EngineStage stage, const std::string& view_id,
                            const Status& status, int attempt,
                            const std::string& tenant) {
  fault_events_.push_back({"fault", stage, view_id,
                           StatusCodeName(status.code()), attempt, tenant});
}

void TraceObserver::OnRetry(EngineStage stage, int next_attempt,
                            const std::string& tenant) {
  fault_events_.push_back({"retry", stage, "", "", next_attempt, tenant});
}

void TraceObserver::OnDegrade(EngineStage stage, const std::string& view_id,
                              const Status& status,
                              const std::string& tenant) {
  fault_events_.push_back(
      {"degrade", stage, view_id, StatusCodeName(status.code()), 0, tenant});
}

void TraceObserver::OnQueryEnd(const QueryReport& report) {
  tenants_[report.tenant_id].Add(report);
  if (trace_ != nullptr) trace_->Record(label_, report);
}

EngineTotals TraceObserver::totals() const {
  EngineTotals sum;
  for (const auto& [tenant, t] : tenants_) {
    (void)tenant;
    sum += t;
  }
  return sum;
}

std::string TraceObserver::FaultEventsCsv() const {
  std::string out = "label,event,stage,view,code,attempt,tenant\n";
  for (const FaultEvent& e : fault_events_) {
    out += StrFormat("%s,%s,%s,%s,%s,%d,%s\n", label_.c_str(),
                     e.event.c_str(), EngineStageName(e.stage),
                     e.view.c_str(), e.code.c_str(), e.attempt,
                     e.tenant.c_str());
  }
  return out;
}

std::string TraceObserver::StageSummaryCsv() const {
  std::string out = "label,stage,calls,sim_s,wall_s\n";
  for (size_t i = 0; i < kStageCount; ++i) {
    const StageStats& s = stages_[i];
    if (s.calls == 0) continue;
    out += StrFormat("%s,%s,%lld,%.3f,%.6f\n", label_.c_str(),
                     EngineStageName(static_cast<EngineStage>(i)),
                     static_cast<long long>(s.calls), s.sim_seconds,
                     s.wall_seconds);
  }
  return out;
}

}  // namespace deepsea
