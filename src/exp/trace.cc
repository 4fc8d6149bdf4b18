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

}  // namespace deepsea
