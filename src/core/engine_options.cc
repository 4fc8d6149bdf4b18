#include "core/engine_options.h"

#include <cassert>

namespace deepsea {

namespace {

/// Index of a non-empty QueryReport::exclusive_reason in
/// kExclusiveReasonNames (the engine only ever picks from that table).
size_t ExclusiveReasonIndex(const std::string& reason) {
  for (size_t r = 0; r < kExclusiveReasonCount; ++r) {
    if (reason == kExclusiveReasonNames[r]) return r;
  }
  assert(false && "exclusive reason outside kExclusiveReasonNames");
  return static_cast<size_t>(ExclusiveReason::kOther);
}

}  // namespace

void EngineTotals::Add(const QueryReport& report) {
  total_seconds += report.total_seconds;
  base_seconds += report.base_seconds;
  materialize_seconds += report.materialize_seconds;
  map_tasks += report.map_tasks;
  queries += 1;
  views_created += static_cast<int64_t>(report.created_views.size());
  fragments_created += report.created_fragments;
  fragments_evicted += report.evicted_fragments;
  fragments_merged += report.merged_fragments;
  fragments_read += report.fragments_read;
  if (!report.used_view.empty()) queries_answered_from_views += 1;
  materialized_bytes += report.materialized_bytes;
  evicted_bytes += report.evicted_bytes;
  faults += report.fault_count;
  retries += report.retry_count;
  degrades += report.degrade_count;
  if (report.degraded) queries_degraded += 1;
  if (report.replanned) replans += 1;
  if (report.replan_conflict) replans_conflict += 1;
  if (report.replan_spurious) replans_spurious += 1;
  if (report.exclusive_reason.empty()) {
    commits_sharded += 1;
  } else {
    commits_exclusive += 1;
    const size_t reason = ExclusiveReasonIndex(report.exclusive_reason);
    commits_exclusive_by_reason[reason] += 1;
  }
  if (report.selection_ran) {
    selection_decisions += 1;
    selection_benefit += report.selection_benefit;
  }
}

EngineTotals& EngineTotals::operator+=(const EngineTotals& other) {
  total_seconds += other.total_seconds;
  base_seconds += other.base_seconds;
  materialize_seconds += other.materialize_seconds;
  map_tasks += other.map_tasks;
  queries += other.queries;
  views_created += other.views_created;
  fragments_created += other.fragments_created;
  fragments_evicted += other.fragments_evicted;
  fragments_merged += other.fragments_merged;
  fragments_read += other.fragments_read;
  queries_answered_from_views += other.queries_answered_from_views;
  materialized_bytes += other.materialized_bytes;
  evicted_bytes += other.evicted_bytes;
  faults += other.faults;
  retries += other.retries;
  degrades += other.degrades;
  queries_degraded += other.queries_degraded;
  replans += other.replans;
  replans_conflict += other.replans_conflict;
  replans_spurious += other.replans_spurious;
  commits_sharded += other.commits_sharded;
  commits_exclusive += other.commits_exclusive;
  for (size_t r = 0; r < kExclusiveReasonCount; ++r) {
    commits_exclusive_by_reason[r] += other.commits_exclusive_by_reason[r];
  }
  selection_decisions += other.selection_decisions;
  selection_benefit += other.selection_benefit;
  return *this;
}

}  // namespace deepsea
