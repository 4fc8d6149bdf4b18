#include "span_recorder.h"

#include <chrono>

#include "core/query_context.h"

namespace deepsea {
namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kContextEnter:
      return "context.enter";
    case SpanKind::kRewrite:
      return "rewrite";
    case SpanKind::kCandidates:
      return "candidates";
    case SpanKind::kSelection:
      return "selection";
    case SpanKind::kCommitWait:
      return "commit.wait";
    case SpanKind::kApply:
      return "apply";
    case SpanKind::kContextRelease:
      return "context.release";
  }
  return "unknown";
}

namespace {

/// The span a pipeline stage records; merge and physical execution are
/// off in every benchmark workload and fall inside context.release.
bool StageSpan(EngineStage stage, SpanKind* kind) {
  switch (stage) {
    case EngineStage::kRewrite:
      *kind = SpanKind::kRewrite;
      return true;
    case EngineStage::kCandidates:
      *kind = SpanKind::kCandidates;
      return true;
    case EngineStage::kSelection:
      *kind = SpanKind::kSelection;
      return true;
    case EngineStage::kApply:
      *kind = SpanKind::kApply;
      return true;
    case EngineStage::kMerge:
    case EngineStage::kPhysical:
      return false;
  }
  return false;
}

}  // namespace

/// Spans per query: the root, context.enter/release, three planning
/// stages, commit.wait and apply (a replan adds four more).
constexpr size_t kSpansPerQuery = 8;

SpanRecorder::SpanRecorder(int64_t id_base, size_t queries)
    : next_id_(id_base) {
  spans_.reserve(queries * kSpansPerQuery);
}

int64_t SpanRecorder::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::Emit(SpanKind kind, int64_t start_ns, int64_t end_ns) {
  spans_.push_back(Span{query_id_, kind, start_ns, end_ns});
}

void SpanRecorder::BeginQuery() {
  query_id_ = next_id_++;
  commit_pending_ns_ = 0;
  apply_end_ns_ = 0;
  call_ns_ = NowNs();
}

void SpanRecorder::EndQuery() {
  const int64_t now = NowNs();
  if (apply_end_ns_ != 0) {
    Emit(SpanKind::kContextRelease, apply_end_ns_, now);
  } else if (commit_pending_ns_ != 0) {
    Emit(SpanKind::kCommitWait, commit_pending_ns_, now);
  }
  Emit(SpanKind::kQuery, call_ns_, now);
}

void SpanRecorder::OnQueryStart(int64_t query_index, const PlanPtr& query,
                                const std::string& tenant) {
  (void)query_index;
  (void)query;
  (void)tenant;
  Emit(SpanKind::kContextEnter, call_ns_, NowNs());
}

void SpanRecorder::OnStageStart(EngineStage stage, const QueryContext& ctx) {
  (void)ctx;
  SpanKind kind;
  if (!StageSpan(stage, &kind)) return;
  const int64_t now = NowNs();
  if (commit_pending_ns_ != 0) {
    Emit(SpanKind::kCommitWait, commit_pending_ns_, now);
    commit_pending_ns_ = 0;
  }
  stage_start_ns_ = now;
}

void SpanRecorder::OnStageEnd(EngineStage stage, const QueryContext& ctx,
                              double sim_seconds, double wall_seconds) {
  (void)sim_seconds;
  (void)wall_seconds;
  SpanKind kind;
  if (!StageSpan(stage, &kind)) return;
  const int64_t now = NowNs();
  Emit(kind, stage_start_ns_, now);
  if (kind == SpanKind::kCandidates) {
    view_candidates_ += static_cast<int64_t>(ctx.view_candidates.size());
    fragment_candidates_ +=
        static_cast<int64_t>(ctx.fragment_candidates.size());
  } else if (kind == SpanKind::kSelection) {
    commit_pending_ns_ = now;
  } else if (kind == SpanKind::kApply) {
    apply_end_ns_ = now;
  }
}

}  // namespace perfbench
}  // namespace deepsea
