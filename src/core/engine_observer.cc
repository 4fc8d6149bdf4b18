#include "core/engine_observer.h"

namespace deepsea {

const char* EngineStageName(EngineStage stage) {
  switch (stage) {
    case EngineStage::kRewrite:
      return "rewrite";
    case EngineStage::kCandidates:
      return "candidates";
    case EngineStage::kSelection:
      return "selection";
    case EngineStage::kApply:
      return "apply";
    case EngineStage::kMerge:
      return "merge";
    case EngineStage::kPhysical:
      return "physical";
  }
  return "unknown";
}

void MulticastObserver::OnQueryStart(int64_t query_index, const PlanPtr& query,
                                     const std::string& tenant) {
  for (EngineObserver* s : sinks_) s->OnQueryStart(query_index, query, tenant);
}

void MulticastObserver::OnStageStart(EngineStage stage,
                                     const QueryContext& ctx) {
  for (EngineObserver* s : sinks_) s->OnStageStart(stage, ctx);
}

void MulticastObserver::OnStageEnd(EngineStage stage, const QueryContext& ctx,
                                   double sim_seconds, double wall_seconds) {
  for (EngineObserver* s : sinks_) {
    s->OnStageEnd(stage, ctx, sim_seconds, wall_seconds);
  }
}

void MulticastObserver::OnEvict(const ViewInfo& view, const std::string& attr,
                                const Interval& interval, double bytes,
                                const std::string& tenant) {
  for (EngineObserver* s : sinks_) {
    s->OnEvict(view, attr, interval, bytes, tenant);
  }
}

void MulticastObserver::OnFault(EngineStage stage, const std::string& view_id,
                                const Status& status, int attempt,
                                const std::string& tenant) {
  for (EngineObserver* s : sinks_) {
    s->OnFault(stage, view_id, status, attempt, tenant);
  }
}

void MulticastObserver::OnRetry(EngineStage stage, int next_attempt,
                                const std::string& tenant) {
  for (EngineObserver* s : sinks_) s->OnRetry(stage, next_attempt, tenant);
}

void MulticastObserver::OnDegrade(EngineStage stage, const std::string& view_id,
                                  const Status& status,
                                  const std::string& tenant) {
  for (EngineObserver* s : sinks_) s->OnDegrade(stage, view_id, status, tenant);
}

void MulticastObserver::OnQueryEnd(const QueryReport& report) {
  for (EngineObserver* s : sinks_) s->OnQueryEnd(report);
}

}  // namespace deepsea
