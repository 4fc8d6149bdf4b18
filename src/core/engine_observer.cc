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

void MulticastObserver::OnQueryEnd(const QueryReport& report) {
  for (EngineObserver* s : sinks_) s->OnQueryEnd(report);
}

}  // namespace deepsea
