#include "core/rewrite_planner.h"

#include <algorithm>
#include <cassert>

#include "plan/pushdown.h"

namespace deepsea {

Status RewritePlanner::PlanBase(QueryContext* ctx, QueryReport* report) {
  ctx->base_plan = PushDownSelections(ctx->query, *catalog_);
  DEEPSEA_ASSIGN_OR_RETURN(PlanCost base, estimator_->Estimate(ctx->base_plan));
  report->base_seconds = base.seconds;
  report->best_seconds = base.seconds;
  report->map_tasks = base.map_tasks;
  ctx->executed_plan = ctx->base_plan;
  return Status::OK();
}

Status RewritePlanner::PlanBest(QueryContext* ctx, QueryReport* report) {
  // 1. Rewritings over all tracked views (Alg. 1 line 1). The delta
  //    records every filter-tree probe so foreign view creations that
  //    could have changed the rewriting choice invalidate this plan.
  DEEPSEA_ASSIGN_OR_RETURN(
      std::vector<Rewriting> rewritings,
      matcher_->ComputeRewritings(ctx->query, ctx->signatures(), ctx->delta()));
  // 2. Statistics update (line 2), buffered in the planning delta.
  UpdateStatsFromRewritings(rewritings, report->base_seconds, ctx->t_now(),
                            ctx->delta());
  // 3. Q_best: cheapest executable rewriting, if it beats the base
  //    plan (line 3).
  ctx->ClearCover();
  for (const Rewriting& rw : rewritings) {
    if (!rw.executable) continue;
    if (rw.est_seconds < report->best_seconds) {
      report->best_seconds = rw.est_seconds;
      report->used_view = rw.view->id;
      report->fragments_read = static_cast<int>(rw.fragments.size());
      ctx->executed_plan = rw.BuildPlan(ctx->query);
      ctx->SetCover(rw.view->id,
                    rw.partition != nullptr ? rw.partition->attr : "",
                    rw.fragments);
      report->map_tasks = rw.map_tasks;
    }
    break;  // rewritings are sorted by estimated cost
  }
  return Status::OK();
}

void RewritePlanner::UpdateStatsFromRewritings(
    const std::vector<Rewriting>& rewritings, double base_seconds,
    double t_now, PlanningDelta* delta) {
  assert(delta != nullptr);
  // A query has a handful of rewritings: linear scans dedup them.
  std::vector<const ViewInfo*> seen_views;
  std::vector<const PartitionState*> seen_partitions;
  for (const Rewriting& rw : rewritings) {
    ViewInfo* view = rw.view;
    // View benefit: once per view per query, using its best rewriting
    // (the list is sorted by cost, so the first occurrence is best).
    if (std::find(seen_views.begin(), seen_views.end(), view) ==
        seen_views.end()) {
      seen_views.push_back(view);
      const double saving = base_seconds - rw.est_seconds;
      if (saving > 0.0) delta->RecordUse(view, t_now, saving);
    }
    // Fragment hits: every tracked fragment overlapping the query range
    // "was or could have been used" (Section 7.1). Hits land on the
    // delta's shadow partition; the shadow fragment mirrors the shared
    // fragment list, so the overlap scan sees the same intervals.
    if (rw.partition != nullptr &&
        std::find(seen_partitions.begin(), seen_partitions.end(),
                  rw.partition) == seen_partitions.end()) {
      seen_partitions.push_back(rw.partition);
      PartitionState* part = delta->Partition(view, rw.partition->attr);
      if (part != nullptr) {
        for (FragmentStats& f : part->mutable_fragments()) {
          if (f.interval.Overlaps(rw.query_range)) {
            f.RecordHit(t_now, rw.query_range);
          }
        }
      }
    }
  }
}

}  // namespace deepsea
