#include "core/engine.h"

#include <chrono>
#include <utility>

namespace deepsea {

namespace {

/// Brackets one pipeline stage with observer notifications.
///
/// Timing contract (see EngineObserver in engine_observer.h): the
/// wall_seconds reported to OnStageEnd is measured *only while an
/// observer is attached*. That contract is enforced structurally here —
/// the single `observer_ == nullptr` boolean check below is the only
/// gate, and when it trips neither the constructor nor Finish() makes
/// any std::chrono call, so unobserved runs pay zero clock overhead and
/// attaching/detaching an observer cannot perturb the simulated-time
/// fields of QueryReport (asserted by pipeline_test.cc).
class StageScope {
 public:
  StageScope(EngineObserver* observer, EngineStage stage,
             const QueryContext& ctx)
      : observer_(observer), stage_(stage), ctx_(ctx) {
    if (observer_ != nullptr) {
      observer_->OnStageStart(stage_, ctx_);
      start_ = std::chrono::steady_clock::now();
    }
  }

  /// Ends the stage, reporting the simulated seconds it charged.
  void Finish(double sim_seconds) {
    if (observer_ == nullptr) return;  // the single unobserved-path check
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    observer_->OnStageEnd(stage_, ctx_, sim_seconds, wall);
    observer_ = nullptr;
  }

 private:
  EngineObserver* observer_;
  EngineStage stage_;
  const QueryContext& ctx_;
  std::chrono::steady_clock::time_point start_;
};

/// Adds the pool writes the decision's actions will perform to `fp`.
/// Complements PlanningDelta::CollectWriteFootprint (the statistics
/// fold) with the materialize/evict mutations of Apply. `a.part` may
/// point at a shadow partition — only its attr is read, which is the
/// same string the folded real partition carries.
void MergeDecisionWrites(const SelectionDecision& decision,
                         CommitFootprint* fp) {
  for (const SelectionAction& a : decision.actions) {
    if (a.view == nullptr) continue;
    fp->AddView(a.view->id);
    switch (a.kind) {
      case SelectionAction::Kind::kEvictWholeView:
        fp->AddPartition(a.view->id, "");
        break;
      case SelectionAction::Kind::kMaterializeView:
        fp->AddPartition(a.view->id, "");
        break;
      case SelectionAction::Kind::kEvictFragment:
      case SelectionAction::Kind::kMaterializeRefinement:
      case SelectionAction::Kind::kMaterializeViewFragment:
        if (a.part != nullptr) {
          fp->AddPartition(a.view->id, a.part->attr);
          fp->AddFragment(a.view->id, a.part->attr, a.interval);
        }
        break;
    }
  }
}

/// Estimated bytes the decision's materializations add to the pool —
/// the budget-headroom claim validated at commit entry. A plan whose
/// knapsack was uncontended drops its pool-sweep soft reads, so
/// concurrent occupancy growth is invisible to read-set validation;
/// without this claim two such plans could jointly materialize past
/// pool_limit_bytes. Decisions that evict promote the sweep reads that
/// already protect them (and net occupancy down), so they claim 0.
double AdmittedDecisionBytes(const SelectionDecision& decision) {
  double bytes = 0.0;
  for (const SelectionAction& a : decision.actions) {
    switch (a.kind) {
      case SelectionAction::Kind::kEvictWholeView:
      case SelectionAction::Kind::kEvictFragment:
        return 0.0;
      case SelectionAction::Kind::kMaterializeView:
      case SelectionAction::Kind::kMaterializeViewFragment:
      case SelectionAction::Kind::kMaterializeRefinement:
        bytes += a.size_bytes;
        break;
    }
  }
  return bytes;
}

/// True when the decision evicts: evictions change the pool occupancy
/// every tenant's knapsack budgets against, so they commit exclusively.
bool DecisionEvicts(const SelectionDecision& decision) {
  for (const SelectionAction& a : decision.actions) {
    if (a.kind == SelectionAction::Kind::kEvictWholeView ||
        a.kind == SelectionAction::Kind::kEvictFragment) {
      return true;
    }
  }
  return false;
}

}  // namespace

DeepSeaEngine::DeepSeaEngine(Catalog* catalog, EngineOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      cluster_(options_.cluster),
      estimator_(&cluster_, catalog, options_.estimator),
      decay_(options_.decay),
      mle_(options_.mle),
      executor_(catalog),
      owned_pool_(std::make_unique<PoolManager>(catalog, &options_, &cluster_,
                                                &estimator_)),
      pool_(owned_pool_.get()) {
  InitStages();
}

DeepSeaEngine::DeepSeaEngine(Catalog* catalog, SharedPool* pool,
                             std::string tenant)
    : catalog_(catalog),
      options_(pool->options()),
      cluster_(options_.cluster),
      estimator_(&cluster_, catalog, options_.estimator),
      decay_(options_.decay),
      mle_(options_.mle),
      executor_(catalog),
      pool_(pool->pool()),
      tenant_(std::move(tenant)),
      tenant_ord_(pool_->InternTenant(tenant_)) {
  InitStages();
}

void DeepSeaEngine::InitStages() {
  // The planners hold pointers into the pool's catalog / index; a brief
  // commit section proves exclusive access while we take them.
  CommitGuard commit = pool_->BeginCommit();
  ViewCatalog* stat = pool_->stat(commit);
  FilterTree* index = pool_->rewrite_index(commit);
  stat_ = stat;
  rewrite_planner_ =
      std::make_unique<RewritePlanner>(catalog_, &estimator_, stat, index);
  candidate_generator_ = std::make_unique<CandidateGenerator>(
      catalog_, &options_, &cluster_, stat, index, pool_);
  selection_planner_ = std::make_unique<SelectionPlanner>(
      catalog_, &options_, &cluster_, &decay_, &mle_, stat);
  reservation_ =
      std::make_unique<ViewIdReservation>(pool_->placeholder_counter());
}

Status DeepSeaEngine::RunPlanningStages(QueryContext* ctx, QueryReport* report,
                                        SelectionDecision* decision) {
  {
    StageScope stage(observer_, EngineStage::kRewrite, *ctx);
    DEEPSEA_RETURN_IF_ERROR(rewrite_planner_->PlanBase(ctx, report));
    if (options_.strategy != StrategyKind::kHive) {
      DEEPSEA_RETURN_IF_ERROR(rewrite_planner_->PlanBest(ctx, report));
    }
    stage.Finish(report->best_seconds);
  }
  if (options_.strategy == StrategyKind::kHive) return Status::OK();

  {
    StageScope stage(observer_, EngineStage::kCandidates, *ctx);
    // View candidates come from Q_best (Alg. 1 line 4): when the
    // query is answered from a view, the rewritten plan's subplans
    // are the candidates — so views that already serve the query are
    // not repeatedly re-offered — while partition candidates always
    // come from the query's selection contexts (they drive refinement
    // of the serving view).
    const PlanPtr candidate_plan =
        report->used_view.empty() ? ctx->query : ctx->executed_plan;
    candidate_generator_->RegisterViewCandidates(candidate_plan,
                                                 report->base_seconds, ctx);
    candidate_generator_->RegisterPartitionCandidates(ctx);
    stage.Finish(0.0);
  }
  {
    StageScope stage(observer_, EngineStage::kSelection, *ctx);
    SelectionResolution res =
        selection_planner_->PlanSelection(*ctx, report->base_seconds);
    *decision = std::move(res.decision);
    report->selection_ran = true;
    report->selection_benefit = res.objective_value;
    report->selection_candidates = res.items_considered;
    stage.Finish(0.0);
  }
  return Status::OK();
}

Result<QueryReport> DeepSeaEngine::ProcessQuery(const PlanPtr& query) {
  QueryReport report;
  report.tenant_id = tenant_;
  SelectionDecision decision;
  std::unique_ptr<QueryContext> ctx;
  uint64_t read_epoch = 0;
  int64_t t_spec = 0;
  CommitFootprint write_fp;
  double admitted_bytes = 0.0;

  // Phase 1 — speculative planning under the shared lock. The stages
  // buffer every statistics/catalog write into the context's
  // PlanningDelta — recording the plan's read footprint as they go —
  // so concurrent tenants plan in parallel; the pool is read-only
  // here. The commit clock this query *will* get, assuming no other
  // commit intervenes, is clock()+1 — planning runs at that timestamp
  // so a validated plan is exactly the plan the serialized pipeline
  // would have produced.
  {
    auto shared = pool_->SharedLock();
    read_epoch = pool_->read_epoch();
    t_spec = pool_->clock() + 1;
    ctx = std::make_unique<QueryContext>(query, t_spec, tenant_, tenant_ord_);
    ctx->InitPlanning(*catalog_, stat_, reservation_.get());
    if (observer_ != nullptr) observer_->OnQueryStart(t_spec, query, tenant_);
    DEEPSEA_RETURN_IF_ERROR(RunPlanningStages(ctx.get(), &report, &decision));
    // Collect the plan's write footprint before the shared lock drops:
    // outside it a foreign commit can mutate the shared partitions the
    // shadows were copied from (the snapshot comparisons inside
    // CollectWriteFootprint make this belt-and-braces, but the
    // footprint should describe the plan the lock certified).
    write_fp = ctx->delta()->CollectWriteFootprint();
    // The commit both folds the statistics and executes the decision,
    // so its footprint and budget claim cover both.
    MergeDecisionWrites(decision, &write_fp);
    admitted_bytes = AdmittedDecisionBytes(decision);
    write_fp.Normalize();
  }

  // Phase 2 — commit. Only work whose effects cannot be expressed as a
  // precise footprint takes the exclusive lock: the merge pass (may
  // touch any view), inline evictions (change the pool occupancy every
  // tenant's knapsack budgets against), and physical execution (writes
  // the relational catalog outside the pool's catalog mutex).
  // Everything else — *including view creation*, whose catalog/index
  // writes publish as precise signature sets and whose ids come from
  // the engine's placeholder reservation — tries the sharded path: IX
  // on the pool lock plus the commit shards of the write footprint,
  // validated by read-set conflict detection. A plan whose reads no
  // foreign commit touched commits as-is — concurrently with other
  // disjoint-footprint tenants; a conflicting plan replans under the
  // exclusive lock (stage observers see the stages a second time,
  // OnQueryStart is not re-fired).
  bool decision_evicts = DecisionEvicts(decision);
  const bool needs_exclusive = options_.merge.enabled ||
                               options_.physical_execution || decision_evicts;

  CommitGuard commit;
  bool conflict_genuine = false;
  bool replan = false;
  bool sharded = false;
  if (!needs_exclusive) {
    commit = pool_->TryBeginShardedCommit(
        observer_, tenant_, tenant_ord_, std::move(write_fp),
        ctx->delta()->read_footprint(), read_epoch, &conflict_genuine,
        admitted_bytes);
    sharded = commit.held();
    replan = !sharded;
  }
  if (!commit.held()) {
    commit = pool_->BeginCommit(observer_, tenant_, tenant_ord_);
    if (!replan) {
      // Structural path: same read-set + budget-headroom validation,
      // under the exclusive lock (no in-flight sharded commits can
      // exist here).
      replan = !pool_->ValidateReadSet(commit, ctx->delta()->read_footprint(),
                                       read_epoch, &conflict_genuine,
                                       admitted_bytes);
    }
  }

  const int64_t t = pool_->Tick(commit);
  if (replan) {
    report = QueryReport();
    report.tenant_id = tenant_;
    report.replanned = true;
    report.replan_conflict = conflict_genuine;
    report.replan_spurious = !conflict_genuine;
    decision = SelectionDecision();
    ctx = std::make_unique<QueryContext>(query, t, tenant_, tenant_ord_);
    ctx->InitPlanning(*catalog_, stat_, reservation_.get());
    DEEPSEA_RETURN_IF_ERROR(RunPlanningStages(ctx.get(), &report, &decision));
    decision_evicts = DecisionEvicts(decision);
  }
  // Under the sharded path a concurrent commit may have won a smaller
  // clock value; events planned at t_spec keep their timestamp (commit-
  // order independence is what lets disjoint commits run concurrently),
  // while the report records the actual commit position.
  report.query_index = t;

  if (!sharded) {
    // Attribute the exclusive commit (see QueryReport::exclusive_reason)
    // while the delta is still unfolded — Fold clears the structural
    // buffers the has_* probes read.
    const PlanningDelta& d = *ctx->delta();
    const ExclusiveReason reason =
        options_.merge.enabled        ? ExclusiveReason::kMerge
        : decision_evicts             ? ExclusiveReason::kEviction
        : options_.physical_execution ? ExclusiveReason::kPhysical
        : d.has_new_views()           ? ExclusiveReason::kNewView
        : d.has_deferred_puts()       ? ExclusiveReason::kCatalogPut
        : d.has_deferred_index()      ? ExclusiveReason::kIndexInsert
        : d.has_attach_ops()          ? ExclusiveReason::kAttach
        : report.replanned            ? ExclusiveReason::kReplan
                                      : ExclusiveReason::kOther;
    report.exclusive_reason =
        kExclusiveReasonNames[static_cast<size_t>(reason)];
  }

  if (!sharded && !options_.merge.enabled) {
    // The exclusive commit publishes `all` by default; a validated (or
    // replanned) plan knows its precise writes — publish those instead
    // so disjoint in-flight plans of other tenants survive this commit.
    // (With the merge pass enabled the commit may touch any view, so
    // `all` stands. Collect before Apply folds the delta.)
    CommitFootprint write_fp = ctx->delta()->CollectWriteFootprint();
    MergeDecisionWrites(decision, &write_fp);
    write_fp.Normalize();
    pool_->SetCommitFootprint(commit, std::move(write_fp));
  }

  if (options_.strategy != StrategyKind::kHive) {
    {
      StageScope stage(observer_, EngineStage::kApply, *ctx);
      ExecuteDecision(decision, *ctx, &report, t);
      stage.Finish(report.materialize_seconds);
    }

    // Maintenance: merge co-accessed adjacent fragments (Section 11
    // extension; disabled by default).
    if (options_.merge.enabled) {
      StageScope stage(observer_, EngineStage::kMerge, *ctx);
      const double merge_seconds = ExecuteMergePass(*ctx, &report);
      report.materialize_seconds += merge_seconds;
      stage.Finish(merge_seconds);
    }

    // When a view that feeds a selection of this query was created, the
    // query was executed in instrumented form: that selection is not
    // pushed below the materialized subquery, so the execution cost is
    // that of the original (non-pushed) plan; the partitioned write
    // cost has been charged to materialize_seconds by Apply.
    bool unpushed = false;
    for (const std::string& id : report.created_views) {
      for (const ViewCandidate& c : ctx->view_candidates) {
        if (c.view->id == id && c.under_select) unpushed = true;
      }
    }
    if (unpushed) {
      // Under a sharded commit a foreign fold can grow the relational
      // catalog concurrently; the estimator walks it, so read it under
      // the pool's catalog mutex (free of contention under X).
      auto catalog_lock = pool_->CatalogSharedLock();
      auto est = estimator_.Estimate(ctx->query);
      if (est.ok()) {
        report.best_seconds = est->seconds;
        report.map_tasks = est->map_tasks;
        ctx->executed_plan = ctx->query;
      }
    }
  }

  report.total_seconds = report.best_seconds + report.materialize_seconds;
  report.pool_bytes_after = pool_->PoolBytes();

  if (options_.physical_execution) {
    StageScope stage(observer_, EngineStage::kPhysical, *ctx);
    DEEPSEA_RETURN_IF_ERROR(
        PhysicalExecute(commit, ctx->executed_plan, &report));
    stage.Finish(0.0);
  }

  totals_.Add(report);
  if (observer_ != nullptr) observer_->OnQueryEnd(report);
  return report;
}

void DeepSeaEngine::ExecuteDecision(const SelectionDecision& decision,
                                    const QueryContext& ctx,
                                    QueryReport* report, int64_t t_now) {
  const FaultHandlingConfig& fault = options_.fault;
  // Apply restores *report to its pre-attempt image on failure, so the
  // running fault/retry tallies and the backoff charge live outside the
  // report until the loop resolves.
  int faults = report->fault_count;
  int retries = report->retry_count;
  double backoff_seconds = 0.0;
  for (int attempt = 0;; ++attempt) {
    Status st = pool_->Apply(decision, ctx, report);
    if (st.ok()) {
      report->fault_count = faults;
      report->retry_count = retries;
      report->materialize_seconds += backoff_seconds;
      return;
    }
    ++faults;
    if (observer_ != nullptr) {
      observer_->OnFault(EngineStage::kApply, report->fault_view, st, attempt,
                         tenant_);
    }
    if (st.IsTransient() && attempt < fault.max_retries) {
      ++retries;
      backoff_seconds += fault.retry_backoff_seconds;
      if (observer_ != nullptr) {
        observer_->OnRetry(EngineStage::kApply, attempt + 1, tenant_);
      }
      continue;
    }
    // Permanent fault, or transient retries exhausted: abandon the
    // decision. The pool is already rolled back; the query is answered
    // from whatever is materialized.
    report->fault_count = faults;
    report->retry_count = retries;
    report->materialize_seconds += backoff_seconds;
    report->degraded = true;
    ++report->degrade_count;
    if (!report->fault_view.empty()) {
      pool_->RecordViewFault(report->fault_view, t_now);
    }
    if (observer_ != nullptr) {
      observer_->OnDegrade(EngineStage::kApply, report->fault_view, st,
                           tenant_);
    }
    return;
  }
}

double DeepSeaEngine::ExecuteMergePass(const QueryContext& ctx,
                                       QueryReport* report) {
  const FaultHandlingConfig& fault = options_.fault;
  int faults = report->fault_count;
  int retries = report->retry_count;
  double backoff_seconds = 0.0;
  for (int attempt = 0;; ++attempt) {
    Result<double> seconds = pool_->RunMergePass(ctx.t_now(), decay_, report);
    if (seconds.ok()) {
      report->fault_count = faults;
      report->retry_count = retries;
      return *seconds + backoff_seconds;
    }
    ++faults;
    if (observer_ != nullptr) {
      observer_->OnFault(EngineStage::kMerge, "", seconds.status(), attempt,
                         tenant_);
    }
    if (seconds.status().IsTransient() && attempt < fault.max_retries) {
      ++retries;
      backoff_seconds += fault.retry_backoff_seconds;
      if (observer_ != nullptr) {
        observer_->OnRetry(EngineStage::kMerge, attempt + 1, tenant_);
      }
      continue;
    }
    report->fault_count = faults;
    report->retry_count = retries;
    report->degraded = true;
    ++report->degrade_count;
    if (observer_ != nullptr) {
      observer_->OnDegrade(EngineStage::kMerge, "", seconds.status(), tenant_);
    }
    return backoff_seconds;
  }
}

Status DeepSeaEngine::PhysicalExecute(const CommitGuard& commit,
                                      const PlanPtr& plan,
                                      QueryReport* report) {
  // Materialize sample tables for views created this query so future
  // ViewRef reads return real rows.
  for (const std::string& id : report->created_views) {
    ViewInfo* view = pool_->stat(commit)->Get(id);
    if (view == nullptr) continue;
    auto rows = executor_.Execute(view->plan);
    if (!rows.ok()) return rows.status();
    auto table_result = catalog_->Get(id);
    if (!table_result.ok()) continue;
    TablePtr table = *table_result;
    auto fresh = std::make_shared<Table>(id, rows->schema);
    for (Row& r : rows->rows) fresh->AddRow(std::move(r));
    fresh->set_logical_row_count(table->logical_row_count());
    fresh->set_avg_row_bytes(table->avg_row_bytes());
    // Preserve derived histograms (logical-scale) for cost estimation.
    for (const auto& [attr, part] : view->partitions) {
      (void)part;
      const AttributeHistogram* hist = table->GetHistogram(attr);
      if (hist != nullptr) fresh->SetHistogram(attr, *hist);
    }
    catalog_->Put(fresh);
  }
  auto result = executor_.Execute(plan);
  if (!result.ok()) return result.status();
  report->physical = std::move(*result);
  report->physically_executed = true;
  return Status::OK();
}

}  // namespace deepsea
