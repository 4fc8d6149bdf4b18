// Direct unit tests for the staged query pipeline: each of the four
// stage components (RewritePlanner, CandidateGenerator,
// SelectionPlanner, PoolManager) is constructed and exercised
// standalone — without a DeepSeaEngine — plus coverage for the
// QueryContext cover lookup, the EngineObserver seam, and mid-workload
// SaveState/LoadState continuation across the new stage boundaries.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "core/candidate_generator.h"
#include "core/engine.h"
#include "core/pool_manager.h"
#include "core/query_context.h"
#include "core/rewrite_planner.h"
#include "core/selection_planner.h"
#include "evict_counter.h"
#include "exp/metrics.h"
#include "exp/trace.h"
#include "workload/bigbench.h"
#include "workload/sdss.h"

namespace deepsea {
namespace {

EngineOptions BaseOptions() {
  EngineOptions o;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  return o;
}

BigBenchDataset::Options DataOptions() {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  return o;
}

PlanPtr MakeQuery(const std::string& template_name, double lo, double hi) {
  auto plan = BigBenchTemplates::Build(template_name, lo, hi);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

// ---------------------------------------------------------------------------
// QueryContext

TEST(QueryContextTest, CoverLookupMatchesExactIntervalsOnly) {
  QueryContext ctx(nullptr, 1);
  EXPECT_FALSE(ctx.CoverContains(Interval(0.0, 1.0)));

  std::vector<Interval> cover = {
      Interval(10.0, 20.0, true, false),
      Interval(0.0, 10.0, true, true),
      Interval(20.0, 30.0, false, true),
  };
  ctx.SetCover("v1", "a", cover);
  EXPECT_EQ(ctx.cover_view(), "v1");
  EXPECT_EQ(ctx.cover_attr(), "a");
  for (const Interval& iv : cover) {
    EXPECT_TRUE(ctx.CoverContains(iv)) << iv.ToString();
  }
  // Same endpoints, different openness: not a member.
  EXPECT_FALSE(ctx.CoverContains(Interval(10.0, 20.0, true, true)));
  EXPECT_FALSE(ctx.CoverContains(Interval(0.0, 10.0, false, true)));
  // Different endpoints.
  EXPECT_FALSE(ctx.CoverContains(Interval(0.0, 20.0, true, true)));

  ctx.ClearCover();
  EXPECT_TRUE(ctx.cover().empty());
  EXPECT_FALSE(ctx.CoverContains(cover[0]));
}

TEST(QueryContextTest, CoverLookupScalesToManyFragments) {
  QueryContext ctx(nullptr, 1);
  std::vector<Interval> cover;
  for (int i = 0; i < 1000; ++i) {
    cover.push_back(Interval(i * 10.0, i * 10.0 + 10.0, true, false));
  }
  ctx.SetCover("v1", "a", cover);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(ctx.CoverContains(Interval(i * 10.0, i * 10.0 + 10.0, true,
                                           false)));
    EXPECT_FALSE(ctx.CoverContains(Interval(i * 10.0 + 1.0, i * 10.0 + 10.0,
                                            true, false)));
  }
}

// ---------------------------------------------------------------------------
// Stage components, constructed standalone (no DeepSeaEngine).

class PipelineStageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    options_ = BaseOptions();
    Status gen = BigBenchDataset::Generate(DataOptions(), &catalog_);
    ASSERT_TRUE(gen.ok()) << gen.ToString();
    cluster_ = std::make_unique<ClusterModel>(options_.cluster);
    estimator_ = std::make_unique<PlanCostEstimator>(cluster_.get(), &catalog_,
                                                     options_.estimator);
    decay_ = std::make_unique<DecayFunction>(options_.decay);
    mle_ = std::make_unique<MleFragmentModel>(options_.mle);
    pool_ = std::make_unique<PoolManager>(&catalog_, &options_, cluster_.get(),
                                          estimator_.get());
    // Driving the stages directly (no engine): hold the pool's commit
    // section for the whole test — the guard is the token that unlocks
    // stat()/fs()/rewrite_index() and satisfies the mutators' asserts.
    commit_ = pool_->BeginCommit();
    rewriter_ = std::make_unique<RewritePlanner>(
        &catalog_, estimator_.get(), pool_->stat(commit_),
        pool_->rewrite_index(commit_));
    generator_ = std::make_unique<CandidateGenerator>(
        &catalog_, &options_, cluster_.get(), pool_->stat(commit_),
        pool_->rewrite_index(commit_), pool_.get());
    selector_ = std::make_unique<SelectionPlanner>(
        &catalog_, &options_, cluster_.get(), decay_.get(), mle_.get(),
        pool_->stat(commit_));
  }

  // Drives one query through all four stages (the orchestration
  // DeepSeaEngine::ProcessQuery performs), returning the report.
  QueryReport RunPipeline(const PlanPtr& query) {
    const int64_t clock = pool_->Tick(commit_);
    QueryReport report;
    report.query_index = clock;
    QueryContext ctx(query, clock);
    ctx.InitPlanning(catalog_, pool_->stat(commit_));
    EXPECT_TRUE(rewriter_->PlanBase(&ctx, &report).ok());
    EXPECT_TRUE(rewriter_->PlanBest(&ctx, &report).ok());
    const PlanPtr candidate_plan =
        report.used_view.empty() ? ctx.query : ctx.executed_plan;
    generator_->RegisterViewCandidates(candidate_plan, report.base_seconds,
                                       &ctx);
    generator_->RegisterPartitionCandidates(&ctx);
    SelectionDecision decision =
        selector_->PlanSelection(ctx, report.base_seconds).decision;
    EXPECT_TRUE(pool_->Apply(decision, ctx, &report).ok());
    report.total_seconds = report.best_seconds + report.materialize_seconds;
    report.pool_bytes_after = pool_->PoolBytes();
    return report;
  }

  Catalog catalog_;
  EngineOptions options_;
  std::unique_ptr<ClusterModel> cluster_;
  std::unique_ptr<PlanCostEstimator> estimator_;
  std::unique_ptr<DecayFunction> decay_;
  std::unique_ptr<MleFragmentModel> mle_;
  std::unique_ptr<PoolManager> pool_;
  // Declared after pool_ so the guard releases before the pool dies.
  CommitGuard commit_;
  std::unique_ptr<RewritePlanner> rewriter_;
  std::unique_ptr<CandidateGenerator> generator_;
  std::unique_ptr<SelectionPlanner> selector_;
};

TEST_F(PipelineStageTest, RewritePlannerComputesBaseThenPicksViewRewriting) {
  const std::string name = BigBenchTemplates::Names()[0];
  const PlanPtr query = MakeQuery(name, 1000.0, 150000.0);

  // First query: no views exist, so the base plan is the best plan.
  QueryContext ctx(query, 1);
  ctx.InitPlanning(catalog_, pool_->stat(commit_));
  QueryReport report;
  ASSERT_TRUE(rewriter_->PlanBase(&ctx, &report).ok());
  EXPECT_NE(ctx.base_plan, nullptr);
  EXPECT_EQ(ctx.executed_plan, ctx.base_plan);
  EXPECT_GT(report.base_seconds, 0.0);
  EXPECT_EQ(report.best_seconds, report.base_seconds);
  ASSERT_TRUE(rewriter_->PlanBest(&ctx, &report).ok());
  EXPECT_TRUE(report.used_view.empty());
  EXPECT_TRUE(ctx.cover_view().empty());

  // Repeat the query until its view materializes; afterwards the
  // planner must answer from the view, cheaper than the base plan.
  bool answered_from_view = false;
  for (int i = 0; i < 6 && !answered_from_view; ++i) {
    const QueryReport r = RunPipeline(query);
    answered_from_view = !r.used_view.empty();
    if (answered_from_view) {
      EXPECT_LT(r.best_seconds, r.base_seconds);
      EXPECT_GT(r.fragments_read, 0);
    }
  }
  EXPECT_TRUE(answered_from_view);
}

TEST_F(PipelineStageTest, CandidateGeneratorRegistersViewsAndPartitions) {
  const std::string name = BigBenchTemplates::Names()[0];
  const PlanPtr query = MakeQuery(name, 1000.0, 150000.0);

  QueryContext ctx(query, 1);
  ctx.InitPlanning(catalog_, pool_->stat(commit_));
  QueryReport report;
  ASSERT_TRUE(rewriter_->PlanBase(&ctx, &report).ok());
  generator_->RegisterViewCandidates(ctx.query, report.base_seconds, &ctx);
  ASSERT_FALSE(ctx.view_candidates.empty());
  // Every candidate entered the query's PlanningDelta — its planning
  // catalog carries the estimated view table — while the shared STAT
  // and the real catalog stay untouched until the delta folds.
  for (const ViewCandidate& c : ctx.view_candidates) {
    EXPECT_EQ(pool_->stat(commit_)->Get(c.view->id), nullptr);
    EXPECT_FALSE(catalog_.Contains(c.view->id));
    EXPECT_TRUE(ctx.delta()->planning_catalog()->Contains(c.view->id));
    EXPECT_TRUE(ctx.delta()->OwnsView(c.view));
    EXPECT_GT(c.view->stats.size_bytes, 0.0);
  }
  // The join feeding the query's item_sk selection is an under-select
  // candidate (Section 10.2).
  bool any_under_select = false;
  for (const ViewCandidate& c : ctx.view_candidates) {
    any_under_select = any_under_select || c.under_select;
  }
  EXPECT_TRUE(any_under_select);

  generator_->RegisterPartitionCandidates(&ctx);
  // The selection endpoint refined some view's pending fragmentation
  // (visible through the delta's partition overlay).
  bool any_pending_refined = false;
  for (ViewInfo* v : ctx.delta()->AllViews()) {
    for (const std::string& attr : ctx.delta()->PartitionAttrs(v)) {
      PartitionState* part = ctx.delta()->Partition(v, attr);
      any_pending_refined =
          any_pending_refined || (part != nullptr && part->pending.size() > 1);
    }
  }
  EXPECT_TRUE(any_pending_refined);

  // Folding (an empty decision suffices) publishes the buffered
  // registrations: the views land in STAT and the relational catalog
  // with their ViewInfo addresses preserved.
  QueryReport fold_report;
  ASSERT_TRUE(pool_->Apply(SelectionDecision(), ctx, &fold_report).ok());
  for (const ViewCandidate& c : ctx.view_candidates) {
    EXPECT_EQ(pool_->stat(commit_)->Get(c.view->id), c.view);
    EXPECT_TRUE(catalog_.Contains(c.view->id));
  }
}

TEST_F(PipelineStageTest, SelectionPlannerIsSideEffectFreeUntilApply) {
  const std::string name = BigBenchTemplates::Names()[0];
  const PlanPtr query = MakeQuery(name, 1000.0, 150000.0);

  const int64_t clock = pool_->Tick(commit_);
  QueryContext ctx(query, clock);
  ctx.InitPlanning(catalog_, pool_->stat(commit_));
  QueryReport report;
  report.query_index = clock;
  ASSERT_TRUE(rewriter_->PlanBase(&ctx, &report).ok());
  ASSERT_TRUE(rewriter_->PlanBest(&ctx, &report).ok());
  generator_->RegisterViewCandidates(ctx.query, report.base_seconds, &ctx);
  generator_->RegisterPartitionCandidates(&ctx);

  const double pool_before = pool_->PoolBytes();
  const size_t files_before = pool_->fs().List().size();
  SelectionDecision decision =
      selector_->PlanSelection(ctx, report.base_seconds).decision;
  // Planning decides but does not touch the pool.
  EXPECT_EQ(pool_->PoolBytes(), pool_before);
  EXPECT_EQ(pool_->fs().List().size(), files_before);
  ASSERT_FALSE(decision.empty());
  bool any_materialize = false;
  for (const SelectionAction& a : decision.actions) {
    any_materialize =
        any_materialize || a.kind != SelectionAction::Kind::kEvictFragment;
  }
  EXPECT_TRUE(any_materialize);

  // Apply executes the decision: content lands in the pool and the
  // materialization time is charged.
  ASSERT_TRUE(pool_->Apply(decision, ctx, &report).ok());
  EXPECT_GT(pool_->PoolBytes(), pool_before);
  EXPECT_GT(pool_->fs().List().size(), files_before);
  EXPECT_GT(report.materialize_seconds, 0.0);
  EXPECT_GT(report.created_fragments + static_cast<int>(
                report.created_views.size()), 0);
}

TEST_F(PipelineStageTest, PoolManagerEvictsEverythingUnderZeroBudget) {
  const std::string name = BigBenchTemplates::Names()[0];
  // Fill the pool.
  for (int i = 0; i < 4; ++i) {
    RunPipeline(MakeQuery(name, 1000.0, 150000.0));
  }
  ASSERT_GT(pool_->PoolBytes(), 0.0);
  ASSERT_FALSE(pool_->fs().List("pool/").empty());

  // Shrink S_max to zero: the next selection round rejects all pool
  // content and Apply evicts it.
  options_.pool_limit_bytes = 0.0;
  const QueryReport report = RunPipeline(MakeQuery(name, 1000.0, 150000.0));
  EXPECT_GT(report.evicted_fragments, 0);
  EXPECT_EQ(pool_->PoolBytes(), 0.0);
  EXPECT_TRUE(pool_->fs().List("pool/").empty());
}

// ---------------------------------------------------------------------------
// Observer seam

TEST(EngineObserverTest, StagesAndPoolEventsReachTheObserver) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 2e9;  // tight: force evictions too
  DeepSeaEngine engine(&catalog, options);

  QueryTrace trace;
  EvictCounter observer("DS", &trace);
  engine.set_observer(&observer);

  const auto names = BigBenchTemplates::Names();
  Rng rng(11);
  const int kQueries = 40;
  for (int i = 0; i < kQueries; ++i) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const double lo = rng.Uniform(0.0, 200000.0);
    auto plan = BigBenchTemplates::Build(name, lo, lo + 50000.0);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
  }

  // Every query passed through every always-on stage exactly once.
  EXPECT_EQ(observer.totals().queries, kQueries);
  EXPECT_EQ(trace.size(), static_cast<size_t>(kQueries));
  for (EngineStage s : {EngineStage::kRewrite, EngineStage::kCandidates,
                        EngineStage::kSelection, EngineStage::kApply}) {
    EXPECT_EQ(observer.stage(s).calls, kQueries) << EngineStageName(s);
    EXPECT_GE(observer.stage(s).wall_seconds, 0.0);
  }
  // Merge is disabled, physical execution off.
  EXPECT_EQ(observer.stage(EngineStage::kMerge).calls, 0);
  EXPECT_EQ(observer.stage(EngineStage::kPhysical).calls, 0);
  // The rewrite stage reports the plan cost chosen at Q_best time (the
  // later "unpushed" re-estimate can still revise best_seconds, so this
  // is a lower bound of the executed total, not an exact match).
  EXPECT_GT(observer.stage(EngineStage::kRewrite).sim_seconds, 0.0);
  EXPECT_LE(observer.stage(EngineStage::kRewrite).sim_seconds,
            engine.totals().total_seconds -
                engine.totals().materialize_seconds + 1e-9);
  // Apply's simulated charge is the materialization total (no merge).
  EXPECT_NEAR(observer.stage(EngineStage::kApply).sim_seconds,
              engine.totals().materialize_seconds,
              1e-9 * std::max(1.0, engine.totals().materialize_seconds));

  // The observer folds the same reports the engine does, so every
  // counter agrees (overlapping fragments: no splits; merge off: every
  // eviction is a policy evict).
  EXPECT_EQ(observer.totals(), engine.totals());
  EXPECT_GT(observer.totals().fragments_evicted, 0);
  EXPECT_EQ(observer.totals().fragments_merged, 0);
  // The pool's OnEvict reached the observer once per counted piece.
  EXPECT_EQ(observer.evictions(), engine.totals().fragments_evicted);

  const std::string csv = observer.StageSummaryCsv();
  EXPECT_NE(csv.find("DS,rewrite,"), std::string::npos);
  EXPECT_NE(csv.find("DS,apply,"), std::string::npos);
}

TEST(EngineObserverTest, DetachingTheObserverSilencesIt) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, BaseOptions());
  TraceObserver observer("DS", nullptr);
  engine.set_observer(&observer);
  auto plan = BigBenchTemplates::Build(BigBenchTemplates::Names()[0], 0.0,
                                       100000.0);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
  EXPECT_EQ(observer.totals().queries, 1);
  engine.set_observer(nullptr);
  ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
  EXPECT_EQ(observer.totals().queries, 1);  // unchanged after detach
}

// StageScope's contract (engine.cc): wall-clock is measured only while
// an observer is attached, and observers never influence the simulated
// results. Three engines over identically seeded catalogs — bare,
// TraceObserver, multicast(Trace + Metrics) — must produce identical
// QueryReport sim-time fields for the same workload.
TEST(EngineObserverTest, AttachingObserversDoesNotChangeSimTime) {
  const auto names = BigBenchTemplates::Names();
  Rng rng(23);
  std::vector<PlanPtr> workload;
  for (int i = 0; i < 25; ++i) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const double lo = rng.Uniform(0.0, 200000.0);
    workload.push_back(MakeQuery(name, lo, lo + 60000.0));
  }

  auto run = [&](EngineObserver* observer) {
    Catalog catalog;
    EXPECT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
    DeepSeaEngine engine(&catalog, BaseOptions());
    engine.set_observer(observer);
    std::vector<std::string> lines;
    for (size_t i = 0; i < workload.size(); ++i) {
      // Detach mid-run too: the report stream must not notice.
      if (observer != nullptr && i == workload.size() / 2) {
        engine.set_observer(nullptr);
      }
      if (observer != nullptr && i == workload.size() / 2 + 1) {
        engine.set_observer(observer);
      }
      auto report = engine.ProcessQuery(workload[i]);
      EXPECT_TRUE(report.ok());
      if (report.ok()) {
        lines.push_back(StrFormat(
            "%.17g,%.17g,%.17g,%.17g,%s,%d,%.17g", report->base_seconds,
            report->best_seconds, report->materialize_seconds,
            report->total_seconds, report->used_view.c_str(),
            report->fragments_read, report->pool_bytes_after));
      }
    }
    return lines;
  };

  const std::vector<std::string> bare = run(nullptr);
  TraceObserver trace("DS", nullptr);
  const std::vector<std::string> traced = run(&trace);
  MetricsObserver metrics;
  TraceObserver trace2("DS", nullptr);
  MulticastObserver multicast({&trace2, &metrics});
  const std::vector<std::string> multicasted = run(&multicast);

  ASSERT_EQ(bare.size(), traced.size());
  ASSERT_EQ(bare.size(), multicasted.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(traced[i], bare[i]) << "TraceObserver perturbed query " << i;
    EXPECT_EQ(multicasted[i], bare[i]) << "multicast perturbed query " << i;
  }
}

// ---------------------------------------------------------------------------
// Mid-workload SaveState/LoadState continuation (across the new
// PoolManager seam): a run interrupted at query 60 and resumed in a
// fresh engine must produce exactly the same remaining reports as the
// uninterrupted run.

std::string ReportLine(const QueryReport& r) {
  std::string created;
  for (size_t i = 0; i < r.created_views.size(); ++i) {
    if (i > 0) created += ";";
    created += r.created_views[i];
  }
  return StrFormat("%lld,%.17g,%.17g,%.17g,%.17g,%s,%d,%s,%d,%d,%.17g",
                   static_cast<long long>(r.query_index), r.base_seconds,
                   r.best_seconds, r.materialize_seconds, r.total_seconds,
                   r.used_view.c_str(), r.fragments_read, created.c_str(),
                   r.created_fragments, r.evicted_fragments,
                   r.pool_bytes_after);
}

TEST(SaveLoadContinuationTest, MidWorkloadRoundTripMatchesUninterruptedRun) {
  constexpr int kQueries = 120;
  constexpr int kCut = 60;
  constexpr uint64_t kSeed = 2017;

  // SDSS-patterned workload (same construction as the golden trace).
  SdssTraceModel sdss(SdssTraceModel::Config{}, kSeed);
  const auto ranges = sdss.GenerateTrace(kQueries);
  const Interval ra(-20.0, 400.0);
  const Interval item_sk(0.0, 400000.0);
  Rng rng(kSeed + 1);
  const auto names = BigBenchTemplates::Names();
  std::vector<PlanPtr> workload;
  for (const Interval& r : ranges) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const Interval mapped = SdssTraceModel::MapRange(r, ra, item_sk);
    workload.push_back(MakeQuery(name, mapped.lo, mapped.hi));
  }

  // Uninterrupted run.
  Catalog catalog_a;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog_a).ok());
  DeepSeaEngine engine_a(&catalog_a, BaseOptions());
  std::vector<std::string> tail_a;
  for (int i = 0; i < kQueries; ++i) {
    auto report = engine_a.ProcessQuery(workload[i]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (i >= kCut) tail_a.push_back(ReportLine(*report));
  }

  // Interrupted run: process the first half, save, resume in a fresh
  // engine over a fresh (identically seeded) catalog.
  Catalog catalog_b;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog_b).ok());
  DeepSeaEngine engine_b(&catalog_b, BaseOptions());
  for (int i = 0; i < kCut; ++i) {
    ASSERT_TRUE(engine_b.ProcessQuery(workload[i]).ok());
  }
  auto state = engine_b.SaveState();
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  Catalog catalog_c;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog_c).ok());
  DeepSeaEngine engine_c(&catalog_c, BaseOptions());
  ASSERT_TRUE(engine_c.LoadState(*state).ok());
  EXPECT_EQ(engine_c.now(), kCut);
  EXPECT_EQ(engine_c.PoolBytes(), engine_b.PoolBytes());

  std::vector<std::string> tail_c;
  for (int i = kCut; i < kQueries; ++i) {
    auto report = engine_c.ProcessQuery(workload[i]);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    tail_c.push_back(ReportLine(*report));
  }

  ASSERT_EQ(tail_a.size(), tail_c.size());
  for (size_t i = 0; i < tail_a.size(); ++i) {
    EXPECT_EQ(tail_c[i], tail_a[i]) << "continuation diverges at query "
                                    << (kCut + i + 1);
  }
  // Aggregates over the continuation match the uninterrupted engine's
  // second half too.
  EXPECT_EQ(engine_c.totals().queries, kQueries - kCut);
  EXPECT_EQ(engine_c.PoolBytes(), engine_a.PoolBytes());
}

}  // namespace
}  // namespace deepsea
