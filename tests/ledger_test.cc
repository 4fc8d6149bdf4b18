// The realized-return ledger and V_sel's repeat-creation gate
// (DESIGN.md §7 deviation 11): the gate's condition over a view's
// ledger, a view in debt withheld until the benefit it accrued since its
// last creation covers the debt, and every decision the gate must not
// touch — first creations, views not in debt, the Nectar value models,
// and an unbounded pool, which never makes a repeat creation.

#include <atomic>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "core/engine.h"
#include "core/planning_delta.h"
#include "workload/bigbench.h"
#include "workload/range_generator.h"
#include "workload/sdss.h"

namespace deepsea {
namespace {

BigBenchDataset::Options DataOptions() {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  o.item_sk_distribution =
      SdssTraceModel(SdssTraceModel::Config{}, 2017).AccessDensity(420);
  return o;
}

EngineOptions BaseOptions() {
  EngineOptions o;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  return o;
}

PlanPtr MakeQuery(const std::string& template_name, double lo, double hi) {
  auto plan = BigBenchTemplates::Build(template_name, lo, hi);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return *plan;
}

/// SDSS-patterned ranges over the ten templates (Section 10.1).
std::vector<PlanPtr> SdssWorkload(int n, uint64_t seed) {
  SdssTraceModel sdss(SdssTraceModel::Config{}, seed);
  const Interval ra(-20.0, 400.0);
  const Interval item_sk(0.0, 400000.0);
  Rng rng(seed + 1);
  const auto names = BigBenchTemplates::Names();
  std::vector<PlanPtr> out;
  for (const Interval& r : sdss.GenerateTrace(n)) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const Interval mapped = SdssTraceModel::MapRange(r, ra, item_sk);
    out.push_back(MakeQuery(name, mapped.lo, mapped.hi));
  }
  return out;
}

/// Q30 with small ranges around heavily skewed midpoints.
std::vector<PlanPtr> HotQ30Workload(int n, uint64_t seed) {
  RangeGenerator gen(Interval(0.0, 400000.0), Selectivity::kSmall,
                     Skew::kHeavy, seed);
  std::vector<PlanPtr> out;
  for (int i = 0; i < n; ++i) {
    const Interval r = gen.Next();
    out.push_back(MakeQuery("Q30", r.lo, r.hi));
  }
  return out;
}

/// Everything a query decided and paid, at full precision. Creation
/// kinds are left out: they read the ledger, which is what differs.
std::string Decisions(const QueryReport& r) {
  std::string out = StrFormat(
      "%lld %.17g %.17g %s", static_cast<long long>(r.query_index),
      r.total_seconds, r.pool_bytes_after, r.used_view.c_str());
  for (const std::string& id : r.created_views) out += " " + id;
  return out + StrFormat(" +%d -%d", r.created_fragments, r.evicted_fragments);
}

/// Runs `workload` on a fresh engine. With `forget_ledgers`, every
/// view's ledger is reset before each query, so the gate never closes:
/// the decisions of an engine without the ledger.
std::vector<std::string> RunWorkload(const EngineOptions& options,
                                     const std::vector<PlanPtr>& workload,
                                     bool forget_ledgers,
                                     EngineTotals* totals = nullptr) {
  Catalog catalog;
  EXPECT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, options);
  std::vector<std::string> out;
  for (const PlanPtr& q : workload) {
    if (forget_ledgers) {
      CommitGuard commit = engine.mutable_pool()->BeginCommit();
      for (ViewInfo* v : engine.mutable_pool()->stat(commit)->AllViews()) {
        v->ledger = ViewLedger();
      }
    }
    auto report = engine.ProcessQuery(q);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) break;
    out.push_back(Decisions(*report));
  }
  if (totals != nullptr) *totals = engine.totals();
  return out;
}

// --- the gate's condition --------------------------------------------

TEST(RealizedReturnGateTest, ClosesOnlyOnARepeatCreationInDebt) {
  Catalog catalog;
  ViewCatalog views;
  PlanSignature sig;
  sig.relations = {"t"};
  ViewInfo* v = views.Track(Scan("t"), sig);
  v->stats.RecordUse(1.0, 30.0);
  v->stats.RecordUse(2.0, 20.0);  // N(V) = 50
  std::atomic<int64_t> counter{0};
  ViewIdReservation reservation(&counter);
  auto withheld = [&](const ViewLedger& ledger) {
    v->ledger = ledger;
    PlanningDelta delta(catalog, &views, /*t_now=*/3.0, &reservation);
    return delta.RepeatCreationWithheld(v);
  };
  // Never created: a first creation is never withheld, whatever the
  // ledger says.
  EXPECT_FALSE(withheld({/*paid=*/100.0, /*earned=*/0.0, /*n0=*/50.0,
                         /*created=*/false}));
  // Not in debt: earned covers paid.
  EXPECT_FALSE(withheld({100.0, 100.0, 50.0, true}));
  EXPECT_FALSE(withheld({100.0, 250.0, 50.0, true}));
  // In debt by 60 s; N(V) - N0 = 50 - 10 = 40 does not cover it.
  EXPECT_TRUE(withheld({100.0, 40.0, 10.0, true}));
  // N(V) - N0 = 50 - 0 = 50 covers a debt of 50 exactly.
  EXPECT_FALSE(withheld({100.0, 50.0, 0.0, true}));

  // This query's own benefit patch counts: 40 + 25 covers the debt.
  v->ledger = {100.0, 40.0, 10.0, true};
  PlanningDelta delta(catalog, &views, /*t_now=*/3.0, &reservation);
  EXPECT_TRUE(delta.RepeatCreationWithheld(v));
  delta.RecordUse(v, 3.0, 25.0);
  EXPECT_FALSE(delta.RepeatCreationWithheld(v));
  // The check is a read of the view, so a foreign commit writing its
  // ledger invalidates the plan.
  bool read = false;
  for (const std::string& id : delta.read_footprint().views) {
    read |= id == v->id;
  }
  EXPECT_TRUE(read);
}

// --- a view in debt ---------------------------------------------------

TEST(RealizedReturnGateTest, ViewInDebtWithheldUntilBenefitCoversTheDebt) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, BaseOptions());
  const PlanPtr query = MakeQuery("Q30", 120000, 160000);

  // The first query creates the view; its creation premium is the
  // view's debt once its content has been evicted by hand.
  auto first = engine.ProcessQuery(query);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->created_views.size(), 1u);
  EXPECT_EQ(first->created_kinds,
            std::vector<CreationKind>{CreationKind::kFirst});
  EXPECT_GT(first->creation_premium_seconds, 0.0);
  EXPECT_EQ(first->creation_premium_seconds,
            first->total_seconds - first->base_seconds);
  ViewInfo* v = nullptr;
  {
    CommitGuard commit = engine.mutable_pool()->BeginCommit();
    v = engine.mutable_pool()->stat(commit)->Get(first->created_views[0]);
    ASSERT_NE(v, nullptr);
    QueryReport scratch;
    ASSERT_TRUE(engine.mutable_pool()->EvictWholeView(v, &scratch).ok());
  }
  EXPECT_TRUE(v->ledger.created);
  EXPECT_EQ(v->ledger.paid, first->creation_premium_seconds);
  EXPECT_EQ(v->ledger.earned, 0.0);
  EXPECT_EQ(v->ledger.n0, v->stats.UndecayedBenefit());
  const double debt = v->ledger.paid - v->ledger.earned;

  // Each repeat of the query adds its saving to N(V). The view is
  // withheld while N(V) - N0 stays below the debt, and re-created by the
  // first query whose benefit covers it. Every other view is
  // quarantined, so none answers the query and V stays its candidate.
  int withheld = 0;
  bool recreated = false;
  for (int i = 0; i < 200 && !recreated; ++i) {
    {
      CommitGuard commit = engine.mutable_pool()->BeginCommit();
      for (ViewInfo* w : engine.mutable_pool()->stat(commit)->AllViews()) {
        if (w != v) w->quarantined_until = std::numeric_limits<int64_t>::max();
      }
    }
    const double n0 = v->ledger.n0;
    auto report = engine.ProcessQuery(query);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->used_view.empty()) << "query " << i;
    // N(V) after the fold is what the gate read: the planned query's
    // benefit patch included.
    const double accrued = v->stats.UndecayedBenefit() - n0;
    if (report->created_views.empty()) {
      EXPECT_LT(accrued, debt) << "query " << i;
      EXPECT_EQ(report->creations_withheld, 1) << "query " << i;
      EXPECT_FALSE(v->InPool());
      ++withheld;
      continue;
    }
    EXPECT_GE(accrued, debt) << "query " << i;
    EXPECT_EQ(report->creations_withheld, 0);
    ASSERT_EQ(report->created_views, std::vector<std::string>{v->id});
    EXPECT_EQ(report->created_kinds,
              std::vector<CreationKind>{CreationKind::kRecreation});
    EXPECT_TRUE(v->InPool());
    EXPECT_EQ(v->ledger.paid, debt + report->creation_premium_seconds);
    recreated = true;
  }
  EXPECT_GT(withheld, 0);
  EXPECT_TRUE(recreated);
  EXPECT_EQ(engine.totals().creations_withheld, withheld);
  EXPECT_EQ(engine.totals().views_created_by_kind[static_cast<size_t>(
                CreationKind::kRecreation)],
            1);
}

// --- decisions the gate leaves alone ------------------------------------

TEST(RealizedReturnGateTest, NectarModelsDecideAsWithoutTheLedger) {
  const std::vector<PlanPtr> workload = SdssWorkload(400, 2017);
  for (ValueModel model : {ValueModel::kNectar, ValueModel::kNectarPlus}) {
    SCOPED_TRACE(static_cast<int>(model));
    EngineOptions options = BaseOptions();
    options.value_model = model;
    options.pool_limit_bytes = 10e9;
    EngineTotals totals;
    const std::vector<std::string> kept =
        RunWorkload(options, workload, /*forget_ledgers=*/false, &totals);
    // The workload does make repeat creations, which the ledger records
    // without withholding any.
    EXPECT_GT(totals.views_created_by_kind[static_cast<size_t>(
                  CreationKind::kRecreation)] +
                  totals.views_created_by_kind[static_cast<size_t>(
                      CreationKind::kTopUp)],
              0);
    EXPECT_EQ(totals.creations_withheld, 0);
    EXPECT_EQ(RunWorkload(options, workload, /*forget_ledgers=*/true), kept);
  }
  // DeepSea's model on the same bounded workload is withheld: the
  // comparison above can tell.
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 10e9;
  EngineTotals totals;
  const std::vector<std::string> kept =
      RunWorkload(options, workload, /*forget_ledgers=*/false, &totals);
  EXPECT_GT(totals.creations_withheld, 0);
  EXPECT_NE(RunWorkload(options, workload, /*forget_ledgers=*/true), kept);
}

TEST(RealizedReturnGateTest, UnboundedQ30StreamMakesNoRepeatCreation) {
  // An unbounded pool never evicts, and the hot Q30 stream is answered
  // from its one view once created, so the view is never offered again:
  // no re-creation, no top-up, nothing for the gate to withhold. First
  // creations and views not in debt decide as without the ledger.
  const std::vector<PlanPtr> workload = HotQ30Workload(600, 7);
  EngineTotals totals;
  const std::vector<std::string> kept =
      RunWorkload(BaseOptions(), workload, /*forget_ledgers=*/false, &totals);
  EXPECT_GE(totals.views_created_by_kind[static_cast<size_t>(
                CreationKind::kFirst)],
            1);
  EXPECT_EQ(totals.views_created_by_kind[static_cast<size_t>(
                CreationKind::kRecreation)],
            0);
  EXPECT_EQ(totals.views_created_by_kind[static_cast<size_t>(
                CreationKind::kTopUp)],
            0);
  EXPECT_EQ(totals.creations_withheld, 0);
  EXPECT_GT(totals.view_reads_credited, 0);
  EXPECT_EQ(RunWorkload(BaseOptions(), workload, /*forget_ledgers=*/true), kept);
}

}  // namespace
}  // namespace deepsea
