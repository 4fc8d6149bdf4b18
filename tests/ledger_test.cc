// The realized-return ledger and V_sel's repeat-creation gate
// (DESIGN.md §7 deviation 11): the gate's condition over a view's
// ledger; a pooled view in debt topped up once the benefit it accrued
// since its last creation covers the debt; an evicted view in debt
// withheld whatever it accrues, and re-created once its reads have paid
// back; and every decision the gate must not touch — first creations,
// views not in debt, the Nectar value models, and an unbounded pool,
// which never makes a repeat creation.

#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <optional>
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

size_t K(CreationKind kind) { return static_cast<size_t>(kind); }

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
  // The view holds pool content when `in_pool` (a whole view stands in
  // for any content).
  auto withheld = [&](const ViewLedger& ledger, bool in_pool) {
    v->ledger = ledger;
    v->whole_materialized = in_pool;
    PlanningDelta delta(catalog, &views, /*t_now=*/3.0, &reservation);
    return delta.RepeatCreationWithheld(v);
  };
  const std::optional<CreationKind> open;
  for (bool in_pool : {false, true}) {
    SCOPED_TRACE(in_pool);
    // Never created: a first creation is never withheld, whatever the
    // ledger says.
    EXPECT_EQ(withheld({/*paid=*/100.0, /*earned=*/0.0, /*n0=*/50.0,
                        /*created=*/false},
                       in_pool),
              open);
    // Not in debt: earned covers paid.
    EXPECT_EQ(withheld({100.0, 100.0, 50.0, true}, in_pool), open);
    EXPECT_EQ(withheld({100.0, 250.0, 50.0, true}, in_pool), open);
  }
  // In debt by 60 s; N(V) - N0 = 50 - 10 = 40 does not cover it.
  EXPECT_EQ(withheld({100.0, 40.0, 10.0, true}, true), CreationKind::kTopUp);
  EXPECT_EQ(withheld({100.0, 40.0, 10.0, true}, false),
            CreationKind::kRecreation);
  // N(V) - N0 = 50 - 0 = 50 covers a debt of 50 exactly: a top-up goes
  // ahead, a re-creation does not.
  EXPECT_EQ(withheld({100.0, 50.0, 0.0, true}, true), open);
  EXPECT_EQ(withheld({100.0, 50.0, 0.0, true}, false),
            CreationKind::kRecreation);
  // However much an evicted view accrues, only earnings clear its debt.
  v->stats.RecordUse(2.5, 1e12);
  EXPECT_EQ(withheld({100.0, 50.0, 0.0, true}, false),
            CreationKind::kRecreation);
  EXPECT_EQ(withheld({100.0, 100.0, 0.0, true}, false), open);

  // This query's own benefit patch counts toward a top-up: 40 + 25
  // covers the debt. It does nothing for a re-creation.
  v->ledger = {100.0, 40.0, 1e12 + 10.0, true};
  for (bool in_pool : {false, true}) {
    v->whole_materialized = in_pool;
    PlanningDelta delta(catalog, &views, /*t_now=*/3.0, &reservation);
    const CreationKind kind =
        in_pool ? CreationKind::kTopUp : CreationKind::kRecreation;
    EXPECT_EQ(delta.RepeatCreationWithheld(v), kind);
    delta.RecordUse(v, 3.0, 25.0);
    EXPECT_EQ(delta.RepeatCreationWithheld(v),
              in_pool ? open : std::optional<CreationKind>(kind));
    // The check is a read of the view, so a foreign commit writing its
    // ledger or its pool content invalidates the plan.
    bool read = false;
    for (const std::string& id : delta.read_footprint().views) {
      read |= id == v->id;
    }
    EXPECT_TRUE(read);
  }
}

// --- the gate in the engine -------------------------------------------

/// An engine on an unbounded pool whose first query created one view,
/// V. Repeat quarantines every other view before each query, so none
/// answers it and V stays its candidate.
class OneViewEngine {
 public:
  explicit OneViewEngine(const PlanPtr& first_query) {
    EXPECT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog_).ok());
    engine_ = std::make_unique<DeepSeaEngine>(&catalog_, BaseOptions());
    auto first = engine_->ProcessQuery(first_query);
    EXPECT_TRUE(first.ok());
    if (!first.ok()) return;
    first_ = *first;
    EXPECT_EQ(first_.created_views.size(), 1u);
    if (first_.created_views.size() != 1) return;
    CommitGuard commit = engine_->mutable_pool()->BeginCommit();
    v_ = engine_->mutable_pool()->stat(commit)->Get(first_.created_views[0]);
  }
  // The engine holds the catalog's address.
  OneViewEngine(const OneViewEngine&) = delete;
  OneViewEngine& operator=(const OneViewEngine&) = delete;

  DeepSeaEngine& engine() { return *engine_; }
  ViewInfo* v() const { return v_; }
  const QueryReport& first() const { return first_; }

  QueryReport Repeat(const PlanPtr& query) {
    {
      CommitGuard commit = engine_->mutable_pool()->BeginCommit();
      for (ViewInfo* w : engine_->mutable_pool()->stat(commit)->AllViews()) {
        if (w != v_) w->quarantined_until = std::numeric_limits<int64_t>::max();
      }
    }
    auto report = engine_->ProcessQuery(query);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : QueryReport();
  }

  /// Evicts V's pieces that overlap `range`, or all of them.
  void Evict(std::optional<Interval> range = std::nullopt) {
    CommitGuard commit = engine_->mutable_pool()->BeginCommit();
    QueryReport scratch;
    if (!range.has_value()) {
      EXPECT_TRUE(engine_->mutable_pool()->EvictWholeView(v_, &scratch).ok());
      return;
    }
    for (auto& [attr, part] : v_->partitions) {
      for (FragmentStats& f : part.mutable_fragments()) {
        if (f.materialized && f.interval.Overlaps(*range)) {
          EXPECT_TRUE(
              engine_->mutable_pool()->EvictFragment(v_, &part, &f, &scratch)
                  .ok());
        }
      }
    }
  }

 private:
  Catalog catalog_;
  std::unique_ptr<DeepSeaEngine> engine_;
  QueryReport first_;
  ViewInfo* v_ = nullptr;
};

TEST(RealizedReturnGateTest, ViewInDebtWithheldUntilBenefitCoversTheDebt) {
  // A view still in the pool is topped up once the benefit it accrued
  // since its last creation covers its debt.
  const Interval cold(300000, 320000);
  OneViewEngine e(MakeQuery("Q30", 120000, 160000));
  ViewInfo* v = e.v();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(e.first().created_kinds,
            std::vector<CreationKind>{CreationKind::kFirst});
  EXPECT_GT(e.first().creation_premium_seconds, 0.0);
  EXPECT_EQ(e.first().creation_premium_seconds,
            e.first().total_seconds - e.first().base_seconds);
  // The first creation's premium is the view's debt. Evicting the pieces
  // under the cold range leaves it in the pool with a range to top up.
  e.Evict(cold);
  ASSERT_TRUE(v->InPool());
  EXPECT_TRUE(v->ledger.created);
  EXPECT_EQ(v->ledger.paid, e.first().creation_premium_seconds);
  EXPECT_EQ(v->ledger.earned, 0.0);
  EXPECT_EQ(v->ledger.n0, v->stats.UndecayedBenefit());
  const double debt = v->ledger.paid - v->ledger.earned;

  // Each query over the cold range adds its saving to N(V). A top-up is
  // withheld while N(V) - N0 stays below the debt; once it covers the
  // debt, the top-up filter alone decides.
  int withheld = 0;
  bool topped_up = false;
  const PlanPtr query = MakeQuery("Q30", cold.lo, cold.hi);
  for (int i = 0; i < 400 && !topped_up; ++i) {
    const double n0 = v->ledger.n0;
    const QueryReport report = e.Repeat(query);
    EXPECT_TRUE(report.used_view.empty()) << "query " << i;
    EXPECT_EQ(report.creations_withheld_by_kind[K(CreationKind::kRecreation)],
              0);
    // N(V) after the fold is what the gate read: the planned query's
    // benefit patch included.
    const double accrued = v->stats.UndecayedBenefit() - n0;
    const int topups_withheld =
        report.creations_withheld_by_kind[K(CreationKind::kTopUp)];
    if (report.created_views.empty()) {
      EXPECT_EQ(topups_withheld, accrued < debt ? 1 : 0) << "query " << i;
      withheld += topups_withheld;
      continue;
    }
    EXPECT_GE(accrued, debt) << "query " << i;
    EXPECT_EQ(topups_withheld, 0);
    ASSERT_EQ(report.created_views, std::vector<std::string>{v->id});
    EXPECT_EQ(report.created_kinds,
              std::vector<CreationKind>{CreationKind::kTopUp});
    EXPECT_EQ(v->ledger.paid, debt + report.creation_premium_seconds);
    topped_up = true;
  }
  EXPECT_GT(withheld, 0);
  EXPECT_TRUE(topped_up);
  const EngineTotals& totals = e.engine().totals();
  EXPECT_EQ(totals.creations_withheld_by_kind[K(CreationKind::kTopUp)],
            withheld);
  EXPECT_EQ(totals.creations_withheld_by_kind[K(CreationKind::kRecreation)],
            0);
  EXPECT_EQ(totals.views_created_by_kind[K(CreationKind::kTopUp)], 1);
}

TEST(RealizedReturnGateTest, EvictedViewInDebtStaysWithheldWhateverItAccrues) {
  // An evicted view realizes none of the benefit it keeps accruing, so
  // N(V) - N0 never re-admits it: it stays out while in debt.
  OneViewEngine e(MakeQuery("Q30", 120000, 160000));
  ViewInfo* v = e.v();
  ASSERT_NE(v, nullptr);
  e.Evict();
  ASSERT_FALSE(v->InPool());
  const ViewLedger ledger = v->ledger;
  const double debt = ledger.paid - ledger.earned;
  ASSERT_GT(debt, 0.0);

  constexpr int kQueries = 200;
  const PlanPtr query = MakeQuery("Q30", 120000, 160000);
  for (int i = 0; i < kQueries; ++i) {
    const QueryReport report = e.Repeat(query);
    EXPECT_TRUE(report.used_view.empty()) << "query " << i;
    EXPECT_TRUE(report.created_views.empty()) << "query " << i;
    EXPECT_EQ(report.creations_withheld_by_kind,
              (std::array<int, kCreationKindCount>{0, 1, 0}))
        << "query " << i;
    EXPECT_FALSE(v->InPool());
  }
  // The old rule, N(V) - N0 >= debt, would have re-admitted it many
  // times over.
  EXPECT_GT(v->stats.UndecayedBenefit() - ledger.n0, 10.0 * debt);
  EXPECT_EQ(v->ledger, ledger);
  const EngineTotals& totals = e.engine().totals();
  EXPECT_EQ(totals.creations_withheld_by_kind[K(CreationKind::kRecreation)],
            kQueries);
  EXPECT_EQ(totals.views_created_by_kind[K(CreationKind::kRecreation)], 0);
}

TEST(RealizedReturnGateTest, EvictedViewThatPaidBackIsRecreated) {
  OneViewEngine e(MakeQuery("Q30", 120000, 160000));
  ViewInfo* v = e.v();
  ASSERT_NE(v, nullptr);
  // Queries answered from the view credit its ledger until its earnings
  // cover what its creation cost.
  const PlanPtr query = MakeQuery("Q30", 125000, 155000);
  for (int i = 0; i < 200 && v->ledger.earned < v->ledger.paid; ++i) {
    const QueryReport report = e.Repeat(query);
    ASSERT_EQ(report.used_view, v->id) << "query " << i;
    ASSERT_TRUE(report.created_views.empty()) << "query " << i;
  }
  ASSERT_GE(v->ledger.earned, v->ledger.paid);

  e.Evict();
  ASSERT_FALSE(v->InPool());
  const QueryReport report = e.Repeat(query);
  EXPECT_EQ(report.creations_withheld_by_kind,
            (std::array<int, kCreationKindCount>{}));
  ASSERT_EQ(report.created_views, std::vector<std::string>{v->id});
  EXPECT_EQ(report.created_kinds,
            std::vector<CreationKind>{CreationKind::kRecreation});
  EXPECT_TRUE(v->InPool());
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
    EXPECT_EQ(totals.creations_withheld_by_kind,
              (std::array<int64_t, kCreationKindCount>{}));
    EXPECT_EQ(RunWorkload(options, workload, /*forget_ledgers=*/true), kept);
  }
  // DeepSea's model on the same bounded workload is withheld: the
  // comparison above can tell.
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 10e9;
  EngineTotals totals;
  const std::vector<std::string> kept =
      RunWorkload(options, workload, /*forget_ledgers=*/false, &totals);
  EXPECT_GT(totals.creations_withheld_by_kind[K(CreationKind::kRecreation)],
            0);
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
  EXPECT_EQ(totals.creations_withheld_by_kind,
            (std::array<int64_t, kCreationKindCount>{}));
  EXPECT_GT(totals.view_reads_credited, 0);
  EXPECT_EQ(RunWorkload(BaseOptions(), workload, /*forget_ledgers=*/true), kept);
}

}  // namespace
}  // namespace deepsea
