// Fault-injection soak and recovery tests: with a ScheduledFaultPolicy
// installed under the engine, materialization decisions fail mid-flight
// and the system must (a) never crash or wedge a query, (b) keep the
// structural pool invariants at every commit boundary (the transaction
// rollback restores pool metadata, FS files, and statistics together),
// (c) retry transient faults and degrade gracefully on permanent ones,
// (d) quarantine repeatedly failing views and re-admit them after the
// cooldown, and (e) stay bit-identical to a fault-free run when the
// machinery is installed but never fires.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "core/view_sizing.h"
#include "exec/executor.h"
#include "plan/pushdown.h"
#include "storage/fault_policy.h"
#include "multitenant_harness.h"
#include "part_mass.h"
#include "pool_index.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

/// Re-checks the transactional invariants inside the commit section at
/// the end of every Apply and Merge stage — i.e. immediately after a
/// commit or a rollback. A fault that left the pool half-applied
/// (metadata without its file, or vice versa) is caught here, at the
/// exact boundary, not smeared over later queries.
class FaultInvariantProbe : public EngineObserver {
 public:
  FaultInvariantProbe(const DeepSeaEngine* engine, double s_max)
      : engine_(engine), s_max_(s_max) {}

  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override {
    (void)ctx;
    (void)sim_seconds;
    (void)wall_seconds;
    if (stage != EngineStage::kApply && stage != EngineStage::kMerge) return;
    ++checks_;
    ASSERT_LE(engine_->PoolBytes(), s_max_ * 1.0001)
        << "at stage " << EngineStageName(stage);
    // Pool accounting must match the simulated FS exactly: a rollback
    // that restored metadata but not files (or the reverse) breaks this.
    ASSERT_NEAR(engine_->PoolBytes(), engine_->fs().TotalBytes("pool/"),
                1.0 + engine_->PoolBytes() * 1e-9)
        << "at stage " << EngineStageName(stage);
    // A rollback must restore the pool-content index with the fragment
    // state it indexes.
    ASSERT_TRUE(PoolIndexMatchesDefinition(engine_->views()))
        << "at stage " << EngineStageName(stage);
    // ...and every partition's interval index with its fragment list.
    ASSERT_TRUE(FragmentIndexMatchesScan(engine_->views()))
        << "at stage " << EngineStageName(stage);
    // ...and the part masses with the hit lists and fragments they sum.
    ASSERT_TRUE(PartMassMatchesRebuild(engine_->pool()))
        << "at stage " << EngineStageName(stage);
    // ...and every hit list in time order, merge splices included.
    ASSERT_TRUE(HitListsInTimeOrder(engine_->pool()))
        << "at stage " << EngineStageName(stage);
    // The pool files are exactly the materialized pieces': every piece
    // has its file, and no file outlives its piece.
    ASSERT_TRUE(PoolFilesMatchPieces(engine_->views(), engine_->fs()))
        << "at stage " << EngineStageName(stage);
  }

  int64_t checks() const { return checks_; }

 private:
  const DeepSeaEngine* engine_;
  double s_max_;
  int64_t checks_ = 0;
};

EngineOptions SoakOptions() {
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  opts.pool_limit_bytes = 6e9;  // tight: forces evictions
  opts.merge.enabled = true;    // exercise the merge-pass txn too
  return opts;
}

Catalog MakeCatalog() {
  BigBenchDataset::Options data;
  data.total_bytes = 80e9;
  data.sample_rows_per_fact = 300;
  data.sample_rows_per_dim = 60;
  data.seed = 3;
  Catalog catalog;
  EXPECT_TRUE(BigBenchDataset::Generate(data, &catalog).ok());
  return catalog;
}

/// The invariants-test workload shape: random template, random range.
std::vector<PlanPtr> RandomWorkload(int n, uint64_t seed) {
  Rng rng(seed);
  const auto names = BigBenchTemplates::Names();
  std::vector<PlanPtr> out;
  out.reserve(static_cast<size_t>(n));
  for (int q = 0; q < n; ++q) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const double width = rng.Uniform(2000, 60000);
    const double center = rng.Bernoulli(0.7) ? rng.Gaussian(150000, 10000)
                                             : rng.Uniform(0, 400000);
    const double lo = Clamp(center - width / 2, 0, 400000 - width);
    auto plan = BigBenchTemplates::Build(name, lo, lo + width);
    EXPECT_TRUE(plan.ok()) << name;
    out.push_back(*plan);
  }
  return out;
}

/// The soak's fault mix: transient faults on 4% and permanent ones on 3%
/// of guarded storage operations.
void AddSoakFaultRules(ScheduledFaultPolicy* policy) {
  FaultRule transient;
  transient.probability = 0.04;
  transient.transient = true;
  policy->AddRule(transient);
  FaultRule permanent;
  permanent.probability = 0.03;
  permanent.permanent_code = StatusCode::kResourceExhausted;
  policy->AddRule(permanent);
}

/// Rows rendered one string each, as a multiset: result order is free.
std::multiset<std::string> RowSet(const std::vector<Row>& rows) {
  std::multiset<std::string> out;
  for (const Row& row : rows) {
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    out.insert(line);
  }
  return out;
}

/// The status code a report's fault_message names (Status::ToString
/// spells the code first), or "" for a fault-free report.
std::string FaultCode(const QueryReport& report) {
  return report.fault_message.substr(0, report.fault_message.find(':'));
}

/// The report is the only record of a query's faults. Only a transient
/// fault is retried, so each of the query's stages (Apply, then the merge
/// pass) ran a sequence of fault-then-retry pairs ending either in
/// success or in one more fault and a degrade: the counts alone
/// reproduce the sequence.
void ExpectFaultCountsFormASequence(const QueryReport& report, size_t q) {
  EXPECT_EQ(report.fault_count, report.retry_count + report.degrade_count)
      << "query " << q;
  EXPECT_LE(report.degrade_count, 2) << "query " << q;  // Apply + merge
  EXPECT_EQ(report.degraded, report.degrade_count > 0) << "query " << q;
  EXPECT_EQ(report.fault_message.empty(), report.fault_count == 0)
      << "query " << q;
  if (report.fault_count == 0) {
    EXPECT_TRUE(report.fault_view.empty()) << "query " << q;
  }
}

// ---------------------------------------------------------------------
// Seeded soak: 500 queries against storage injecting a mix of transient
// and permanent faults at >= 5% of guarded operations. Every query must
// be answered, and the invariants must hold at every stage boundary.
TEST(FaultSoakTest, SeededSoakSurvivesWithInvariantsIntact) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts = SoakOptions();
  DeepSeaEngine engine(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/2024);
  AddSoakFaultRules(&policy);
  engine.mutable_pool()->SetFaultPolicy(&policy);

  FaultInvariantProbe probe(&engine, opts.pool_limit_bytes);
  engine.set_observer(&probe);

  // CI's fault-soak step sets DEEPSEA_FAULT_CSV to archive one row per
  // faulted query, read from its report.
  std::string csv = "query,faults,retries,degrades,degraded,view,code\n";
  const auto plans = RandomWorkload(500, /*seed=*/11);
  for (size_t q = 0; q < plans.size(); ++q) {
    auto report = engine.ProcessQuery(plans[q]);
    ASSERT_TRUE(report.ok()) << "query " << q << ": "
                             << report.status().ToString();
    ExpectFaultCountsFormASequence(*report, q);
    if (report->fault_count > 0) {
      csv += StrFormat("%lld,%d,%d,%d,%d,%s,%s\n",
                       static_cast<long long>(report->query_index),
                       report->fault_count, report->retry_count,
                       report->degrade_count, report->degraded ? 1 : 0,
                       report->fault_view.c_str(), FaultCode(*report).c_str());
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "query " << q;
  }

  // The schedule must actually have stressed the system.
  EXPECT_GE(policy.ops_seen(), 100);
  EXPECT_GE(policy.FaultRate(), 0.05) << policy.faults_injected() << "/"
                                      << policy.ops_seen();
  EXPECT_GE(probe.checks(), 500);
  EXPECT_GT(engine.totals().faults, 0);
  EXPECT_GT(engine.totals().queries_degraded, 0);
  // Transient-only failures get retried; at least some retries must have
  // rescued a decision (faults > degraded queries alone would imply).
  EXPECT_GT(engine.totals().retries, 0);
  // Despite the fault rate the pool still adapted.
  EXPECT_GT(engine.PoolBytes(), 0.0);
  EXPECT_GT(engine.totals().queries_answered_from_views, 0);
  // Every injected fault failed one attempt, and the reports count
  // every failed attempt.
  EXPECT_EQ(engine.totals().faults, policy.faults_injected());

  if (const char* csv_path = std::getenv("DEEPSEA_FAULT_CSV")) {
    std::FILE* f = std::fopen(csv_path, "w");
    ASSERT_NE(f, nullptr) << csv_path;
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  }
}

// ---------------------------------------------------------------------
// A fault may degrade a decision but never an answer: the soak's queries
// and fault mix with physical execution on, every answer compared with
// the executor's ground truth on the base tables.
TEST(FaultSoakTest, AnswersUnderFaultsEqualGroundTruth) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts = SoakOptions();
  opts.physical_execution = true;
  DeepSeaEngine engine(&catalog, opts);
  ScheduledFaultPolicy policy(/*seed=*/2024);
  AddSoakFaultRules(&policy);
  engine.mutable_pool()->SetFaultPolicy(&policy);
  Executor reference(&catalog);

  const auto plans = RandomWorkload(500, /*seed=*/11);
  for (size_t q = 0; q < plans.size(); ++q) {
    auto report = engine.ProcessQuery(plans[q]);
    ASSERT_TRUE(report.ok()) << "query " << q << ": "
                             << report.status().ToString();
    auto truth = reference.Execute(PushDownSelections(plans[q], catalog));
    ASSERT_TRUE(truth.ok()) << "query " << q;
    EXPECT_EQ(RowSet(report->physical.rows), RowSet(truth->rows))
        << "answer differs from ground truth at query " << q;
  }
  // The faults must have fired, degraded decisions, and left answers
  // that were read from views to compare.
  EXPECT_GT(engine.totals().faults, 0);
  EXPECT_GT(engine.totals().queries_degraded, 0);
  EXPECT_GT(engine.totals().queries_answered_from_views, 0);
  RecordProperty("faults", std::to_string(engine.totals().faults));
  RecordProperty("degraded", std::to_string(engine.totals().queries_degraded));
  RecordProperty("from_views",
                 std::to_string(engine.totals().queries_answered_from_views));
}

// ---------------------------------------------------------------------
// With the fault machinery installed but silent (a policy with no
// rules), every report and the final pool state are bit-identical to a
// run with no policy at all: the seam is zero-cost when unused.
TEST(FaultSoakTest, SilentPolicyIsBitIdenticalToNoPolicy) {
  const auto plans = RandomWorkload(60, /*seed=*/5);

  auto run = [&](bool install_silent_policy) {
    Catalog catalog = MakeCatalog();
    EngineOptions opts = SoakOptions();
    DeepSeaEngine engine(&catalog, opts);
    ScheduledFaultPolicy silent(/*seed=*/1);  // no rules: never fires
    if (install_silent_policy) {
      engine.mutable_pool()->SetFaultPolicy(&silent);
    }
    std::vector<std::string> reports;
    for (const PlanPtr& plan : plans) {
      auto report = engine.ProcessQuery(plan);
      EXPECT_TRUE(report.ok());
      if (report.ok()) reports.push_back(mt::FormatTenantReport(*report));
    }
    engine.mutable_pool()->SetFaultPolicy(nullptr);
    reports.push_back(mt::PoolFingerprint(engine.pool()));
    return reports;
  };

  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------
// A transient fault is retried against the rolled-back pool and the
// retry succeeds; the query is NOT degraded.
TEST(FaultRecoveryTest, TransientFaultRetriesAndSucceeds) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.0;  // first query materializes
  DeepSeaEngine engine(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/9);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.path_substring = "pool/";
  rule.every_nth = 1;
  rule.max_failures = 1;  // exactly the first pool write fails
  rule.transient = true;
  policy.AddRule(rule);
  engine.mutable_pool()->SetFaultPolicy(&policy);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());
  auto report = engine.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // One fault, one retry, no degrade: the sequence fault, retry, success.
  EXPECT_EQ(report->fault_count, 1);
  EXPECT_EQ(report->retry_count, 1);
  EXPECT_EQ(report->degrade_count, 0);
  EXPECT_FALSE(report->degraded);
  EXPECT_FALSE(report->created_views.empty());
  EXPECT_GT(engine.PoolBytes(), 0.0);
  EXPECT_EQ(engine.totals().faults, 1);
  EXPECT_EQ(engine.totals().retries, 1);
  EXPECT_EQ(engine.totals().degrades, 0);

  // The report alone names the failing Apply action's view, which the
  // retry then created, and the injected code.
  EXPECT_EQ(FaultCode(*report), "Unavailable") << report->fault_message;
  EXPECT_NE(std::find(report->created_views.begin(),
                      report->created_views.end(), report->fault_view),
            report->created_views.end())
      << "fault_view '" << report->fault_view << "'";
}

// ---------------------------------------------------------------------
// A permanent fault mid-decision rolls the whole decision back (files
// written earlier in the same decision are restored) and degrades the
// query: it is still answered, but the pool keeps its prior contents.
TEST(FaultRecoveryTest, PermanentFaultRollsBackAndDegrades) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.0;
  DeepSeaEngine engine(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/9);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.path_substring = "pool/";
  rule.every_nth = 1;
  rule.after_count = 2;  // two pool writes land, then everything fails
  rule.permanent_code = StatusCode::kResourceExhausted;
  policy.AddRule(rule);
  engine.mutable_pool()->SetFaultPolicy(&policy);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());
  auto report = engine.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The sequence fault, degrade: a permanent fault is not retried.
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->fault_count, 1);
  EXPECT_EQ(report->retry_count, 0);
  EXPECT_EQ(report->degrade_count, 1);
  EXPECT_TRUE(report->created_views.empty());
  EXPECT_EQ(FaultCode(*report), "ResourceExhausted") << report->fault_message;
  EXPECT_FALSE(report->fault_view.empty());
  EXPECT_GT(report->base_seconds, 0.0);  // the query was still answered

  // The decision's earlier writes were rolled back: nothing in the pool,
  // accounting consistent, restores recorded.
  EXPECT_EQ(engine.PoolBytes(), 0.0);
  EXPECT_TRUE(engine.fs().List("pool/").empty());
  EXPECT_GE(engine.fs().ledger().rollback_restores, 2);
  EXPECT_GE(engine.fs().ledger().failed_puts, 1);
  EXPECT_EQ(engine.totals().degrades, 1);
  EXPECT_EQ(engine.totals().queries_degraded, 1);
}

// ---------------------------------------------------------------------
// A merge-pass fault is attributed to no view: the report names its
// code and leaves fault_view empty. The faulted query is the first one
// of a fault-free run whose merge pass merged; a second run replays up
// to it and fails every pool write after the ones its Apply makes.
TEST(FaultRecoveryTest, MergePassFaultLeavesFaultViewEmpty) {
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.02;
  opts.enforce_block_lower_bound = false;
  opts.merge.enabled = true;
  // Both ranges hit the left fragment, the wide one the right too:
  // co-access 0.5 (as tests/merge_test.cc's engine merge test).
  opts.merge.min_co_access = 0.45;
  opts.merge.max_merged_fraction = 0.5;
  opts.merge.min_hits = 2;
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 12; ++i) {
    for (double hi : {180000.0, 220000.0}) {
      auto plan = BigBenchTemplates::Build("Q30", 100000, hi);
      ASSERT_TRUE(plan.ok());
      plans.push_back(*plan);
    }
  }
  size_t target = plans.size();
  int apply_puts = 0;  // the target's Apply writes one file per fragment
  {
    Catalog catalog = MakeCatalog();
    DeepSeaEngine engine(&catalog, opts);
    for (size_t q = 0; q < plans.size() && target == plans.size(); ++q) {
      auto report = engine.ProcessQuery(plans[q]);
      ASSERT_TRUE(report.ok());
      if (report->merged_fragments > 0 && report->created_views.empty()) {
        target = q;
        apply_puts = report->created_fragments;
      }
    }
  }
  ASSERT_LT(target, plans.size()) << "no query merged";

  Catalog catalog = MakeCatalog();
  DeepSeaEngine engine(&catalog, opts);
  for (size_t q = 0; q < target; ++q) {
    ASSERT_TRUE(engine.ProcessQuery(plans[q]).ok());
  }
  ScheduledFaultPolicy policy(/*seed=*/9);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.path_substring = "pool/";
  rule.every_nth = 1;
  rule.after_count = apply_puts;
  rule.permanent_code = StatusCode::kInternal;
  policy.AddRule(rule);
  engine.mutable_pool()->SetFaultPolicy(&policy);
  auto report = engine.ProcessQuery(plans[target]);
  engine.mutable_pool()->SetFaultPolicy(nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(policy.faults_injected(), 1);
  EXPECT_EQ(report->fault_count, 1);
  EXPECT_EQ(report->retry_count, 0);
  EXPECT_EQ(report->degrade_count, 1);
  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->created_fragments, apply_puts);  // Apply committed
  EXPECT_EQ(report->merged_fragments, 0);  // the merge rolled back
  EXPECT_EQ(FaultCode(*report), "Internal") << report->fault_message;
  EXPECT_TRUE(report->fault_view.empty()) << report->fault_view;
}

// ---------------------------------------------------------------------
// A decision whose first action refines a pooled partition with a
// fragment narrower than any it tracks (a finer part grid, so the part
// mass is rebuilt inside the transaction) and whose second action
// faults. The rollback must restore the mass with the fragment list it
// sums over.

TEST(FaultRecoveryTest, RollbackRestoresThePartMass) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.0;
  DeepSeaEngine engine(&catalog, opts);
  PlanPtr last;
  for (int i = 0; i < 6; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000 + 5000 * i,
                                         180000 + 5000 * i);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
    last = *plan;
  }
  PoolManager* pool = engine.mutable_pool();
  ViewInfo* view = nullptr;
  PartitionState* part = nullptr;
  {
    CommitGuard commit = pool->BeginCommit();
    for (ViewInfo* v : pool->stat(commit)->PoolViews()) {
      for (auto& [attr, p] : v->partitions) {
        if (part == nullptr && p.AnyMaterialized()) {
          view = v;
          part = &p;
        }
      }
    }
  }
  ASSERT_NE(part, nullptr);
  ASSERT_TRUE(part->mass.kept());
  Interval host;
  for (const FragmentStats& f : part->fragments()) {
    if (f.materialized) host = f.interval;
  }
  const double w = host.Width();
  const Interval narrow(host.lo + 0.400 * w, host.lo + 0.401 * w);
  const Interval doomed(host.lo + 0.6 * w, host.lo + 0.7 * w);
  PartitionState refined = *part;
  refined.Track(narrow, 0.0);
  ASSERT_NE(MleFragmentModel::GridOf(refined).num_parts,
            part->mass.grid().num_parts);

  ScheduledFaultPolicy policy(/*seed=*/9);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.path_substring = FragmentPath(*view, part->attr, doomed);
  rule.every_nth = 1;
  policy.AddRule(rule);
  pool->SetFaultPolicy(&policy);

  SelectionDecision decision;
  SelectionAction action;
  action.kind = SelectionAction::Kind::kMaterializeRefinement;
  action.view = view;
  action.part = part;
  action.interval = narrow;
  decision.actions.push_back(action);
  action.interval = doomed;
  decision.actions.push_back(action);
  const PartMass before = part->mass;
  {
    CommitGuard commit = pool->BeginCommit();
    QueryContext ctx(last, pool->clock());
    QueryReport report;
    EXPECT_FALSE(pool->Apply(decision, ctx, &report).ok());
    EXPECT_EQ(policy.faults_injected(), 1);
    EXPECT_TRUE(part->mass == before);
    EXPECT_TRUE(PartMassMatchesRebuild(*pool));
  }
  pool->SetFaultPolicy(nullptr);
}

// ---------------------------------------------------------------------
// Quarantine: a view whose decisions keep failing permanently stops
// being proposed after 3 faults (the quarantine threshold), and is
// re-admitted once the 50-commit cooldown expires — by which time the
// rule's fault budget is exhausted (storage "recovered") and
// materialization succeeds. The rule is scoped to one view's pool paths
// so the fault attribution cannot wander between views.
TEST(FaultRecoveryTest, QuarantineThenCooldownReadmission) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.0;
  DeepSeaEngine engine(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/9);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.path_substring = "pool/v2/";  // only v2's writes fail
  rule.every_nth = 1;
  rule.max_failures = 3;  // budget exhausts exactly at the threshold
  rule.permanent_code = StatusCode::kInternal;
  policy.AddRule(rule);
  engine.mutable_pool()->SetFaultPolicy(&policy);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());

  // Phase 1: three queries, three permanent faults on v2 -> it hits the
  // threshold and is quarantined. Each failing decision rolls back as a
  // whole, so nothing else lands in the pool either.
  for (int q = 0; q < 3; ++q) {
    auto report = engine.ProcessQuery(*plan);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->degraded) << "query " << q;
    EXPECT_EQ(report->fault_view, "v2") << "query " << q;
    EXPECT_EQ(FaultCode(*report), "Internal") << "query " << q;
  }
  const ViewInfo* quarantined = engine.views().Get("v2");
  ASSERT_NE(quarantined, nullptr);
  EXPECT_TRUE(quarantined->Quarantined(engine.now()));
  EXPECT_EQ(engine.PoolBytes(), 0.0);

  // Phase 2: during the cooldown v2 is not proposed, so decisions no
  // longer touch its (faulty) paths and the others materialize — the
  // absence of v2 from created_views while the pool fills is what
  // proves the skip.
  const int64_t faults_at_quarantine = engine.totals().faults;
  while (quarantined->Quarantined(engine.now())) {
    auto cooldown_report = engine.ProcessQuery(*plan);
    ASSERT_TRUE(cooldown_report.ok());
    EXPECT_EQ(cooldown_report->fault_count, 0);
    for (const std::string& id : cooldown_report->created_views) {
      EXPECT_NE(id, "v2") << "quarantined view was materialized";
    }
  }
  EXPECT_EQ(engine.totals().faults, faults_at_quarantine);
  EXPECT_GT(engine.PoolBytes(), 0.0);  // the healthy views did land
  EXPECT_FALSE(quarantined->InPool());

  // Empty the pool so the next query re-proposes every view: with the
  // pool serving the query, a subsumed candidate would never be
  // re-offered and re-admission would be unobservable.
  {
    CommitGuard commit = engine.mutable_pool()->BeginCommit();
    QueryReport report;  // direct evictions outside any query
    for (ViewInfo* v : engine.mutable_pool()->stat(commit)->AllViews()) {
      auto evicted = engine.mutable_pool()->EvictWholeView(v, &report);
      ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
    }
  }
  ASSERT_EQ(engine.PoolBytes(), 0.0);

  // Phase 3: cooldown expired, v2 is proposable again and its storage
  // is healthy (rule budget exhausted) -> it finally materializes.
  auto report = engine.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->degraded);
  EXPECT_EQ(report->fault_count, 0);
  EXPECT_FALSE(quarantined->Quarantined(engine.now()));
  EXPECT_NE(std::find(report->created_views.begin(),
                      report->created_views.end(), "v2"),
            report->created_views.end())
      << "re-admitted view was not re-proposed";
  EXPECT_TRUE(quarantined->InPool());
}

// ---------------------------------------------------------------------
// Multi-tenant determinism under faults: the injected schedule is a
// function of the guarded-operation sequence, which is a function of
// the commit order — so a threaded run gated to a schedule and its
// single-threaded replay see identical faults and end in bit-identical
// pool states.
TEST(FaultMultiTenantTest, ThreadedAndReplayAgreeUnderFaults) {
  const int kTenants = 3;
  const int kQueries = 18;
  std::vector<std::string> tenants;
  std::vector<std::vector<PlanPtr>> plans;
  std::vector<int> queries_per_tenant;
  for (int t = 0; t < kTenants; ++t) {
    tenants.push_back("tenant" + std::to_string(t));
    plans.push_back(mt::BuildPlans(
        mt::SdssTenantWorkload(kQueries, /*seed=*/100 + t)));
    queries_per_tenant.push_back(kQueries);
  }
  const auto schedule = mt::ShuffledSchedule(queries_per_tenant, /*seed=*/77);

  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  opts.pool_limit_bytes = 6e9;

  auto run = [&](bool threaded) {
    Catalog catalog = MakeCatalog();
    ScheduledFaultPolicy policy(/*seed=*/31337);
    FaultRule transient;
    transient.probability = 0.05;
    transient.transient = true;
    policy.AddRule(transient);
    FaultRule permanent;
    permanent.probability = 0.02;
    policy.AddRule(permanent);
    auto result = mt::RunScheduled(
        &catalog, opts, tenants, plans, schedule, threaded,
        [&](PoolManager* pool) { pool->SetFaultPolicy(&policy); });
    EXPECT_GT(policy.faults_injected(), 0);
    return result;
  };

  const auto threaded = run(true);
  const auto replay = run(false);
  EXPECT_EQ(threaded.fingerprint, replay.fingerprint);
  ASSERT_EQ(threaded.reports.size(), replay.reports.size());
  for (size_t t = 0; t < threaded.reports.size(); ++t) {
    EXPECT_EQ(threaded.reports[t], replay.reports[t]) << "tenant " << t;
  }
}

}  // namespace
}  // namespace deepsea
