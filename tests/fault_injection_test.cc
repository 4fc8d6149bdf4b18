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
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/engine.h"
#include "core/view_sizing.h"
#include "exp/trace.h"
#include "storage/fault_policy.h"
#include "multitenant_harness.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

/// Re-checks the transactional invariants inside the commit section at
/// the end of every Apply and Merge stage — i.e. immediately after a
/// commit or a rollback. A fault that left the pool half-applied
/// (metadata without its file, or vice versa) is caught here, at the
/// exact boundary, not smeared over later queries. Extends
/// TraceObserver so the soak also records the fault-event telemetry
/// (exported as a CSV artifact by the CI fault-soak step).
class FaultInvariantProbe : public TraceObserver {
 public:
  FaultInvariantProbe(const DeepSeaEngine* engine, double s_max)
      : TraceObserver("fault_soak", nullptr), engine_(engine), s_max_(s_max) {}

  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override {
    TraceObserver::OnStageEnd(stage, ctx, sim_seconds, wall_seconds);
    if (stage != EngineStage::kApply && stage != EngineStage::kMerge) return;
    ++checks_;
    ASSERT_LE(engine_->PoolBytes(), s_max_ * 1.0001)
        << "at stage " << EngineStageName(stage);
    // Pool accounting must match the simulated FS exactly: a rollback
    // that restored metadata but not files (or the reverse) breaks this.
    ASSERT_NEAR(engine_->PoolBytes(), engine_->fs().TotalBytes("pool/"),
                1.0 + engine_->PoolBytes() * 1e-9)
        << "at stage " << EngineStageName(stage);
    // Every materialized piece must be backed by its FS file.
    for (const ViewInfo* v : engine_->views().AllViews()) {
      if (v->whole_materialized) {
        ASSERT_TRUE(engine_->fs().Exists(
            StrFormat("pool/%s/full", v->id.c_str())))
            << v->id;
      }
      for (const auto& [attr, part] : v->partitions) {
        for (const FragmentStats& f : part.fragments) {
          if (!f.materialized) continue;
          ASSERT_TRUE(engine_->fs().Exists(FragmentPath(*v, attr, f.interval)))
              << v->id << " " << attr << " " << f.interval.ToString();
        }
      }
    }
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

/// Number of `event` rows (fault|retry|degrade) in a FaultEventsCsv():
/// the observer appends one per OnFault / OnRetry / OnDegrade call.
int64_t CountFaultEvents(const std::string& csv, const std::string& event) {
  int64_t n = 0;
  for (const std::string& row : Split(csv, '\n')) {
    const std::vector<std::string> cells = Split(row, ',');
    if (cells.size() > 1 && cells[1] == event) ++n;
  }
  return n;
}

// ---------------------------------------------------------------------
// Seeded soak: 500 queries against storage injecting a mix of transient
// and permanent faults at >= 5% of guarded operations. Every query must
// be answered, and the invariants must hold at every stage boundary.
TEST(FaultSoakTest, SeededSoakSurvivesWithInvariantsIntact) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts = SoakOptions();
  opts.fault.retry_backoff_seconds = 1.0;
  DeepSeaEngine engine(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/2024);
  FaultRule transient;
  transient.probability = 0.04;
  transient.transient = true;
  policy.AddRule(transient);
  FaultRule permanent;
  permanent.probability = 0.03;
  permanent.permanent_code = StatusCode::kResourceExhausted;
  policy.AddRule(permanent);
  engine.mutable_pool()->SetFaultPolicy(&policy);

  FaultInvariantProbe probe(&engine, opts.pool_limit_bytes);
  engine.set_observer(&probe);

  const auto plans = RandomWorkload(500, /*seed=*/11);
  for (size_t q = 0; q < plans.size(); ++q) {
    auto report = engine.ProcessQuery(plans[q]);
    ASSERT_TRUE(report.ok()) << "query " << q << ": "
                             << report.status().ToString();
    if (report->degraded) {
      EXPECT_GE(report->fault_count, 1) << "query " << q;
      EXPECT_FALSE(report->fault_message.empty()) << "query " << q;
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
  // The fault hooks fired exactly once per fault, retry and degrade
  // the reports counted.
  const std::string csv = probe.FaultEventsCsv();
  EXPECT_EQ(CountFaultEvents(csv, "fault"), engine.totals().faults);
  EXPECT_EQ(CountFaultEvents(csv, "retry"), engine.totals().retries);
  EXPECT_EQ(CountFaultEvents(csv, "degrade"), engine.totals().degrades);
  EXPECT_EQ(probe.totals(), engine.totals());

  // CI's fault-soak step sets DEEPSEA_FAULT_CSV to archive the
  // injected-fault schedule as a build artifact.
  if (const char* csv_path = std::getenv("DEEPSEA_FAULT_CSV")) {
    std::FILE* f = std::fopen(csv_path, "w");
    ASSERT_NE(f, nullptr) << csv_path;
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  }
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
// retry succeeds; the query is charged the configured backoff and is
// NOT degraded.
TEST(FaultRecoveryTest, TransientFaultRetriesAndSucceeds) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.0;  // first query materializes
  opts.fault.max_retries = 2;
  opts.fault.retry_backoff_seconds = 7.5;
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

  TraceObserver obs("fault", nullptr);
  engine.set_observer(&obs);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());
  auto report = engine.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->fault_count, 1);
  EXPECT_EQ(report->retry_count, 1);
  EXPECT_FALSE(report->degraded);
  EXPECT_FALSE(report->created_views.empty());
  EXPECT_GE(report->materialize_seconds, 7.5);  // includes the backoff
  EXPECT_GT(engine.PoolBytes(), 0.0);
  const std::string csv = obs.FaultEventsCsv();
  EXPECT_EQ(CountFaultEvents(csv, "fault"), 1);
  EXPECT_EQ(CountFaultEvents(csv, "retry"), 1);
  EXPECT_EQ(CountFaultEvents(csv, "degrade"), 0);
  EXPECT_EQ(obs.totals(), engine.totals());

  // The fault-event CSV names the failing stage and the injected code.
  EXPECT_NE(csv.find("fault,apply"), std::string::npos) << csv;
  EXPECT_NE(csv.find("Unavailable"), std::string::npos) << csv;
  EXPECT_NE(csv.find("retry,apply"), std::string::npos) << csv;
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

  TraceObserver obs("fault", nullptr);
  engine.set_observer(&obs);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());
  auto report = engine.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->degraded);
  EXPECT_EQ(report->fault_count, 1);   // permanent: no retries
  EXPECT_EQ(report->retry_count, 0);
  EXPECT_TRUE(report->created_views.empty());
  EXPECT_FALSE(report->fault_message.empty());
  EXPECT_GT(report->base_seconds, 0.0);  // the query was still answered

  // The decision's earlier writes were rolled back: nothing in the pool,
  // accounting consistent, restores recorded.
  EXPECT_EQ(engine.PoolBytes(), 0.0);
  EXPECT_TRUE(engine.fs().List("pool/").empty());
  EXPECT_GE(engine.fs().ledger().rollback_restores, 2);
  EXPECT_GE(engine.fs().ledger().failed_puts, 1);
  EXPECT_EQ(CountFaultEvents(obs.FaultEventsCsv(), "degrade"), 1);
  EXPECT_EQ(obs.totals(), engine.totals());
  EXPECT_EQ(engine.totals().queries_degraded, 1);
}

// ---------------------------------------------------------------------
// Quarantine: a view whose decisions keep failing permanently stops
// being proposed after quarantine_threshold faults, and is re-admitted
// once the cooldown expires — by which time the rule's fault budget is
// exhausted (storage "recovered") and materialization succeeds. The
// rule is scoped to one view's pool paths so the fault attribution
// cannot wander between views.
TEST(FaultRecoveryTest, QuarantineThenCooldownReadmission) {
  Catalog catalog = MakeCatalog();
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.0;
  opts.fault.max_retries = 0;
  opts.fault.quarantine_threshold = 2;
  opts.fault.quarantine_cooldown_commits = 3;
  DeepSeaEngine engine(&catalog, opts);

  ScheduledFaultPolicy policy(/*seed=*/9);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.path_substring = "pool/v2/";  // only v2's writes fail
  rule.every_nth = 1;
  rule.max_failures = 2;  // budget exhausts exactly at the threshold
  rule.permanent_code = StatusCode::kInternal;
  policy.AddRule(rule);
  engine.mutable_pool()->SetFaultPolicy(&policy);

  auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
  ASSERT_TRUE(plan.ok());

  // Phase 1: two queries, two permanent faults on v2 -> it hits the
  // threshold and is quarantined. Each failing decision rolls back as a
  // whole, so nothing else lands in the pool either.
  for (int q = 0; q < 2; ++q) {
    auto report = engine.ProcessQuery(*plan);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->degraded) << "query " << q;
    EXPECT_EQ(report->fault_view, "v2") << "query " << q;
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
