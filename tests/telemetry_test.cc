// Telemetry has one source of truth: the QueryReport records what a
// query did, and every counter is the EngineTotals fold of the reports.
// Each stream below runs once with two sinks behind a multicast:
//
//  * an eviction check — per query, report.evicted_fragments is
//    non-negative (written against QueryReport and EngineObserver
//    alone);
//  * a MetricsObserver — its fold equals engine.totals(), compared as
//    whole structs.
//
// The streams: the Fig. 9 "Horizontal" stream (refinements split and
// evict their parents), the fault soak with the merge pass on (merges
// evict both parents; rolled-back attempts count nothing), and an
// overlapping SDSS stream under a tight pool (policy evictions only).
// On the fault-free streams the fold's byte sums also match what the
// simulated FS wrote and deleted.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "exp/metrics.h"
#include "storage/fault_policy.h"
#include "workload/bigbench.h"
#include "workload/range_generator.h"
#include "workload/sdss.h"

namespace deepsea {
namespace {

/// One workload: dataset, engine options, plans, and whether the fault
/// soak's storage-fault schedule is installed.
struct Stream {
  BigBenchDataset::Options data;
  EngineOptions options;
  std::vector<PlanPtr> plans;
  bool inject_faults = false;
};

PlanPtr Build(const std::string& name, double lo, double hi) {
  auto plan = BigBenchTemplates::Build(name, lo, hi);
  EXPECT_TRUE(plan.ok()) << name;
  return plan.ok() ? *plan : nullptr;
}

/// Figure 9's "Horizontal" arm: 30 Q30 queries (1% selectivity, heavy
/// skew) centred at 20k, 40k, then 60k over item_sk, with overlapping
/// fragments off, so every refinement splits its parents.
Stream HorizontalStream() {
  Stream s;
  s.data.total_bytes = 100e9;
  s.data.sample_rows_per_fact = 256;
  s.data.sample_rows_per_dim = 64;
  s.data.seed = 7;
  s.options.benefit_cost_threshold = 0.0;
  s.options.enforce_block_lower_bound = true;
  s.options.max_fragment_fraction = 0.0;
  s.options.overlapping_fragments = false;
  for (double center : {20000.0, 40000.0, 60000.0}) {
    RangeGenerator::Config cfg;
    cfg.domain = Interval(0.0, 400000.0);
    cfg.selectivity_fraction = 0.01;
    cfg.skew = Skew::kHeavy;
    cfg.center = center;
    RangeGenerator gen(cfg, /*seed=*/static_cast<uint64_t>(center));
    for (int i = 0; i < 10; ++i) {
      const Interval r = gen.Next();
      s.plans.push_back(Build("Q30", r.lo, r.hi));
    }
  }
  return s;
}

/// FaultSoakTest's configuration: a tight pool, the merge pass on, and
/// 500 random queries against storage that injects transient and
/// permanent faults.
Stream MergeSoakStream() {
  Stream s;
  s.data.total_bytes = 80e9;
  s.data.sample_rows_per_fact = 300;
  s.data.sample_rows_per_dim = 60;
  s.data.seed = 3;
  s.options.benefit_cost_threshold = 0.05;
  s.options.pool_limit_bytes = 6e9;
  s.options.merge.enabled = true;
  s.inject_faults = true;
  Rng rng(11);
  const auto names = BigBenchTemplates::Names();
  for (int q = 0; q < 500; ++q) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const double width = rng.Uniform(2000, 60000);
    const double center = rng.Bernoulli(0.7) ? rng.Gaussian(150000, 10000)
                                             : rng.Uniform(0, 400000);
    const double lo = Clamp(center - width / 2, 0, 400000 - width);
    s.plans.push_back(Build(name, lo, lo + width));
  }
  return s;
}

/// The golden-trace SDSS workload (200 queries, DS defaults of the
/// paper experiments) under a 10 GB pool, so policy evictions happen.
Stream OverlappingStream() {
  constexpr uint64_t kSeed = 2017;
  Stream s;
  s.data.total_bytes = 100e9;
  s.data.sample_rows_per_fact = 256;
  s.data.sample_rows_per_dim = 64;
  s.data.seed = 7;
  s.data.item_sk_distribution =
      SdssTraceModel(SdssTraceModel::Config{}, kSeed).AccessDensity(420);
  s.options.benefit_cost_threshold = 0.02;
  s.options.enforce_block_lower_bound = true;
  s.options.max_fragment_fraction = 0.1;
  s.options.pool_limit_bytes = 10e9;
  SdssTraceModel sdss(SdssTraceModel::Config{}, kSeed);
  const Interval ra(-20.0, 400.0);
  const Interval item_sk(0.0, 400000.0);
  Rng rng(kSeed + 1);
  const auto names = BigBenchTemplates::Names();
  for (const Interval& r : sdss.GenerateTrace(200)) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const Interval q = SdssTraceModel::MapRange(r, ra, item_sk);
    s.plans.push_back(Build(name, q.lo, q.hi));
  }
  return s;
}

struct StreamRun {
  EngineTotals totals;
  IoLedger ledger;  ///< the pool's simulated-FS ledger after the run
};

/// Runs `stream` on a fresh single-tenant engine with `observer`
/// attached.
StreamRun RunStream(const Stream& stream, EngineObserver* observer) {
  Catalog catalog;
  EXPECT_TRUE(BigBenchDataset::Generate(stream.data, &catalog).ok());
  ScheduledFaultPolicy policy(/*seed=*/2024);
  DeepSeaEngine engine(&catalog, stream.options);
  if (stream.inject_faults) {
    FaultRule transient;
    transient.probability = 0.04;
    transient.transient = true;
    policy.AddRule(transient);
    FaultRule permanent;
    permanent.probability = 0.03;
    permanent.permanent_code = StatusCode::kResourceExhausted;
    policy.AddRule(permanent);
    engine.mutable_pool()->SetFaultPolicy(&policy);
  }
  engine.set_observer(observer);
  for (const PlanPtr& plan : stream.plans) {
    EXPECT_TRUE(engine.ProcessQuery(plan).ok());
  }
  engine.mutable_pool()->SetFaultPolicy(nullptr);
  return {engine.totals(), engine.fs().ledger()};
}

// ---------------------------------------------------------------------------
// Per-query eviction accounting

/// Checks each query's eviction count when it ends.
class EvictionCheck : public EngineObserver {
 public:
  void OnQueryEnd(const QueryReport& report) override {
    EXPECT_GE(report.evicted_fragments, 0) << "query " << report.query_index;
  }
};

// ---------------------------------------------------------------------------
// One fold: engine and MetricsObserver agree exactly

/// Runs `stream` with both sinks attached, checks the per-query
/// eviction counts and that the MetricsObserver folds to exactly the
/// engine's totals.
StreamRun ExpectOneFold(const Stream& stream) {
  EvictionCheck evictions;
  MetricsObserver metrics;
  MulticastObserver all({&evictions, &metrics});
  const StreamRun run = RunStream(stream, &all);
  const auto snap = metrics.TakeSnapshot();
  EXPECT_EQ(snap.tenants.size(), 1u);  // single-tenant engine: tenant ""
  if (snap.tenants.count("") == 1) {
    EXPECT_EQ(snap.tenants.at("").counts, run.totals);
  }
  EXPECT_EQ(run.totals.queries, static_cast<int64_t>(stream.plans.size()));
  EXPECT_EQ(run.totals.commits_sharded + run.totals.commits_exclusive,
            run.totals.queries);
  return run;
}

/// Fault-free runs write and delete exactly what the reports record.
void ExpectBytesMatchLedger(const StreamRun& run) {
  EXPECT_NEAR(run.totals.materialized_bytes, run.ledger.bytes_written,
              1e-9 * run.ledger.bytes_written);
  EXPECT_NEAR(run.totals.evicted_bytes, run.ledger.bytes_deleted,
              1e-9 * run.ledger.bytes_deleted);
}

TEST(TelemetryFoldTest, OverlappingSdssStream) {
  const StreamRun run = ExpectOneFold(OverlappingStream());
  EXPECT_GT(run.totals.fragments_evicted, 0);  // policy evictions
  EXPECT_GT(run.totals.evicted_bytes, 0.0);
  ExpectBytesMatchLedger(run);
}

TEST(TelemetryFoldTest, MergeSoakWithFaults) {
  const StreamRun run = ExpectOneFold(MergeSoakStream());
  EXPECT_GT(run.totals.fragments_merged, 0);
  EXPECT_GT(run.totals.faults, 0);
  EXPECT_GT(run.totals.degrades, 0);
  EXPECT_GE(run.totals.degrades, run.totals.queries_degraded);
  // Every exclusive commit carries a reason; the merge pass forces X.
  const size_t merge = static_cast<size_t>(ExclusiveReason::kMerge);
  EXPECT_EQ(run.totals.commits_exclusive_by_reason[merge],
            run.totals.commits_exclusive);
  EXPECT_EQ(run.totals.commits_exclusive, run.totals.queries);
}

TEST(TelemetryFoldTest, HorizontalStream) {
  const StreamRun run = ExpectOneFold(HorizontalStream());
  // The unbounded pool evicts only the parents its splits replace.
  EXPECT_GT(run.totals.fragments_evicted, 0);
  ExpectBytesMatchLedger(run);
}

}  // namespace
}  // namespace deepsea
