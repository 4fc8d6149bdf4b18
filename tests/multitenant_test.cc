// Concurrency tests for multi-tenant engines sharing one PoolManager.
//
// The deterministic half drives N tenant engines through a
// schedule-controlled turnstile (tests/multitenant_harness.h) and
// asserts that the pool's final state is a function of the commit order
// alone: a threaded run pinned to a schedule is bit-identical to a
// single-threaded replay of the same schedule, and replaying a schedule
// twice reproduces the same fingerprint. The nondeterministic half is a
// free-running std::thread stress run (no turnstile) whose assertions
// are order-independent — it exists chiefly as the ThreadSanitizer
// target for the commit-lock discipline.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "multitenant_harness.h"
#include "part_mass.h"
#include "pool_index.h"

#include "core/engine.h"
#include "core/shared_pool.h"
#include "core/view_sizing.h"
#include "exp/metrics.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

// The golden-trace dataset: 100GB BigBench-like tables with item_sk
// drawn from the SDSS access density.
BigBenchDataset::Options DataOptions() {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  SdssTraceModel sdss(SdssTraceModel::Config{}, 2017);
  o.item_sk_distribution = sdss.AccessDensity(420);
  return o;
}

EngineOptions BaseOptions() {
  EngineOptions o;
  o.strategy = StrategyKind::kDeepSea;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  return o;
}

std::vector<std::vector<PlanPtr>> TenantPlans(const std::vector<uint64_t>& seeds,
                                              int queries_each) {
  std::vector<std::vector<PlanPtr>> plans;
  plans.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    plans.push_back(mt::BuildPlans(mt::SdssTenantWorkload(queries_each, seed)));
  }
  return plans;
}

// --- deterministic interleaver ---

TEST(MultiTenantScheduleTest, ThreadedTurnstileMatchesSequentialReplay) {
  const std::vector<std::string> tenants = {"alice", "bob", "carol"};
  const auto plans = TenantPlans({101, 202, 303}, /*queries_each=*/40);
  const std::vector<int> per_tenant(3, 40);

  for (uint64_t schedule_seed : {11u, 47u}) {
    const std::vector<int> schedule =
        mt::ShuffledSchedule(per_tenant, schedule_seed);

    Catalog seq_catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &seq_catalog).ok());
    const mt::ScheduledRunResult seq = mt::RunScheduled(
        &seq_catalog, BaseOptions(), tenants, plans, schedule, /*threaded=*/false);

    Catalog thr_catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &thr_catalog).ok());
    const mt::ScheduledRunResult thr = mt::RunScheduled(
        &thr_catalog, BaseOptions(), tenants, plans, schedule, /*threaded=*/true);

    // Same commit order => same pool state, bit for bit, no matter
    // whether the commits came from one thread or three.
    EXPECT_EQ(seq.fingerprint, thr.fingerprint)
        << "schedule seed " << schedule_seed;
    ASSERT_EQ(seq.reports.size(), thr.reports.size());
    for (size_t t = 0; t < seq.reports.size(); ++t) {
      ASSERT_EQ(seq.reports[t].size(), thr.reports[t].size()) << tenants[t];
      for (size_t i = 0; i < seq.reports[t].size(); ++i) {
        EXPECT_EQ(seq.reports[t][i], thr.reports[t][i])
            << tenants[t] << " query " << i << " (schedule seed "
            << schedule_seed << ")";
      }
    }
  }
}

// Schedule fuzz: N seeds × M schedule families. Every seeded random
// interleaving, run threaded through the turnstile over the sharded
// commit locks, must reproduce the sequential replay of the same
// commit order bit for bit — per-query reports included. This is the
// property that pins the sharded commit path: read-set validation and
// per-view shard locks may reorder nothing observable.
TEST(MultiTenantScheduleFuzzTest, SeededRandomSchedulesMatchSequentialReplay) {
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};
  const auto plans = TenantPlans({811, 822, 833, 844}, /*queries_each=*/15);
  const std::vector<int> per_tenant(4, 15);

  for (uint64_t seed : {3u, 17u, 29u}) {
    for (int family = 0; family < 2; ++family) {
      const std::vector<int> schedule =
          family == 0 ? mt::RandomSchedule(per_tenant, seed)
                      : mt::ShuffledSchedule(per_tenant, seed);

      Catalog seq_catalog;
      ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &seq_catalog).ok());
      const mt::ScheduledRunResult seq =
          mt::RunScheduled(&seq_catalog, BaseOptions(), tenants, plans,
                           schedule, /*threaded=*/false);

      Catalog thr_catalog;
      ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &thr_catalog).ok());
      const mt::ScheduledRunResult thr =
          mt::RunScheduled(&thr_catalog, BaseOptions(), tenants, plans,
                           schedule, /*threaded=*/true);

      EXPECT_EQ(seq.fingerprint, thr.fingerprint)
          << "seed " << seed << " family " << family;
      ASSERT_EQ(seq.reports.size(), thr.reports.size());
      for (size_t t = 0; t < seq.reports.size(); ++t) {
        ASSERT_EQ(seq.reports[t].size(), thr.reports[t].size())
            << tenants[t] << " seed " << seed;
        for (size_t i = 0; i < seq.reports[t].size(); ++i) {
          EXPECT_EQ(seq.reports[t][i], thr.reports[t][i])
              << tenants[t] << " query " << i << " seed " << seed;
        }
      }
    }
  }
}

TEST(MultiTenantScheduleTest, PoolStateIsFunctionOfCommitOrderAlone) {
  const std::vector<std::string> tenants = {"alice", "bob"};
  const auto plans = TenantPlans({501, 502}, /*queries_each=*/30);
  const std::vector<int> schedule = mt::ShuffledSchedule({30, 30}, 9);

  std::string first;
  for (int run = 0; run < 2; ++run) {
    Catalog catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
    const mt::ScheduledRunResult r = mt::RunScheduled(
        &catalog, BaseOptions(), tenants, plans, schedule, /*threaded=*/false);
    EXPECT_GT(r.fingerprint.size(), 0u);
    if (run == 0) {
      first = r.fingerprint;
    } else {
      EXPECT_EQ(first, r.fingerprint) << "same schedule replayed differently";
    }
  }
}

// --- free-running stress (the ThreadSanitizer target) ---

void RunFreeRunningStress(int num_tenants, int queries_each) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 10e9;  // tight: forces eviction churn

  std::vector<uint64_t> seeds;
  std::vector<std::string> tenants;
  for (int t = 0; t < num_tenants; ++t) {
    seeds.push_back(900 + static_cast<uint64_t>(t));
    tenants.push_back("tenant" + std::to_string(t));
  }
  const auto plans = TenantPlans(seeds, queries_each);

  SharedPool shared(&catalog, options);
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
  std::vector<std::unique_ptr<MetricsObserver>> observers;
  for (int t = 0; t < num_tenants; ++t) {
    engines.push_back(
        std::make_unique<DeepSeaEngine>(&catalog, &shared, tenants[t]));
    observers.push_back(std::make_unique<MetricsObserver>());
    engines[t]->set_observer(observers[t].get());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < num_tenants; ++t) {
    threads.emplace_back([&, t] {
      for (const PlanPtr& plan : plans[static_cast<size_t>(t)]) {
        auto report = engines[static_cast<size_t>(t)]->ProcessQuery(plan);
        if (!report.ok() || report->tenant_id != tenants[static_cast<size_t>(t)]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  // Every commit ticked the clock exactly once.
  EXPECT_EQ(shared.pool()->clock(),
            static_cast<int64_t>(num_tenants) * queries_each);
  // S_max holds no matter how the tenants interleaved...
  EXPECT_LE(shared.pool()->PoolBytesSnapshot(),
            options.pool_limit_bytes * 1.0001);
  // ...and pool accounting still matches the simulated FS exactly
  // (the pool is quiesced now, so the unlocked reads are safe).
  EXPECT_NEAR(shared.pool()->PoolBytes(),
              shared.pool()->fs().TotalBytes("pool/"),
              1.0 + shared.pool()->PoolBytes() * 1e-9);
  // Concurrent sharded commits kept the pool-content index equal to its
  // definition.
  EXPECT_TRUE(PoolIndexMatchesDefinition(shared.pool()->views()));
  EXPECT_TRUE(FragmentIndexMatchesScan(shared.pool()->views()));
  // ...and every kept part mass equal to its rebuild, although sharded
  // commits appended hits out of time order.
  EXPECT_TRUE(PartMassMatchesRebuild(*shared.pool()));

  // Observer isolation: each engine's observer saw exactly its own
  // tenant's queries, nothing from the neighbours.
  int64_t evictions = 0;
  for (int t = 0; t < num_tenants; ++t) {
    const auto snap = observers[t]->TakeSnapshot();
    ASSERT_EQ(snap.tenants.size(), 1u) << tenants[t];
    EXPECT_EQ(snap.tenants.begin()->first, tenants[t]);
    const EngineTotals& seen = snap.tenants.begin()->second.counts;
    EXPECT_EQ(seen.queries, queries_each) << tenants[t];
    const EngineTotals& totals = engines[t]->totals();
    EXPECT_EQ(seen, totals) << tenants[t];
    evictions += totals.fragments_evicted;
    // Every replan has exactly one recorded cause.
    EXPECT_EQ(totals.replans,
              totals.replans_conflict + totals.replans_spurious)
        << tenants[t];
  }
  EXPECT_GT(evictions, 0);
}

TEST(MultiTenantStressTest, FreeRunningTenantsKeepPoolConsistent) {
  RunFreeRunningStress(/*num_tenants=*/4, /*queries_each=*/500);
}

// The 8-engine variant: twice the thread count over the same tight
// pool, so commit-shard contention, in-flight validation, and the
// epoch ring all run hotter. Primarily a ThreadSanitizer target.
TEST(MultiTenantStressTest, FreeRunningEightEnginesKeepPoolConsistent) {
  RunFreeRunningStress(/*num_tenants=*/8, /*queries_each=*/250);
}

// --- single-tenant parity ---

TEST(MultiTenantParityTest, SoloTenantOverSharedPoolMatchesPrivateEngine) {
  const auto workload = mt::SdssTenantWorkload(120, 2017);
  const auto plans = mt::BuildPlans(workload);

  std::vector<std::string> private_lines;
  {
    Catalog catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
    DeepSeaEngine engine(&catalog, BaseOptions());
    for (const PlanPtr& plan : plans) {
      auto report = engine.ProcessQuery(plan);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->tenant_id, "");
      private_lines.push_back(mt::FormatTenantReport(*report));
    }
  }

  std::vector<std::string> shared_lines;
  {
    Catalog catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
    SharedPool shared(&catalog, BaseOptions());
    DeepSeaEngine engine(&catalog, &shared, "solo");
    for (const PlanPtr& plan : plans) {
      auto report = engine.ProcessQuery(plan);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->tenant_id, "solo");
      shared_lines.push_back(mt::FormatTenantReport(*report));
    }
  }

  // Identical except the tenant-id field: attaching to a SharedPool as
  // the only tenant changes nothing about Algorithm 1's decisions.
  ASSERT_EQ(private_lines.size(), shared_lines.size());
  for (size_t i = 0; i < private_lines.size(); ++i) {
    const std::string priv = private_lines[i].substr(private_lines[i].find(','));
    const std::string shrd = shared_lines[i].substr(shared_lines[i].find(','));
    EXPECT_EQ(priv, shrd) << "query " << i;
  }
}

// --- observer tenancy ---

TEST(MultiTenantObserverTest, ObserversAreScopedToTheirEngine) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 8e9;  // force some evictions into the mix
  SharedPool shared(&catalog, options);
  DeepSeaEngine alice(&catalog, &shared, "alice");
  DeepSeaEngine bob(&catalog, &shared, "bob");
  MetricsObserver obs_a;
  MetricsObserver obs_b;
  alice.set_observer(&obs_a);
  bob.set_observer(&obs_b);

  const auto plans_a = mt::BuildPlans(mt::SdssTenantWorkload(40, 61));
  const auto plans_b = mt::BuildPlans(mt::SdssTenantWorkload(40, 62));
  int64_t created_views = 0;
  for (size_t i = 0; i < plans_a.size(); ++i) {
    auto ra = alice.ProcessQuery(plans_a[i]);
    auto rb = bob.ProcessQuery(plans_b[i]);
    ASSERT_TRUE(ra.ok() && rb.ok());
    created_views += static_cast<int64_t>(ra->created_views.size()) +
                     static_cast<int64_t>(rb->created_views.size());
  }

  // Each observer saw only its own engine's commits...
  const auto snap_a = obs_a.TakeSnapshot();
  const auto snap_b = obs_b.TakeSnapshot();
  ASSERT_EQ(snap_a.tenants.size(), 1u);
  ASSERT_EQ(snap_b.tenants.size(), 1u);
  ASSERT_EQ(snap_a.tenants.count("alice"), 1u);
  ASSERT_EQ(snap_b.tenants.count("bob"), 1u);
  const EngineTotals& seen_a = snap_a.tenants.at("alice").counts;
  const EngineTotals& seen_b = snap_b.tenants.at("bob").counts;
  EXPECT_EQ(seen_a.queries, 40);
  EXPECT_EQ(seen_b.queries, 40);
  // ...so each folds exactly its own engine's reports, evictions
  // included.
  EXPECT_EQ(seen_a, alice.totals());
  EXPECT_EQ(seen_b, bob.totals());
  EXPECT_GT(alice.totals().fragments_evicted + bob.totals().fragments_evicted,
            0);
  // ...and together they account for every materialized view.
  EXPECT_EQ(seen_a.views_created + seen_b.views_created, created_views);
}

// --- EvictWholeView records every piece exactly as the per-fragment
//     path does ---

TEST(EvictWholeViewTest, NotifiesEveryEvictedPiece) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.strategy = StrategyKind::kNoPartition;  // whole-view pool entries
  SharedPool shared(&catalog, options);
  DeepSeaEngine engine(&catalog, &shared, "np");

  // Repeat one template until NP admits its view whole.
  std::string whole_id;
  for (int i = 0; i < 40 && whole_id.empty(); ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000, 140000);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
    for (const ViewInfo* v : shared.pool()->views().AllViews()) {
      if (v->whole_materialized) {
        whole_id = v->id;
        break;
      }
    }
  }
  ASSERT_FALSE(whole_id.empty()) << "NP never materialized a whole view";

  PoolManager* pool = engine.mutable_pool();
  CommitGuard commit = pool->BeginCommit();
  ViewInfo* view = pool->stat(commit)->Get(whole_id);
  ASSERT_NE(view, nullptr);

  // Plant a materialized fragment next to the whole materialization so
  // the eviction has two distinct pieces to record.
  const Interval iv(0.0, 1000.0);
  PartitionState* part =
      view->EnsurePartition("item_sk", Interval(0.0, 400000.0));
  FragmentStats* frag = part->Track(iv, 5e6).first;
  frag->size_bytes = 5e6;
  frag->materialized = true;
  const std::string frag_path = FragmentPath(*view, "item_sk", iv);
  pool->fs(commit)->Put(frag_path, 5e6);

  const double whole_bytes = view->stats.size_bytes;
  QueryReport report;
  Result<int> evicted = pool->EvictWholeView(view, &report);
  commit.Release();

  ASSERT_TRUE(evicted.ok()) << evicted.status().ToString();
  EXPECT_EQ(*evicted, 2);  // the fragment + the whole materialization
  // Each piece is counted where it leaves the pool.
  EXPECT_EQ(report.evicted_fragments, 2);
  EXPECT_DOUBLE_EQ(report.evicted_bytes, 5e6 + whole_bytes);
  EXPECT_FALSE(view->whole_materialized);
  EXPECT_FALSE(pool->fs().Exists(frag_path));
  EXPECT_FALSE(pool->fs().Exists("pool/" + whole_id + "/full"));
  EXPECT_EQ(view->MaterializedBytes(), 0.0);
}

}  // namespace
}  // namespace deepsea
