// MetricsObserver coverage: histogram bucket boundaries, counter/gauge
// agreement with QueryReport/EngineTotals and the pool's accounting,
// byte-stable Prometheus exposition (golden file), the strict
// exposition-format validator, MulticastObserver fan-out, and the
// multi-tenant contract — a turnstile-pinned threaded run through one
// shared MetricsObserver must equal per-tenant sequential runs exactly,
// and a free-running run (TSan's hunting ground) must stay consistent.
//
// Regenerate the exposition golden (only when the workload or the
// exporter intentionally changes):
//   DEEPSEA_REGEN_GOLDEN=1 ./metrics_test

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/shared_pool.h"
#include "exp/metrics.h"
#include "multitenant_harness.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

#ifndef DEEPSEA_GOLDEN_DIR
#define DEEPSEA_GOLDEN_DIR "tests/golden"
#endif
#ifndef DEEPSEA_OBSERVABILITY_MD
#define DEEPSEA_OBSERVABILITY_MD "OBSERVABILITY.md"
#endif

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

// ---------------------------------------------------------------------------
// Bucket boundaries

TEST(MetricsBucketsTest, BoundariesAreInclusiveUpperBounds) {
  using M = MetricsObserver;
  // Prometheus `le` semantics: a value equal to the bound belongs to
  // that bucket; the next representable value above it does not.
  for (int i = 0; i < M::kFiniteBuckets; ++i) {
    const double bound = M::kBucketBounds[i];
    EXPECT_EQ(M::BucketIndex(bound), static_cast<size_t>(i)) << bound;
    const double above = std::nextafter(bound, 1e300);
    EXPECT_EQ(M::BucketIndex(above), static_cast<size_t>(i) + 1) << bound;
    if (i > 0) {
      const double below = std::nextafter(bound, 0.0);
      EXPECT_EQ(M::BucketIndex(below), static_cast<size_t>(i)) << bound;
    }
  }
  // Zero (a stage that charged nothing) lands in the smallest bucket.
  EXPECT_EQ(M::BucketIndex(0.0), 0u);
  EXPECT_EQ(M::BucketIndex(-1.0), 0u);
  // Values beyond the largest finite bound land in +Inf.
  EXPECT_EQ(M::BucketIndex(std::nextafter(1e5, 1e300)),
            static_cast<size_t>(M::kFiniteBuckets));
  EXPECT_EQ(M::BucketIndex(1e18), static_cast<size_t>(M::kFiniteBuckets));
  // The label table matches the bound table entry for entry.
  EXPECT_STREQ(M::kBucketLabels[0], "1e-06");
  EXPECT_STREQ(M::kBucketLabels[M::kFiniteBuckets - 1], "100000");
}

// ---------------------------------------------------------------------------
// Counter / gauge agreement with the engine's own accounting

TEST(MetricsObserverTest, CountersAndGaugesAgreeWithEngineTotals) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 2e9;  // tight: force evictions
  DeepSeaEngine engine(&catalog, options);

  MetricsObserver metrics;
  metrics.set_pool(&engine.pool());
  engine.set_observer(&metrics);

  const auto names = BigBenchTemplates::Names();
  Rng rng(11);
  const int kQueries = 40;
  int64_t from_views = 0, fragments_read = 0, replanned = 0;
  for (int i = 0; i < kQueries; ++i) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const double lo = rng.Uniform(0.0, 200000.0);
    auto plan = BigBenchTemplates::Build(name, lo, lo + 50000.0);
    ASSERT_TRUE(plan.ok());
    auto report = engine.ProcessQuery(*plan);
    ASSERT_TRUE(report.ok());
    from_views += report->used_view.empty() ? 0 : 1;
    fragments_read += report->fragments_read;
    replanned += report->replanned ? 1 : 0;
  }

  const auto snap = metrics.TakeSnapshot();
  ASSERT_EQ(snap.tenants.size(), 1u);  // single-tenant engine: tenant ""
  const auto& t = snap.tenants.at("");
  const EngineTotals& totals = engine.totals();

  // The observer folds the same reports the engine does: every counter
  // agrees, double sums included.
  EXPECT_EQ(t.counts, totals);
  EXPECT_EQ(t.counts.queries, kQueries);
  EXPECT_EQ(t.counts.replans, replanned);
  EXPECT_EQ(t.counts.queries_answered_from_views, from_views);
  EXPECT_EQ(t.counts.fragments_read, fragments_read);
  EXPECT_GT(t.counts.fragments_evicted, 0);

  // The per-query simulated-cost histogram aggregates exactly what the
  // engine charged (same accumulation order as EngineTotals).
  EXPECT_EQ(t.query_sim.count, totals.queries);
  EXPECT_DOUBLE_EQ(t.query_sim.sum, totals.total_seconds);
  uint64_t histogram_total = 0;
  for (uint64_t b : t.query_sim.buckets) histogram_total += b;
  EXPECT_EQ(histogram_total, static_cast<uint64_t>(kQueries));

  // Pool byte flux: what entered minus what left is what is resident.
  EXPECT_NEAR(t.counts.materialized_bytes - t.counts.evicted_bytes,
              engine.PoolBytes(), 1e-6 * std::max(1.0, engine.PoolBytes()));

  // Gauges agree with a direct scan of the quiesced pool.
  ASSERT_TRUE(snap.pool.present);
  EXPECT_DOUBLE_EQ(snap.pool.pool_bytes, engine.PoolBytes());
  EXPECT_DOUBLE_EQ(snap.pool.pool_limit_bytes, options.pool_limit_bytes);
  EXPECT_EQ(snap.pool.commit_clock, engine.pool().clock());
  int64_t views_tracked = 0, views_mat = 0, frags = 0, frags_mat = 0;
  for (const ViewInfo* v : engine.views().AllViews()) {
    ++views_tracked;
    if (v->InPool()) ++views_mat;
    for (const auto& [attr, part] : v->partitions) {
      (void)attr;
      for (const FragmentStats& f : part.fragments()) {
        ++frags;
        if (f.materialized) ++frags_mat;
      }
    }
  }
  EXPECT_EQ(snap.pool.views_tracked, views_tracked);
  EXPECT_EQ(snap.pool.views_materialized, views_mat);
  EXPECT_EQ(snap.pool.fragments_tracked, frags);
  EXPECT_EQ(snap.pool.fragments_materialized, frags_mat);
  EXPECT_EQ(snap.pool.views_quarantined, 0);
  EXPECT_GE(snap.pool.commit_lock_hold_fraction, 0.0);

  // Totals() over one tenant is that tenant.
  const auto sum = snap.Totals();
  EXPECT_EQ(sum.counts, t.counts);

  // The per-stage sim histogram mirrors the stage call counts: every
  // query ran rewrite/candidates/selection/apply exactly once.
  for (EngineStage s : {EngineStage::kRewrite, EngineStage::kCandidates,
                        EngineStage::kSelection, EngineStage::kApply}) {
    EXPECT_EQ(t.stage_sim[static_cast<size_t>(s)].count, kQueries)
        << EngineStageName(s);
  }
  EXPECT_EQ(t.stage_sim[static_cast<size_t>(EngineStage::kMerge)].count, 0);
}

// ---------------------------------------------------------------------------
// Exposition rendering: validity, byte-stability, golden

struct RenderedRun {
  std::string deterministic;  ///< include_host_metrics = false
  std::string full;           ///< include_host_metrics = true
};

RenderedRun RunDeterministicWorkload() {
  Catalog catalog;
  EXPECT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 10e9;
  DeepSeaEngine engine(&catalog, options);
  MetricsObserver metrics;
  metrics.set_pool(&engine.pool());
  engine.set_observer(&metrics);

  const auto queries = mt::SdssTenantWorkload(40, 2017);
  for (const auto& q : queries) {
    auto plan =
        BigBenchTemplates::Build(q.template_name, q.range.lo, q.range.hi);
    EXPECT_TRUE(plan.ok());
    EXPECT_TRUE(engine.ProcessQuery(*plan).ok());
  }
  RenderedRun out;
  MetricsObserver::RenderOptions deterministic;
  deterministic.include_host_metrics = false;
  out.deterministic = metrics.RenderPrometheusText(deterministic);
  out.full = metrics.RenderPrometheusText();
  return out;
}

TEST(MetricsExpositionTest, RenderPassesTheValidatorAndIsByteStable) {
  const RenderedRun first = RunDeterministicWorkload();
  const RenderedRun second = RunDeterministicWorkload();

  // Both render modes are valid exposition format.
  Status valid = ValidatePrometheusText(first.full);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  valid = ValidatePrometheusText(first.deterministic);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  // The deterministic render is a pure function of the workload: two
  // independent runs agree byte for byte.
  EXPECT_EQ(first.deterministic, second.deterministic);

  // The host-metric series really are excluded from the deterministic
  // render and present in the full one.
  EXPECT_EQ(first.deterministic.find("deepsea_stage_wall_seconds"),
            std::string::npos);
  EXPECT_EQ(first.deterministic.find("deepsea_commit_lock_"),
            std::string::npos);
  EXPECT_NE(first.full.find("deepsea_stage_wall_seconds"), std::string::npos);
  EXPECT_NE(first.full.find("deepsea_commit_lock_hold_fraction"),
            std::string::npos);
}

TEST(MetricsExpositionTest, MatchesGoldenExposition) {
  const std::string path =
      std::string(DEEPSEA_GOLDEN_DIR) + "/metrics_exposition.golden";
  const RenderedRun run = RunDeterministicWorkload();
  if (std::getenv("DEEPSEA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << path;
    out << run.deterministic;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "; run with DEEPSEA_REGEN_GOLDEN=1 to create it";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(run.deterministic, buffer.str())
      << "metrics exposition drifted from the golden; regenerate only if "
         "the change is intended";
}

TEST(MetricsExpositionTest, EveryRegisteredSeriesIsDocumented) {
  std::ifstream in(DEEPSEA_OBSERVABILITY_MD);
  ASSERT_TRUE(in.good()) << "missing " << DEEPSEA_OBSERVABILITY_MD;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  for (const MetricInfo& m : MetricsObserver::Registry()) {
    EXPECT_NE(doc.find(m.name), std::string::npos)
        << "OBSERVABILITY.md does not document exported series " << m.name;
  }
}

TEST(MetricsExpositionTest, RegistryCoversEveryRenderedFamily) {
  const RenderedRun run = RunDeterministicWorkload();
  // Every "# TYPE name type" line in a full render must be a registry
  // entry with the same type — the registry cannot lag the renderer.
  std::stringstream lines(run.full);
  std::string line;
  int families = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    ++families;
    std::stringstream fields(line);
    std::string hash, keyword, name, type;
    fields >> hash >> keyword >> name >> type;
    bool found = false;
    for (const MetricInfo& m : MetricsObserver::Registry()) {
      if (name == m.name) {
        found = true;
        EXPECT_EQ(type, m.type) << name;
      }
    }
    EXPECT_TRUE(found) << "rendered family missing from Registry(): " << name;
  }
  EXPECT_EQ(static_cast<size_t>(families),
            MetricsObserver::Registry().size());
}

// ---------------------------------------------------------------------------
// The exposition-format validator itself

TEST(PromValidatorTest, AcceptsACompleteWellFormedExposition) {
  const std::string text =
      "# HELP demo_total A counter.\n"
      "# TYPE demo_total counter\n"
      "demo_total{tenant=\"a\\\"b\\\\c\\nd\"} 3\n"
      "demo_total{tenant=\"other\"} 0\n"
      "# TYPE demo_seconds histogram\n"
      "demo_seconds_bucket{le=\"0.1\"} 1\n"
      "demo_seconds_bucket{le=\"+Inf\"} 2\n"
      "demo_seconds_sum 1.5\n"
      "demo_seconds_count 2\n"
      "# TYPE demo_gauge gauge\n"
      "demo_gauge -1.5e3 1700000000000\n";
  const Status s = ValidatePrometheusText(text);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(PromValidatorTest, RejectsMalformedInput) {
  const struct {
    const char* label;
    const char* text;
  } kCases[] = {
      {"empty", ""},
      {"no trailing newline", "a_total 1"},
      {"bad metric name", "9metric 1\n"},
      {"bad label name", "a_total{9l=\"x\"} 1\n"},
      {"unquoted label value", "a_total{l=x} 1\n"},
      {"bad escape", "a_total{l=\"\\q\"} 1\n"},
      {"unterminated label value", "a_total{l=\"x} 1\n"},
      {"bad value", "a_total one\n"},
      {"duplicate series", "a_total{l=\"x\"} 1\na_total{l=\"x\"} 2\n"},
      {"duplicate label", "a_total{l=\"x\",l=\"y\"} 1\n"},
      {"negative counter",
       "# TYPE a_total counter\na_total -1\n"},
      {"TYPE after samples", "a_total 1\n# TYPE a_total counter\n"},
      {"second TYPE",
       "# TYPE a_total counter\n# TYPE a_total gauge\na_total 1\n"},
      {"unknown type", "# TYPE a_total widget\na_total 1\n"},
      {"non-contiguous family",
       "a_total 1\nb_total 1\na_total{l=\"x\"} 2\n"},
      {"histogram without +Inf",
       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
      {"histogram count mismatch",
       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"},
      {"histogram non-cumulative",
       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n"
       "h_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"},
      {"histogram missing sum",
       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
      {"histogram bare sample",
       "# TYPE h histogram\nh 1\n"},
      {"bucket without le",
       "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n"},
      {"trailing garbage", "a_total 1 soon\n"},
  };
  for (const auto& c : kCases) {
    EXPECT_FALSE(ValidatePrometheusText(c.text).ok()) << c.label;
  }
}

// ---------------------------------------------------------------------------
// MulticastObserver fan-out

TEST(MulticastObserverTest, ForwardsEveryHookToAllSinksInOrder) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 2e9;
  DeepSeaEngine engine(&catalog, options);

  // Two identical metrics sinks behind one multicast: both must end up
  // with identical snapshots (every hook reached both).
  MetricsObserver a, b;
  MulticastObserver multicast;
  EXPECT_EQ(multicast.size(), 0u);
  multicast.Add(&a);
  multicast.Add(&b);
  multicast.Add(nullptr);  // ignored
  EXPECT_EQ(multicast.size(), 2u);
  engine.set_observer(&multicast);

  const auto names = BigBenchTemplates::Names();
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const double lo = rng.Uniform(0.0, 200000.0);
    auto plan = BigBenchTemplates::Build(
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))], lo,
        lo + 50000.0);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
  }

  const auto sa = a.TakeSnapshot();
  const auto sb = b.TakeSnapshot();
  ASSERT_EQ(sa.tenants.size(), 1u);
  ASSERT_EQ(sb.tenants.size(), 1u);
  const auto& ta = sa.tenants.at("");
  const auto& tb = sb.tenants.at("");
  EXPECT_EQ(ta.counts.queries, 20);
  EXPECT_EQ(tb.counts.queries, ta.counts.queries);
  EXPECT_EQ(tb.counts.views_created, ta.counts.views_created);
  EXPECT_EQ(tb.counts.fragments_created, ta.counts.fragments_created);
  EXPECT_EQ(tb.counts.fragments_evicted, ta.counts.fragments_evicted);
  EXPECT_EQ(tb.counts.fragments_read, ta.counts.fragments_read);
  EXPECT_DOUBLE_EQ(tb.counts.materialized_bytes, ta.counts.materialized_bytes);
  EXPECT_DOUBLE_EQ(tb.query_sim.sum, ta.query_sim.sum);
  EXPECT_GT(ta.counts.views_created + ta.counts.fragments_created, 0);
  EXPECT_GT(ta.counts.fragments_evicted, 0);
}

// ---------------------------------------------------------------------------
// Multi-tenant: one shared MetricsObserver across concurrent engines

constexpr int kTenants = 3;
constexpr int kQueriesPerTenant = 12;

std::vector<std::vector<PlanPtr>> TenantPlans() {
  std::vector<std::vector<PlanPtr>> plans;
  for (int t = 0; t < kTenants; ++t) {
    plans.push_back(mt::BuildPlans(
        mt::SdssTenantWorkload(kQueriesPerTenant, 9000 + 7 * t)));
  }
  return plans;
}

std::vector<std::string> TenantIds() {
  return {"astro", "geo", "retail"};
}

/// Pinned-schedule contract: a threaded run through one shared
/// MetricsObserver must produce, per tenant, exactly the metrics of a
/// sequential replay of the same commit order observed per-tenant —
/// integer counters AND sim-time double sums (each tenant's slot sees
/// its additions in the same order either way). TSan runs this test
/// with real threads hammering the shared observer.
TEST(MetricsMultiTenantTest, SharedObserverEqualsPerTenantSequentialRuns) {
  const auto tenants = TenantIds();
  const auto plans = TenantPlans();
  const std::vector<int> schedule = mt::ShuffledSchedule(
      std::vector<int>(kTenants, kQueriesPerTenant), 42);
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 8e9;

  // Threaded turnstile run, one shared observer across all engines. No
  // set_pool here: the harness owns the SharedPool and destroys it when
  // RunScheduled returns, and an attached pool must outlive every
  // scrape (the free-running test covers pool gauges with a live pool).
  MetricsObserver shared;
  Catalog catalog_threaded;
  ASSERT_TRUE(
      BigBenchDataset::Generate(DataOptions(), &catalog_threaded).ok());
  mt::RunScheduled(&catalog_threaded, options, tenants, plans, schedule,
                   /*threaded=*/true, nullptr,
                   [&](DeepSeaEngine* engine, int t) {
                     (void)t;
                     engine->set_observer(&shared);
                   });

  // Sequential replay of the same schedule, one observer per tenant.
  std::vector<std::unique_ptr<MetricsObserver>> per(kTenants);
  Catalog catalog_sequential;
  ASSERT_TRUE(
      BigBenchDataset::Generate(DataOptions(), &catalog_sequential).ok());
  mt::RunScheduled(&catalog_sequential, options, tenants, plans, schedule,
                   /*threaded=*/false, nullptr,
                   [&](DeepSeaEngine* engine, int t) {
                     per[static_cast<size_t>(t)] =
                         std::make_unique<MetricsObserver>();
                     engine->set_observer(per[static_cast<size_t>(t)].get());
                   });

  const auto merged = shared.TakeSnapshot();
  ASSERT_EQ(merged.tenants.size(), static_cast<size_t>(kTenants));
  MetricsObserver::MetricsSnapshot::Tenant sum_of_sequential;
  for (int t = 0; t < kTenants; ++t) {
    const auto solo = per[static_cast<size_t>(t)]->TakeSnapshot();
    ASSERT_EQ(solo.tenants.size(), 1u) << tenants[static_cast<size_t>(t)];
    const auto& want = solo.tenants.begin()->second;
    ASSERT_TRUE(merged.tenants.count(tenants[static_cast<size_t>(t)]));
    const auto& got = merged.tenants.at(tenants[static_cast<size_t>(t)]);

    const EngineTotals& g = got.counts;
    const EngineTotals& w = want.counts;
    EXPECT_EQ(g.queries, w.queries) << tenants[static_cast<size_t>(t)];
    EXPECT_EQ(g.queries_answered_from_views, w.queries_answered_from_views);
    EXPECT_EQ(g.queries_degraded, w.queries_degraded);
    EXPECT_EQ(g.fragments_read, w.fragments_read);
    EXPECT_EQ(g.views_created, w.views_created);
    EXPECT_EQ(g.fragments_created, w.fragments_created);
    EXPECT_EQ(g.fragments_evicted, w.fragments_evicted);
    EXPECT_EQ(g.fragments_merged, w.fragments_merged);
    EXPECT_EQ(g.faults, w.faults);
    EXPECT_EQ(g.retries, w.retries);
    EXPECT_EQ(g.degrades, w.degrades);
    EXPECT_DOUBLE_EQ(g.materialized_bytes, w.materialized_bytes);
    EXPECT_DOUBLE_EQ(g.evicted_bytes, w.evicted_bytes);
    EXPECT_EQ(got.query_sim.count, want.query_sim.count);
    EXPECT_DOUBLE_EQ(got.query_sim.sum, want.query_sim.sum);
    for (size_t b = 0; b < MetricsObserver::kBucketCount; ++b) {
      EXPECT_EQ(got.query_sim.buckets[b], want.query_sim.buckets[b]);
    }
    // Per-stage sim histograms too (replans replay planning stages, and
    // the pinned schedule makes even those counts deterministic).
    for (size_t s = 0; s < MetricsObserver::kStageCount; ++s) {
      EXPECT_EQ(got.stage_sim[s].count, want.stage_sim[s].count)
          << tenants[static_cast<size_t>(t)] << " stage " << s;
      EXPECT_DOUBLE_EQ(got.stage_sim[s].sum, want.stage_sim[s].sum);
    }

    sum_of_sequential.counts.queries += w.queries;
    sum_of_sequential.counts.fragments_evicted += w.fragments_evicted;
    sum_of_sequential.counts.fragments_created += w.fragments_created;
  }
  // And the acceptance phrasing: merged totals == sum of per-tenant
  // sequential runs for the monotonic counters.
  const auto merged_totals = merged.Totals().counts;
  EXPECT_EQ(merged_totals.queries, sum_of_sequential.counts.queries);
  EXPECT_EQ(merged_totals.queries, kTenants * kQueriesPerTenant);
  EXPECT_EQ(merged_totals.fragments_evicted,
            sum_of_sequential.counts.fragments_evicted);
  EXPECT_EQ(merged_totals.fragments_created,
            sum_of_sequential.counts.fragments_created);
}

/// Free-running engines (no turnstile) hammering one shared observer:
/// the run is not schedule-deterministic, but every counter must still
/// add up — this is the TSan data-race probe for the per-tenant slot
/// locks.
TEST(MetricsMultiTenantTest, FreeRunningEnginesKeepCountersConsistent) {
  const auto tenants = TenantIds();
  const auto plans = TenantPlans();
  EngineOptions options = BaseOptions();
  options.pool_limit_bytes = 8e9;

  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  SharedPool pool(&catalog, options);
  MetricsObserver shared;
  shared.set_pool(pool.pool());
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
  for (int t = 0; t < kTenants; ++t) {
    engines.push_back(std::make_unique<DeepSeaEngine>(
        &catalog, &pool, tenants[static_cast<size_t>(t)]));
    engines.back()->set_observer(&shared);
  }
  std::vector<int64_t> processed(kTenants, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        for (const PlanPtr& plan : plans[static_cast<size_t>(t)]) {
          if (engines[static_cast<size_t>(t)]->ProcessQuery(plan).ok()) {
            ++processed[static_cast<size_t>(t)];
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }

  const auto snap = shared.TakeSnapshot();
  for (int t = 0; t < kTenants; ++t) {
    const auto& name = tenants[static_cast<size_t>(t)];
    ASSERT_TRUE(snap.tenants.count(name)) << name;
    const auto& m = snap.tenants.at(name);
    EXPECT_EQ(m.counts.queries, processed[static_cast<size_t>(t)]) << name;
    EXPECT_EQ(m.query_sim.count, m.counts.queries) << name;
    // Each engine folds its own tenant's reports, in the order the
    // observer's slot sees them: the two agree exactly.
    EXPECT_EQ(m.counts, engines[static_cast<size_t>(t)]->totals()) << name;
  }
  // Scrape after the run is well-formed (gauges read the shared pool).
  const Status valid = ValidatePrometheusText(shared.RenderPrometheusText());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

}  // namespace
}  // namespace deepsea
