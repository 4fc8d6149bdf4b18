// Micro-benchmarks (google-benchmark) for the hot paths of the DeepSea
// core: interval algebra, histogram estimation, signature computation
// and matching, filter-tree lookup, rewriting enumeration, fragment
// lookup, greedy partition matching, MLE smoothing, the decayed
// statistics H(I) and B(V,t), and end-to-end ProcessQuery throughput of
// the simulator.

#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "catalog/histogram.h"
#include "core/engine.h"
#include "core/mle_model.h"
#include "core/partition_match.h"
#include "exp/metrics.h"
#include "plan/signature.h"
#include "rewrite/filter_tree.h"
#include "rewrite/matcher.h"
#include "workload/bigbench.h"
#include "workload/range_generator.h"

namespace deepsea {
namespace {

void BM_IntervalIntersect(benchmark::State& state) {
  const Interval a(0, 1000, true, false);
  const Interval b(500, 1500, false, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Intersect(b));
  }
}
BENCHMARK(BM_IntervalIntersect);

void BM_FragmentationCovers(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Fragmentation frags(Interval(0, 1e6).SplitEqual(n));
  const Interval domain(0, 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frags.Covers(domain));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FragmentationCovers)->Range(4, 256)->Complexity();

void BM_HistogramFractionInRange(benchmark::State& state) {
  AttributeHistogram hist(Interval(0, 400000), static_cast<int>(state.range(0)));
  hist.AddRange(Interval(0, 400000), 1e9);
  const Interval query(120000, 180000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.FractionInRange(query));
  }
}
BENCHMARK(BM_HistogramFractionInRange)->Arg(64)->Arg(420)->Arg(2048);

void BM_PartitionMatchGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<Interval> frags = Interval(0, 400000).SplitEqual(n);
  // Overlap noise.
  for (int i = 0; i < n / 4; ++i) {
    frags.push_back(Interval(i * 1000.0, i * 1000.0 + 5000.0));
  }
  const Interval query(100000, 300000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionMatch(frags, query));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_PartitionMatchGreedy)->Range(8, 512)->Complexity();

// V_sel's common case: a partition with two materialized intervals and a
// planned piece they do not cover. The greedy takes the first interval,
// then meets the gap.
void BM_PartitionMatchMiss(benchmark::State& state) {
  const std::vector<Interval> mats = {Interval::ClosedOpen(100000, 150000),
                                      Interval::ClosedOpen(220000, 260000)};
  const Interval piece = Interval::ClosedOpen(120000, 180000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PartitionMatch(mats, piece));
  }
}
BENCHMARK(BM_PartitionMatchMiss);

// The Section 7.1 fit over 32 pooled fragments as the live hits grow:
// spreading every live hit again (kept=0) against reading the kept part
// mass (kept=1). Both replay H(I); only the first spreads.
void BM_MleAdjust(benchmark::State& state) {
  const int live_hits = static_cast<int>(state.range(0));
  const bool kept = state.range(1) != 0;
  const int n = 32;
  PartitionState part;
  part.domain = Interval(0, 400000);
  for (const Interval& iv : part.domain.SplitEqual(n)) {
    FragmentStats* f = part.Track(iv, 1e9).first;
    f->materialized = true;
    const Interval touched(iv.lo + 0.25 * iv.Width(), iv.hi);
    const int per_fragment = live_hits / n;
    for (int h = 0; h < per_fragment; ++h) {
      f->RecordHit(100.0 + 100.0 * h / per_fragment, touched);
    }
  }
  const DecayFunction dec;
  if (kept) MleFragmentModel::RefreshPartMass(&part, 200, dec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kept ? MleFragmentModel::Adjust(part, 201, dec)
             : MleFragmentModel::AdjustFromScratch(part, 201, dec));
  }
}
BENCHMARK(BM_MleAdjust)
    ->ArgsProduct({{512, 4096, 32768}, {0, 1}})
    ->ArgNames({"live_hits", "kept"});

// H(I) of one fragment whose `history` hits came one per query (t = 1..
// history, the default t_max of 500), read at the next query's time
// after the last commit advanced the window, as the planner reads it.
// spliced=0 appends the hits in time order; spliced=1 adopts the same
// times as two fragments' histories concatenated (V_sel inheritance, a
// merge splice), which are out of time order as given.
void BM_DecayedHits(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  const bool spliced = state.range(1) != 0;
  const DecayFunction dec;
  FragmentStats f;
  if (spliced) {
    std::vector<FragmentHit> hits;
    for (const int parity : {1, 0}) {
      for (int t = 1; t <= history; ++t) {
        if (t % 2 == parity) hits.push_back({static_cast<double>(t), {}, false});
      }
    }
    f.AdoptHits(std::move(hits));
  } else {
    for (int t = 1; t <= history; ++t) {
      f.RecordHit(t);
      f.AdvanceWindow(t, dec);
    }
  }
  f.AdvanceWindow(history, dec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.DecayedHits(history + 1, dec));
  }
}
BENCHMARK(BM_DecayedHits)
    ->ArgsProduct({{125, 500, 1000, 8000}, {0, 1}})
    ->ArgNames({"history", "spliced"});

// B(V, t) of one view whose `history` benefit events came one per query,
// read at the next query's time: a double sum over the in-window events.
void BM_AccumulatedBenefit(benchmark::State& state) {
  const int history = static_cast<int>(state.range(0));
  const DecayFunction dec;
  ViewStats v;
  for (int t = 1; t <= history; ++t) v.RecordUse(t, 1.0 + 0.25 * (t % 7));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.AccumulatedBenefit(history + 1, dec));
  }
}
BENCHMARK(BM_AccumulatedBenefit)
    ->Arg(125)->Arg(500)->Arg(1000)->Arg(8000)
    ->ArgName("history");

// Find over a partition of 217 tracked fragments (about what a
// sdss_10g partition tracks), cycling through the tracked intervals.
void BM_PartitionFind(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  PartitionState part;
  part.domain = Interval(0, 400000);
  const std::vector<Interval> tracked = part.domain.SplitEqual(n);
  for (const Interval& iv : tracked) part.Track(iv, 1e9);
  size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(part.Find(tracked[k]));
    k = k + 1 == tracked.size() ? 0 : k + 1;
  }
}
BENCHMARK(BM_PartitionFind)->Arg(217);

class WorkloadFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (catalog_.Contains("store_sales")) return;
    BigBenchDataset::Options o;
    o.total_bytes = 100e9;
    o.sample_rows_per_fact = 64;
    o.sample_rows_per_dim = 32;
    (void)BigBenchDataset::Generate(o, &catalog_);
  }

 protected:
  Catalog catalog_;
};

BENCHMARK_F(WorkloadFixture, BM_ComputeSignature)(benchmark::State& state) {
  auto plan = BigBenchTemplates::Build("Q30", 10000, 14000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSignature(*plan, catalog_));
  }
}

BENCHMARK_F(WorkloadFixture, BM_SignatureToString)(benchmark::State& state) {
  auto plan = BigBenchTemplates::Build("Q30", 10000, 14000);
  const PlanSignature sig = *ComputeSignature(*plan, catalog_);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sig.ToString());
  }
}

BENCHMARK_F(WorkloadFixture, BM_SignatureSubsumes)(benchmark::State& state) {
  auto view = BigBenchTemplates::Build("Q30", 0, 400000);
  auto query = BigBenchTemplates::Build("Q30", 10000, 14000);
  const PlanSignature vsig = *ComputeSignature((*view)->child(0)->child(0), catalog_);
  const PlanSignature qsig = *ComputeSignature((*query)->child(0), catalog_);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SignatureSubsumes(vsig, qsig));
  }
}

// One (relation, aggregation) bucket of `range(0)` Q30 views that
// differ only in their range constants, as a template's views do; the
// probe's range lies inside 8 of them.
BENCHMARK_DEFINE_F(WorkloadFixture, BM_FilterTreeLookup)
(benchmark::State& state) {
  FilterTree tree;
  for (int i = 0; i < state.range(0); ++i) {
    auto plan = BigBenchTemplates::Build("Q30", i * 100.0, i * 100.0 + 20000.0);
    auto sig = ComputeSignature(*plan, catalog_);
    std::string id = "v";
    id += std::to_string(i);
    tree.Insert(*sig, id);
  }
  auto probe = ComputeSignature(*BigBenchTemplates::Build("Q30", 777, 4777),
                                catalog_);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(*probe));
  }
}
BENCHMARK_REGISTER_F(WorkloadFixture, BM_FilterTreeLookup)->Arg(25)->Arg(250);

// Algorithm 1's rewriting enumeration (matching, fragment cover and
// pricing) for one Q30 query against five tracked Q30-family views: the
// projected join, the bare join, the root aggregate, and two ranged
// selections over the projected join, partitioned on the query's range
// column. The wide one is materialized in 8 fragments; the narrow one's
// 4 fragments are tracked only. The query's signatures are derived
// before the loop, so the row measures the matcher alone.
BENCHMARK_F(WorkloadFixture, BM_ComputeRewritings)(benchmark::State& state) {
  const PlanPtr wide = *BigBenchTemplates::Build("Q30", 0, 400000);
  const PlanPtr narrow = *BigBenchTemplates::Build("Q30", 0, 100000);
  const PlanPtr query = *BigBenchTemplates::Build("Q30", 10000, 14000);
  const PlanPtr& projected_join = wide->child(0)->child(0);
  const std::string attr =
      ComputeSignature(query, catalog_)->ranges.begin()->first;
  Catalog catalog(&catalog_);  // holds the view tables
  ClusterModel cluster;
  PlanCostEstimator estimator(&cluster, &catalog);
  ViewCatalog views;
  FilterTree index;
  const std::vector<std::pair<PlanPtr, int>> view_plans = {
      {projected_join, 0},
      {projected_join->child(0), 0},
      {wide, 0},
      {wide->child(0), 8},
      {narrow->child(0), 4}};
  for (const auto& [plan, fragments] : view_plans) {
    const PlanSignature sig = *ComputeSignature(plan, catalog);
    ViewInfo* view = views.Track(plan, sig);
    index.Insert(view->signature, view->id);
    const PlanCost cost = *estimator.Estimate(plan);
    auto table = std::make_shared<Table>(view->id, *plan->OutputSchema(catalog));
    table->set_logical_row_count(static_cast<uint64_t>(cost.out_rows));
    table->set_avg_row_bytes(cost.avg_row_bytes);
    if (fragments > 0) {
      const Interval domain = RangeInterval(sig.ranges.at(attr));
      AttributeHistogram hist(domain, 64);
      hist.AddRange(domain, cost.out_rows);
      table->SetHistogram(attr, hist);
      PartitionState* part = view->EnsurePartition(attr, domain);
      for (const Interval& iv : domain.SplitEqual(fragments)) {
        part->Track(iv, cost.out_bytes / fragments).first->materialized =
            fragments == 8;
      }
    }
    catalog.Put(table);
  }
  ViewMatcher matcher(&views, &index, &estimator);
  SignatureTable signatures(&catalog);
  size_t rewritings = 0;
  for (auto _ : state) {
    auto out = matcher.ComputeRewritings(query, &signatures);
    rewritings = out->size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rewritings"] = static_cast<double>(rewritings);
}

BENCHMARK_F(WorkloadFixture, BM_ProcessQueryThroughput)(benchmark::State& state) {
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.02;
  DeepSeaEngine engine(&catalog_, opts);
  RangeGenerator gen(Interval(0, 400000), Selectivity::kSmall, Skew::kHeavy, 3);
  for (auto _ : state) {
    const Interval r = gen.Next();
    auto plan = BigBenchTemplates::Build("Q30", r.lo, r.hi);
    benchmark::DoNotOptimize(engine.ProcessQuery(*plan));
  }
}

// Same pipeline with a MetricsObserver attached: the delta vs
// BM_ProcessQueryThroughput is the cost of the observer seam (stage
// wall-clock timing, hook dispatch and the report fold), which should
// stay in the noise.
BENCHMARK_F(WorkloadFixture, BM_ProcessQueryThroughputObserved)(benchmark::State& state) {
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.02;
  DeepSeaEngine engine(&catalog_, opts);
  MetricsObserver observer;
  engine.set_observer(&observer);
  RangeGenerator gen(Interval(0, 400000), Selectivity::kSmall, Skew::kHeavy, 3);
  for (auto _ : state) {
    const Interval r = gen.Next();
    auto plan = BigBenchTemplates::Build("Q30", r.lo, r.hi);
    benchmark::DoNotOptimize(engine.ProcessQuery(*plan));
  }
}

}  // namespace
}  // namespace deepsea

BENCHMARK_MAIN();
