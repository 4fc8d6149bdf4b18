#include "core/merge.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

TEST(AreAdjacentTest, SharedBoundaryOwnership) {
  // [0,5) + [5,10] -> adjacent (point 5 owned once).
  EXPECT_TRUE(AreAdjacent(Interval::ClosedOpen(0, 5), Interval(5, 10)));
  // Order independence.
  EXPECT_TRUE(AreAdjacent(Interval(5, 10), Interval::ClosedOpen(0, 5)));
  // [0,5] + (5,10] -> adjacent.
  EXPECT_TRUE(AreAdjacent(Interval(0, 5), Interval::OpenClosed(5, 10)));
  // [0,5] + [5,10] -> overlap at 5, not adjacency.
  EXPECT_FALSE(AreAdjacent(Interval(0, 5), Interval(5, 10)));
  // [0,5) + (5,10] -> gap at 5.
  EXPECT_FALSE(AreAdjacent(Interval::ClosedOpen(0, 5), Interval::OpenClosed(5, 10)));
  // Disjoint.
  EXPECT_FALSE(AreAdjacent(Interval(0, 4), Interval(5, 10)));
}

FragmentStats Frag(const Interval& iv, std::vector<double> hit_times,
                   double bytes = 1e9, bool materialized = true) {
  FragmentStats f;
  f.interval = iv;
  f.size_bytes = bytes;
  f.materialized = materialized;
  for (double t : hit_times) f.RecordHit(t);
  return f;
}

TEST(CoAccessTest, IdenticalHitsFullCorrelation) {
  DecayFunction dec;
  const auto a = Frag(Interval::ClosedOpen(0, 5), {1, 2, 3});
  const auto b = Frag(Interval(5, 10), {1, 2, 3});
  EXPECT_DOUBLE_EQ(CoAccess(a, b, 10, dec), 1.0);
}

TEST(CoAccessTest, DisjointHitsZero) {
  DecayFunction dec;
  const auto a = Frag(Interval::ClosedOpen(0, 5), {1, 2, 3});
  const auto b = Frag(Interval(5, 10), {4, 5, 6});
  EXPECT_DOUBLE_EQ(CoAccess(a, b, 10, dec), 0.0);
}

TEST(CoAccessTest, PartialOverlapNormalizedByBusier) {
  DecayFunction dec;
  const auto a = Frag(Interval::ClosedOpen(0, 5), {1, 2, 3, 4});
  const auto b = Frag(Interval(5, 10), {3, 4});
  EXPECT_DOUBLE_EQ(CoAccess(a, b, 10, dec), 0.5);  // 2 shared / max(4,2)
}

TEST(CoAccessTest, DecayedOutHitsIgnored) {
  DecayFunction dec(DecayConfig{/*t_max=*/5.0, true});
  const auto a = Frag(Interval::ClosedOpen(0, 5), {1, 100});
  const auto b = Frag(Interval(5, 10), {1, 100});
  // At t_now=102, the hit at t=1 is timed out; only t=100 counts.
  EXPECT_DOUBLE_EQ(CoAccess(a, b, 102, dec), 1.0);
  // At t_now=200 everything is timed out.
  EXPECT_DOUBLE_EQ(CoAccess(a, b, 200, dec), 0.0);
}

class MergeCandidatesTest : public ::testing::Test {
 protected:
  ViewInfo* MakeView(const std::vector<FragmentStats>& frags) {
    PlanPtr plan = Scan("t");
    PlanSignature sig;
    std::string relation = "t";
    relation += std::to_string(counter_++);
    sig.relations = {relation};
    ViewInfo* view = views_.Track(plan, sig);
    view->stats.size_bytes = 100e9;
    PartitionState* part = view->EnsurePartition("t.a", Interval(0, 100));
    for (const FragmentStats& f : frags) {
      const auto [tracked, added] = part->Track(f.interval, f.size_bytes);
      EXPECT_TRUE(added) << "duplicate interval " << f.interval.ToString();
      tracked->materialized = f.materialized;
      tracked->AdoptHits(f.hits());
    }
    return view;
  }

  ViewCatalog views_;
  DecayFunction dec_;
  int counter_ = 0;
};

TEST_F(MergeCandidatesTest, DisabledReturnsNothing) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1, 2, 3}),
            Frag(Interval(5, 10), {1, 2, 3})});
  MergeConfig cfg;
  cfg.enabled = false;
  EXPECT_TRUE(FindMergeCandidates(&views_, cfg, 10, dec_).empty());
}

TEST_F(MergeCandidatesTest, FindsCoAccessedAdjacentPair) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1, 2, 3}),
            Frag(Interval(5, 10), {1, 2, 3})});
  MergeConfig cfg;
  cfg.enabled = true;
  const auto cands = FindMergeCandidates(&views_, cfg, 10, dec_);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].merged, Interval(0, 10));
  EXPECT_DOUBLE_EQ(cands[0].co_access, 1.0);
}

TEST_F(MergeCandidatesTest, LowCorrelationRejected) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1, 2, 3, 4}),
            Frag(Interval(5, 10), {4, 5, 6})});
  MergeConfig cfg;
  cfg.enabled = true;
  cfg.min_co_access = 0.8;
  EXPECT_TRUE(FindMergeCandidates(&views_, cfg, 10, dec_).empty());
}

TEST_F(MergeCandidatesTest, TooFewHitsRejected) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1}),
            Frag(Interval(5, 10), {1})});
  MergeConfig cfg;
  cfg.enabled = true;
  cfg.min_hits = 3;
  EXPECT_TRUE(FindMergeCandidates(&views_, cfg, 10, dec_).empty());
}

TEST_F(MergeCandidatesTest, OversizedMergeRejected) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1, 2, 3}, /*bytes=*/15e9),
            Frag(Interval(5, 10), {1, 2, 3}, /*bytes=*/15e9)});
  MergeConfig cfg;
  cfg.enabled = true;
  cfg.max_merged_fraction = 0.2;  // 20 GB > 0.2 * 100 GB
  EXPECT_TRUE(FindMergeCandidates(&views_, cfg, 10, dec_).empty());
}

TEST_F(MergeCandidatesTest, UnmaterializedFragmentsIgnored) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1, 2, 3}, 1e9, false),
            Frag(Interval(5, 10), {1, 2, 3})});
  MergeConfig cfg;
  cfg.enabled = true;
  EXPECT_TRUE(FindMergeCandidates(&views_, cfg, 10, dec_).empty());
}

TEST_F(MergeCandidatesTest, SortedByCoAccess) {
  MakeView({Frag(Interval::ClosedOpen(0, 5), {1, 2, 3}),
            Frag(Interval::ClosedOpen(5, 10), {1, 2, 3}),
            Frag(Interval(10, 15), {1, 2, 3, 4, 5, 6})});
  MergeConfig cfg;
  cfg.enabled = true;
  cfg.min_co_access = 0.3;
  const auto cands = FindMergeCandidates(&views_, cfg, 10, dec_);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_GE(cands[0].co_access, cands[1].co_access);
}

// End-to-end: the engine's merge pass consolidates co-accessed slivers.
TEST(EngineMergeTest, MergePassConsolidatesFragments) {
  Catalog catalog;
  BigBenchDataset::Options data;
  data.total_bytes = 100e9;
  data.sample_rows_per_fact = 200;
  data.sample_rows_per_dim = 50;
  ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog).ok());
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.02;
  opts.enforce_block_lower_bound = false;
  opts.merge.enabled = true;
  // The narrow query hits only the left fragment; the wide query hits
  // both -> co-access 0.5. The merged pair spans ~30% of the view.
  opts.merge.min_co_access = 0.45;
  opts.merge.max_merged_fraction = 0.5;
  opts.merge.min_hits = 2;
  DeepSeaEngine engine(&catalog, opts);
  // Queries repeatedly span the SAME two ranges so their fragments are
  // co-accessed; after a few queries they should merge.
  for (int i = 0; i < 12; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
    auto plan2 = BigBenchTemplates::Build("Q30", 100000, 220000);
    ASSERT_TRUE(plan2.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan2).ok());
  }
  EXPECT_GT(engine.totals().fragments_merged, 0);
  // Merged fragments keep the pool consistent with the FS.
  EXPECT_NEAR(engine.PoolBytes(), engine.fs().TotalBytes("pool/"),
              1.0 + engine.PoolBytes() * 1e-9);
}

}  // namespace
}  // namespace deepsea
