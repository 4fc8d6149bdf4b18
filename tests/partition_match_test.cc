#include "core/partition_match.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace deepsea {
namespace {

TEST(PartitionMatchTest, ExactSingleFragment) {
  auto cover = PartitionMatchIntervals({Interval(0, 10)}, Interval(0, 10));
  ASSERT_TRUE(cover.has_value());
  ASSERT_EQ(cover->size(), 1u);
}

TEST(PartitionMatchTest, DisjointPartitionCover) {
  const std::vector<Interval> frags = {Interval::ClosedOpen(0, 10),
                                       Interval::ClosedOpen(10, 20),
                                       Interval(20, 30)};
  auto cover = PartitionMatchIntervals(frags, Interval(5, 25));
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->size(), 3u);
}

TEST(PartitionMatchTest, SubrangeUsesOnlyNeededFragments) {
  const std::vector<Interval> frags = {Interval::ClosedOpen(0, 10),
                                       Interval::ClosedOpen(10, 20),
                                       Interval(20, 30)};
  auto cover = PartitionMatchIntervals(frags, Interval(12, 18));
  ASSERT_TRUE(cover.has_value());
  ASSERT_EQ(cover->size(), 1u);
  EXPECT_EQ((*cover)[0], Interval::ClosedOpen(10, 20));
}

TEST(PartitionMatchTest, GreedyPrefersLargestLowerBound) {
  // Overlapping fragments: big [0,30] and tight [8,30]. For query
  // [10,25] greedy must pick the tighter one.
  const std::vector<Interval> frags = {Interval(0, 30), Interval(8, 30)};
  auto cover = PartitionMatchIntervals(frags, Interval(10, 25));
  ASSERT_TRUE(cover.has_value());
  ASSERT_EQ(cover->size(), 1u);
  EXPECT_EQ((*cover)[0], Interval(8, 30));
}

TEST(PartitionMatchTest, OverlappingChain) {
  // The paper's overlapping scenario: old big fragment (b, u] plus a
  // small new (b, b'] — a query past b' must use the big one.
  const std::vector<Interval> frags = {
      Interval::ClosedOpen(0, 10),   // [l, a)
      Interval(10, 20),              // [a, b]
      Interval::OpenClosed(20, 40),  // (b, u]  (big, old)
      Interval::OpenClosed(20, 25),  // (b, b'] (small, new)
  };
  // Query inside (20, 25]: small fragment suffices.
  auto small_cover = PartitionMatchIntervals(frags, Interval(21, 24));
  ASSERT_TRUE(small_cover.has_value());
  ASSERT_EQ(small_cover->size(), 1u);
  EXPECT_EQ((*small_cover)[0], Interval::OpenClosed(20, 25));
  // Query reaching past 25 needs the big fragment.
  auto big_cover = PartitionMatchIntervals(frags, Interval(21, 35));
  ASSERT_TRUE(big_cover.has_value());
  ASSERT_EQ(big_cover->size(), 1u);
  EXPECT_EQ((*big_cover)[0], Interval::OpenClosed(20, 40));
}

TEST(PartitionMatchTest, GapFails) {
  const std::vector<Interval> frags = {Interval(0, 10), Interval(20, 30)};
  EXPECT_EQ(PartitionMatch(frags, Interval(5, 25)), std::nullopt);
  EXPECT_EQ(PartitionMatchIntervals(frags, Interval(5, 25)), std::nullopt);
}

TEST(PartitionMatchTest, PointGapAtOpenBoundsFails) {
  const std::vector<Interval> frags = {Interval::ClosedOpen(0, 10),
                                       Interval::OpenClosed(10, 20)};
  // The point 10 is uncovered.
  EXPECT_FALSE(PartitionMatch(frags, Interval(5, 15)).has_value());
  // A query that avoids the missing point succeeds.
  EXPECT_TRUE(PartitionMatch(frags, Interval(5, 9)).has_value());
}

TEST(PartitionMatchTest, EmptyRangeEmptyCover) {
  auto cover = PartitionMatch({Interval(0, 10)}, Interval(5, 3));
  ASSERT_TRUE(cover.has_value());
  EXPECT_TRUE(cover->empty());
}

TEST(PartitionMatchTest, NoFragmentsFails) {
  EXPECT_FALSE(PartitionMatch({}, Interval(0, 1)).has_value());
}

TEST(PartitionMatchTest, CoverIsLeftToRight) {
  const std::vector<Interval> frags = {Interval(20, 30), Interval::ClosedOpen(0, 10),
                                       Interval::ClosedOpen(10, 20)};
  auto cover = PartitionMatchIntervals(frags, Interval(0, 30));
  ASSERT_TRUE(cover.has_value());
  ASSERT_EQ(cover->size(), 3u);
  EXPECT_LT((*cover)[0].lo, (*cover)[1].lo);
  EXPECT_LT((*cover)[1].lo, (*cover)[2].lo);
}

// Property sweep: random overlapping fragmentations that cover the
// domain must always yield a valid cover for random query ranges.
class PartitionMatchPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionMatchPropertyTest, CoverAlwaysFoundAndValid) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int iter = 0; iter < 100; ++iter) {
    // Build a covering base partition, then add random overlap noise.
    std::vector<Interval> frags;
    double pos = 0.0;
    while (pos < 100.0) {
      const double next = std::min(100.0, pos + rng.Uniform(5, 30));
      frags.push_back(next >= 100.0 ? Interval(pos, 100.0)
                                    : Interval::ClosedOpen(pos, next));
      pos = next;
    }
    const int extra = static_cast<int>(rng.UniformInt(0, 4));
    for (int i = 0; i < extra; ++i) {
      const double lo = rng.Uniform(0, 80);
      frags.push_back(Interval(lo, lo + rng.Uniform(1, 20)));
    }
    const double qlo = rng.Uniform(0, 90);
    const Interval query(qlo, std::min(100.0, qlo + rng.Uniform(0.5, 50)));
    auto cover = PartitionMatchIntervals(frags, query);
    ASSERT_TRUE(cover.has_value()) << "query " << query.ToString();
    Fragmentation cf(*cover);
    EXPECT_TRUE(cf.Covers(query)) << "cover misses part of " << query.ToString();
    // No chosen fragment is redundant at its choice point: covers are
    // small (at most #fragments).
    EXPECT_LE(cover->size(), frags.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionMatchPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

// Oracle sweep: a cover exists exactly when Fragmentation::Covers, an
// independent sweep over the sorted fragments, says the fragments cover
// the query. Endpoints on a small integer grid make ties common (equal
// lower bounds, shared endpoints, an open end touching a closed one),
// with random inclusive flags and some empty or reversed fragments and
// queries. Where a cover exists it must cover the query.
TEST(PartitionMatchTest, CoverExistsExactlyWhenFragmentsCover) {
  Rng rng(2017);
  auto random_interval = [&rng] {
    const double lo = static_cast<double>(rng.UniformInt(0, 8));
    const double hi = rng.NextDouble() < 0.1
                          ? lo - static_cast<double>(rng.UniformInt(1, 3))
                          : lo + static_cast<double>(rng.UniformInt(0, 4));
    return Interval(lo, hi, rng.NextDouble() < 0.5, rng.NextDouble() < 0.5);
  };
  int covered = 0;
  int gaps = 0;
  for (int iter = 0; iter < 50000; ++iter) {
    std::vector<Interval> frags(static_cast<size_t>(rng.UniformInt(0, 6)));
    for (Interval& f : frags) f = random_interval();
    const Interval query = random_interval();
    const Fragmentation all(frags);
    const auto cover = PartitionMatchIntervals(frags, query);
    ASSERT_EQ(cover.has_value(), all.Covers(query))
        << "query " << query.ToString() << " fragments " << all.ToString();
    if (!cover.has_value()) {
      ++gaps;
      continue;
    }
    ++covered;
    ASSERT_TRUE(Fragmentation(*cover).Covers(query))
        << "query " << query.ToString() << " fragments " << all.ToString();
    ASSERT_LE(cover->size(), frags.size());
  }
  EXPECT_GT(covered, 5000);
  EXPECT_GT(gaps, 5000);
}

}  // namespace
}  // namespace deepsea
