#include "core/mle_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace deepsea {
namespace {

FragmentStats Frag(double lo, double hi, int hits, double hit_time = 100) {
  FragmentStats f;
  f.interval = Interval(lo, hi);
  f.size_bytes = (hi - lo) * 10;
  for (int i = 0; i < hits; ++i) f.RecordHit(hit_time);
  return f;
}

TEST(MleModelTest, NoHitsYieldsZeroAdjusted) {
  MleFragmentModel model;
  DecayFunction dec;
  std::vector<FragmentStats> frags = {Frag(0, 50, 0), Frag(50, 100, 0)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  EXPECT_EQ(adj.total, 0.0);
  EXPECT_EQ(adj.hits[0], 0.0);
  EXPECT_EQ(adj.hits[1], 0.0);
}

TEST(MleModelTest, TotalMassPreservedApproximately) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 25, 10), Frag(25, 50, 20),
                                      Frag(50, 75, 10), Frag(75, 100, 2)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  double sum = 0.0;
  for (double h : adj.hits) sum += h;
  // The Normal has tails outside the domain; most mass stays inside.
  EXPECT_GT(sum, 0.8 * adj.total);
  EXPECT_LE(sum, adj.total + 1e-9);
}

TEST(MleModelTest, NeighborOfHotSpotBeatsDistantFragment) {
  // This is the paper's motivating example (Section 7.1): hits on
  // [0, 5], none on [6, 10] and [11, 15]. The neighbor [6, 10] must get
  // more adjusted hits than the distant [11, 15].
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 5, 20), Frag(5, 10, 0),
                                      Frag(10, 15, 0)};
  const auto adj = model.Adjust(frags, Interval(0, 15), 100, dec);
  EXPECT_GT(adj.hits[0], adj.hits[1]);
  EXPECT_GT(adj.hits[1], adj.hits[2]);
  EXPECT_GT(adj.hits[1], 0.0);
}

TEST(MleModelTest, FitRecoversHotSpotCenter) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags;
  for (int i = 0; i < 10; ++i) {
    // Hits concentrated around [40, 60].
    const double lo = i * 10.0, hi = lo + 10.0;
    const int hits = (lo >= 30 && hi <= 70) ? 20 : 1;
    frags.push_back(Frag(lo, hi, hits));
  }
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  ASSERT_TRUE(adj.fit.valid);
  EXPECT_NEAR(adj.fit.mean, 50.0, 5.0);
  EXPECT_GT(adj.fit.stddev, 0.0);
}

TEST(MleModelTest, DecayReducesOldHitInfluence) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  // Old hits on the left, recent hits on the right.
  std::vector<FragmentStats> frags = {Frag(0, 50, 10, /*hit_time=*/10),
                                      Frag(50, 100, 10, /*hit_time=*/1000)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 1000, dec);
  ASSERT_TRUE(adj.fit.valid);
  // Mean pulled toward the recent (right) side.
  EXPECT_GT(adj.fit.mean, 50.0);
}

TEST(MleModelTest, ChoosePartCountRespectsSmallFragments) {
  MleFragmentModel model(MleConfig{/*target_parts=*/8, /*max_parts=*/1024});
  std::vector<FragmentStats> frags = {Frag(0, 2, 1), Frag(2, 100, 1)};
  // Smallest fragment has width 2 over domain width 100 -> needs >= 50.
  const int parts = model.ChoosePartCount(frags, Interval(0, 100));
  EXPECT_GE(parts, 50);
  EXPECT_LE(parts, 1024);
}

TEST(MleModelTest, ChoosePartCountCapped) {
  MleFragmentModel model(MleConfig{8, 64});
  std::vector<FragmentStats> frags = {Frag(0, 0.001, 1), Frag(0.001, 100, 1)};
  EXPECT_EQ(model.ChoosePartCount(frags, Interval(0, 100)), 64);
  // A sliver fragment: the width ratio (1e18) overflows int, and the
  // cap must still apply.
  MleFragmentModel defaults;
  std::vector<FragmentStats> sliver = {Frag(0, 1e-12, 1), Frag(1e-12, 1e6, 1)};
  EXPECT_EQ(defaults.ChoosePartCount(sliver, Interval(0, 1e6)),
            MleConfig().max_parts);
}

// --- in-window replay --------------------------------------------------
//
// Adjust replays each hit list from FragmentStats::LiveHitsBegin. With
// advanced windows that skips the timed-out prefix; without, it
// replays everything. Both must give bit-identical fits.

/// Fragments tiling [0, 100) with hits at times 1..t_last, some with an
/// accessed sub-range; a hot spot around 40 keeps the Normal fit valid.
std::vector<FragmentStats> HitFragments(Rng* rng, double t_last) {
  std::vector<FragmentStats> frags;
  for (int i = 0; i < 10; ++i) {
    FragmentStats f;
    f.interval = Interval(i * 10.0, i * 10.0 + 10.0, true, i == 9);
    f.size_bytes = 100.0;
    const int hits = (i >= 3 && i <= 5) ? 40 : 4;
    std::vector<double> times;
    for (int h = 0; h < hits; ++h) times.push_back(rng->Uniform(1, t_last));
    std::sort(times.begin(), times.end());
    for (double t : times) {
      if (rng->NextDouble() < 0.5) {
        const double a = rng->Uniform(f.interval.lo, f.interval.hi);
        f.RecordHit(t, Interval(a, rng->Uniform(a, f.interval.hi)));
      } else {
        f.RecordHit(t);
      }
    }
    frags.push_back(std::move(f));
  }
  return frags;
}

void ExpectSameAdjust(const MleFragmentModel::AdjustedHits& a,
                      const MleFragmentModel::AdjustedHits& b) {
  ASSERT_EQ(a.hits.size(), b.hits.size());
  for (size_t i = 0; i < a.hits.size(); ++i) {
    EXPECT_EQ(a.hits[i], b.hits[i]) << "fragment " << i;
  }
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.fit.valid, b.fit.valid);
  EXPECT_EQ(a.fit.mean, b.fit.mean);
  EXPECT_EQ(a.fit.stddev, b.fit.stddev);
}

TEST(MleModelTest, AdvancedWindowsGiveBitIdenticalAdjust) {
  const DecayFunction dec(DecayConfig{/*t_max=*/25.0, true});
  const MleFragmentModel model;
  Rng rng(77);
  const std::vector<FragmentStats> plain = HitFragments(&rng, 100.0);
  for (double t_now : {100.0, 106.0, 113.5}) {
    std::vector<FragmentStats> advanced = plain;
    size_t skipped = 0;
    for (FragmentStats& f : advanced) {
      f.AdvanceWindow(100.0, dec);
      skipped += f.LiveHitsBegin(t_now, dec);
    }
    ASSERT_GT(skipped, 0u) << "the windows must actually skip hits";
    const auto full = model.Adjust(plain, Interval(0, 100), t_now, dec);
    const auto windowed = model.Adjust(advanced, Interval(0, 100), t_now, dec);
    ASSERT_TRUE(full.fit.valid);
    ExpectSameAdjust(windowed, full);
  }
}

TEST(MleModelTest, AdvancedBaseWindowsGiveBitIdenticalShadowAdjust) {
  // The PlanningDelta shape: shadow fragments carry only query-local
  // hits, their bases the history (see Adjust's `bases` argument).
  const DecayFunction dec(DecayConfig{/*t_max=*/25.0, true});
  const MleFragmentModel model;
  Rng rng(78);
  const double t_now = 101.0;
  const std::vector<FragmentStats> plain_bases = HitFragments(&rng, 100.0);
  std::vector<FragmentStats> advanced_bases = plain_bases;
  for (FragmentStats& f : advanced_bases) f.AdvanceWindow(100.0, dec);
  std::vector<FragmentStats> shadows;
  for (const FragmentStats& b : plain_bases) {
    FragmentStats s;
    s.interval = b.interval;
    s.size_bytes = b.size_bytes;
    if (b.interval.lo >= 40.0 && b.interval.lo < 60.0) s.RecordHit(t_now);
    shadows.push_back(std::move(s));
  }
  // One planner-added fragment with no base.
  FragmentStats added;
  added.interval = Interval(45, 55);
  added.RecordHit(t_now, Interval(48, 50));
  shadows.push_back(added);

  std::vector<const FragmentStats*> plain_ptrs, advanced_ptrs;
  for (size_t i = 0; i < plain_bases.size(); ++i) {
    plain_ptrs.push_back(&plain_bases[i]);
    advanced_ptrs.push_back(&advanced_bases[i]);
  }
  plain_ptrs.push_back(nullptr);
  advanced_ptrs.push_back(nullptr);

  size_t skipped = 0;
  for (const FragmentStats& f : advanced_bases) {
    skipped += f.LiveHitsBegin(t_now, dec);
  }
  ASSERT_GT(skipped, 0u);
  const auto full =
      model.Adjust(shadows, Interval(0, 100), t_now, dec, &plain_ptrs);
  const auto windowed =
      model.Adjust(shadows, Interval(0, 100), t_now, dec, &advanced_ptrs);
  ASSERT_TRUE(full.fit.valid);
  ExpectSameAdjust(windowed, full);
}

TEST(MleModelTest, SingleFragmentAllMass) {
  MleFragmentModel model;
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 100, 5)};
  const auto adj = model.Adjust(frags, Interval(0, 100), 100, dec);
  EXPECT_NEAR(adj.hits[0], adj.total, 0.25 * adj.total);
}

TEST(MleModelTest, EmptyDomainSafe) {
  MleFragmentModel model;
  DecayFunction dec;
  std::vector<FragmentStats> frags = {Frag(5, 5, 3)};
  const auto adj = model.Adjust(frags, Interval(5, 5), 100, dec);
  EXPECT_EQ(adj.hits.size(), 1u);
}

}  // namespace
}  // namespace deepsea
