#include "core/view_stats.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/table.h"
#include "core/planning_delta.h"
#include "core/policy.h"
#include "core/view_catalog.h"

namespace deepsea {
namespace {

/// The planner's value model (PlanningDelta's Φ(V), Φ(I) and filter
/// benefit) at `t_now`, over one view outside any pool whose statistics
/// are `stats`. Fragments are read with their own hit lists (no shadow).
class ValueModelAt {
 public:
  explicit ValueModelAt(double t_now, const ViewStats& stats = ViewStats())
      : delta_(catalog_, &views_, t_now, &reservation_) {
    view_.id = "v1";
    view_.stats = stats;
  }

  double ViewValue(ValueModel model, const DecayFunction& dec) const {
    return delta_.ViewValue(model, &view_, dec);
  }
  double ViewBenefitForFilter(ValueModel model,
                              const DecayFunction& dec) const {
    return delta_.ViewBenefitForFilter(model, &view_, dec);
  }
  double FragmentValue(ValueModel model, const FragmentStats& f,
                       double view_size, double view_cost,
                       const DecayFunction& dec,
                       double adjusted_hits = -1.0) const {
    return delta_.FragmentValue(model, &part_, &f, view_size, view_cost, dec,
                                adjusted_hits);
  }

 private:
  Catalog catalog_;
  ViewCatalog views_;
  std::atomic<int64_t> placeholders_{0};
  ViewIdReservation reservation_{&placeholders_};
  ViewInfo view_;
  PartitionState part_;
  PlanningDelta delta_;
};

TEST(DecayTest, PaperFormula) {
  DecayFunction dec(DecayConfig{/*t_max=*/100.0, /*enabled=*/true});
  EXPECT_DOUBLE_EQ(dec(10, 5), 0.5);      // t / t_now
  EXPECT_DOUBLE_EQ(dec(200, 50), 0.0);    // older than t_max
  EXPECT_DOUBLE_EQ(dec(100, 100), 1.0);   // just now
  EXPECT_DOUBLE_EQ(dec(0, 0), 1.0);       // degenerate start
}

TEST(DecayTest, MonotonicallyDecreasingInAge) {
  DecayFunction dec(DecayConfig{1000.0, true});
  double prev = 1.0;
  for (double t = 100; t >= 10; t -= 10) {
    const double w = dec(100, t);
    EXPECT_LE(w, prev);
    prev = w;
  }
}

TEST(DecayTest, DisabledIsIdentity) {
  DecayFunction dec(DecayConfig{10.0, false});
  EXPECT_DOUBLE_EQ(dec(1000, 1), 1.0);
}

TEST(ViewStatsTest, AccumulatedBenefitDecays) {
  DecayFunction dec(DecayConfig{1000.0, true});
  ViewStats stats;
  stats.RecordUse(50, 100);   // at t=100: weight 0.5 -> 50
  stats.RecordUse(100, 100);  // weight 1.0 -> 100
  EXPECT_DOUBLE_EQ(stats.AccumulatedBenefit(100, dec), 150.0);
  EXPECT_DOUBLE_EQ(stats.UndecayedBenefit(), 200.0);
}

TEST(ViewStatsTest, BenefitTimesOut) {
  DecayFunction dec(DecayConfig{10.0, true});
  ViewStats stats;
  stats.RecordUse(5, 100);
  EXPECT_GT(stats.AccumulatedBenefit(10, dec), 0.0);
  EXPECT_DOUBLE_EQ(stats.AccumulatedBenefit(100, dec), 0.0);
}

TEST(ViewStatsTest, ValueFormula) {
  DecayFunction dec(DecayConfig{1000.0, true});
  ViewStats stats;
  stats.creation_cost = 200;
  stats.size_bytes = 1000;
  stats.RecordUse(100, 50);
  // Phi = COST * B / S = 200 * 50 / 1000 = 10 at t=100.
  EXPECT_DOUBLE_EQ(
      ValueModelAt(100, stats).ViewValue(ValueModel::kDeepSea, dec), 10.0);
}

TEST(ViewStatsTest, LastUse) {
  ViewStats stats;
  EXPECT_EQ(stats.LastUse(), 0.0);
  stats.RecordUse(5, 1);
  stats.RecordUse(9, 1);
  // Out-of-order appends go through the assert-free path (RecordUse
  // requires commit-clock order); LastUse stays the running max.
  stats.AppendEvent({7, 1});
  EXPECT_EQ(stats.LastUse(), 9.0);
}

TEST(FragmentStatsTest, DecayedHits) {
  DecayFunction dec(DecayConfig{1000.0, true});
  FragmentStats f;
  f.RecordHit(50);
  f.RecordHit(100);
  EXPECT_DOUBLE_EQ(f.DecayedHits(100, dec), 1.5);
  EXPECT_DOUBLE_EQ(f.RawHits(), 2.0);
}

TEST(FragmentStatsTest, BenefitProportionalToSizeFraction) {
  DecayFunction dec(DecayConfig{1000.0, true});
  FragmentStats f;
  f.size_bytes = 100;
  f.RecordHit(100);
  // B = hits * S(I)/S(V) * COST(V) = 1 * 0.1 * 500 = 50, so
  // Phi = COST * B / S = 500 * 50 / 100 = 250.
  const ValueModelAt at(100);
  EXPECT_DOUBLE_EQ(at.FragmentValue(ValueModel::kDeepSea, f, 1000, 500, dec),
                   250.0);
  // Doubling S(V) halves the size fraction, and with it B and Phi.
  EXPECT_DOUBLE_EQ(at.FragmentValue(ValueModel::kDeepSea, f, 2000, 500, dec),
                   125.0);
}

TEST(FragmentStatsTest, AdjustedHitsOverride) {
  DecayFunction dec(DecayConfig{1000.0, true});
  FragmentStats f;
  f.size_bytes = 100;
  // No real hits, but MLE smoothing assigns 4 adjusted hits:
  // B = 4 * 0.1 * 500 = 200, Phi = 500 * 200 / 100 = 1000.
  const ValueModelAt at(100);
  EXPECT_DOUBLE_EQ(at.FragmentValue(ValueModel::kDeepSea, f, 1000, 500, dec),
                   0.0);
  EXPECT_DOUBLE_EQ(at.FragmentValue(ValueModel::kDeepSea, f, 1000, 500, dec,
                                    /*adjusted_hits=*/4.0),
                   1000.0);
}

TEST(ViewStatsTest, LastUseIsRunningMaxAcrossUnorderedAppends) {
  // AppendEvent (state restore, delta folds) bypasses the time-order
  // assert; the O(1) running max must still agree with a full scan.
  ViewStats stats;
  for (const double t : {5.0, 9.0, 2.0, 9.0, 7.5}) {
    stats.AppendEvent({t, 1.0});
    EXPECT_EQ(stats.LastUse(), stats.LastUseNaive());
  }
  EXPECT_EQ(stats.LastUse(), 9.0);
}

TEST(FragmentStatsTest, LastHitIsRunningMaxAcrossAdoptAndAppend) {
  FragmentStats f;
  EXPECT_EQ(f.LastHit(), 0.0);
  // AdoptHits rebuilds the cache from an unsorted replacement list.
  f.AdoptHits({{8.0, Interval(), false},
               {3.0, Interval(), false},
               {6.0, Interval(), false}});
  EXPECT_EQ(f.LastHit(), 8.0);
  EXPECT_EQ(f.LastHit(), f.LastHitNaive());
  // AppendHit extends it, order-free.
  f.AppendHit({5.0, Interval(), false});
  EXPECT_EQ(f.LastHit(), 8.0);
  f.AppendHit({11.0, Interval(), false});
  EXPECT_EQ(f.LastHit(), 11.0);
  EXPECT_EQ(f.LastHit(), f.LastHitNaive());
  f.ResetHits();
  EXPECT_EQ(f.LastHit(), 0.0);
}

// ---------------------------------------------------------------------------
// Incremental caches vs naive replay (bit-identity oracle tests).
//
// The hot-path readers (AccumulatedBenefit, UndecayedBenefit, LastUse,
// DecayedHits, LastHit) are incremental: running sums/maxima plus a
// timed-out-prefix cursor advanced by AdvanceWindow. The *Naive
// replays retained in view_stats.cc are the pre-incremental
// implementations; every comparison below is EXPECT_EQ on doubles —
// bit-identity, not tolerance — because golden traces depend on it.

TEST(ViewStatsIncrementalTest, RandomEventStreamsMatchNaiveBitIdentically) {
  int config = 0;
  for (const double t_max : {25.0, 500.0, 5000.0}) {
    for (const bool enabled : {true, false}) {
      DecayFunction dec(DecayConfig{t_max, enabled});
      std::mt19937 rng(1000u + static_cast<uint32_t>(config++));
      std::uniform_real_distribution<double> step(0.0, 8.0);
      std::uniform_real_distribution<double> saving(0.0, 50.0);
      ViewStats stats;
      double t = 0.0;
      for (int i = 0; i < 400; ++i) {
        t += step(rng);
        stats.RecordUse(t, saving(rng));
        // Interleave cursor advancement with appends, as the pool does
        // (AdvanceWindowsAfterFold after each fold).
        if (i % 5 == 0) stats.AdvanceWindow(t, dec);
        // Evaluate behind the cursor (fallback to full replay), at it,
        // inside the window, and far past expiry.
        for (const double t_eval :
             {t - 3.0, t, t + 0.5 * t_max, t + 2.0 * t_max}) {
          EXPECT_EQ(stats.AccumulatedBenefit(t_eval, dec),
                    stats.AccumulatedBenefitNaive(t_eval, dec))
              << "t_max=" << t_max << " enabled=" << enabled << " i=" << i;
        }
      }
      EXPECT_EQ(stats.UndecayedBenefit(), stats.UndecayedBenefitNaive());
      EXPECT_EQ(stats.LastUse(), stats.LastUseNaive());
    }
  }
}

TEST(FragmentStatsIncrementalTest, RandomHitStreamsMatchNaiveBitIdentically) {
  int config = 0;
  for (const double t_max : {25.0, 500.0, 5000.0}) {
    for (const bool enabled : {true, false}) {
      DecayFunction dec(DecayConfig{t_max, enabled});
      std::mt19937 rng(2000u + static_cast<uint32_t>(config++));
      std::uniform_real_distribution<double> step(0.0, 8.0);
      std::uniform_real_distribution<double> pos(0.0, 100.0);
      FragmentStats f;
      f.interval = Interval(0.0, 100.0);
      double t = 0.0;
      for (int i = 0; i < 400; ++i) {
        t += step(rng);
        const double lo = pos(rng);
        f.RecordHit(t, Interval(lo, lo + 1.0));
        if (i % 5 == 0) f.AdvanceWindow(t, dec);
        if (i % 61 == 0) {
          // Merge passes splice arbitrary (possibly unsorted) hit
          // vectors through AdoptHits; the caches must rebuild exactly.
          std::vector<FragmentHit> spliced = f.hits();
          if (spliced.size() > 1) std::swap(spliced.front(), spliced.back());
          f.AdoptHits(std::move(spliced));
        }
        for (const double t_eval :
             {t - 3.0, t, t + 0.5 * t_max, t + 2.0 * t_max}) {
          EXPECT_EQ(f.DecayedHits(t_eval, dec),
                    f.DecayedHitsNaive(t_eval, dec))
              << "t_max=" << t_max << " enabled=" << enabled << " i=" << i;
        }
      }
      EXPECT_EQ(f.LastHit(), f.LastHitNaive());
    }
  }
}

TEST(ViewStatsIncrementalTest, ChangingTmaxInvalidatesTheCursor) {
  // The cursor is computed under one t_max; evaluating under another
  // must fall back to full replay (CursorValid checks the cutoff).
  ViewStats stats;
  DecayFunction dec_short(DecayConfig{10.0, true});
  DecayFunction dec_long(DecayConfig{1000.0, true});
  for (int i = 1; i <= 50; ++i) stats.RecordUse(i, 1.0);
  stats.AdvanceWindow(40.0, dec_short);  // entries < 30 expired under 10
  EXPECT_EQ(stats.AccumulatedBenefit(40.0, dec_long),
            stats.AccumulatedBenefitNaive(40.0, dec_long));
  EXPECT_EQ(stats.AccumulatedBenefit(40.0, dec_short),
            stats.AccumulatedBenefitNaive(40.0, dec_short));
  // Re-advancing under the new cutoff rebuilds the cursor from scratch.
  stats.AdvanceWindow(40.0, dec_long);
  EXPECT_EQ(stats.AccumulatedBenefit(40.0, dec_long),
            stats.AccumulatedBenefitNaive(40.0, dec_long));
}

TEST(FragmentStatsIncrementalTest, AdoptAfterAdvanceResetsTheCursor) {
  DecayFunction dec(DecayConfig{10.0, true});
  FragmentStats f;
  for (int i = 1; i <= 30; ++i) f.RecordHit(i);
  f.AdvanceWindow(25.0, dec);
  // Adopt an unsorted list whose old entries would be hidden behind a
  // stale cursor if AdoptHits failed to reset it.
  std::vector<FragmentHit> replacement = f.hits();
  std::reverse(replacement.begin(), replacement.end());
  f.AdoptHits(std::move(replacement));
  EXPECT_EQ(f.DecayedHits(25.0, dec), f.DecayedHitsNaive(25.0, dec));
  EXPECT_EQ(f.LastHit(), f.LastHitNaive());
}

TEST(PolicyTest, StrategyNames) {
  EXPECT_STREQ(StrategyName(StrategyKind::kHive), "H");
  EXPECT_STREQ(StrategyName(StrategyKind::kNoPartition), "NP");
  EXPECT_STREQ(StrategyName(StrategyKind::kEquiDepth), "E");
  EXPECT_STREQ(StrategyName(StrategyKind::kNoRefine), "NR");
  EXPECT_STREQ(StrategyName(StrategyKind::kDeepSea), "DS");
}

TEST(PolicyTest, DeepSeaViewValueUsesDecay) {
  DecayFunction dec(DecayConfig{1000.0, true});
  ViewStats stats;
  stats.creation_cost = 100;
  stats.size_bytes = 100;
  stats.RecordUse(50, 10);
  const double v_now =
      ValueModelAt(100, stats).ViewValue(ValueModel::kDeepSea, dec);
  const double v_later =
      ValueModelAt(500, stats).ViewValue(ValueModel::kDeepSea, dec);
  EXPECT_GT(v_now, v_later);
}

TEST(PolicyTest, NectarIgnoresAccumulatedBenefit) {
  DecayFunction dec;
  ViewStats poor, rich;
  poor.creation_cost = rich.creation_cost = 100;
  poor.size_bytes = rich.size_bytes = 100;
  poor.RecordUse(50, 1);      // tiny saving
  rich.RecordUse(50, 10000);  // huge saving
  const ValueModelAt poor_at(100, poor);
  const ValueModelAt rich_at(100, rich);
  EXPECT_DOUBLE_EQ(poor_at.ViewValue(ValueModel::kNectar, dec),
                   rich_at.ViewValue(ValueModel::kNectar, dec));
  EXPECT_LT(poor_at.ViewValue(ValueModel::kNectarPlus, dec),
            rich_at.ViewValue(ValueModel::kNectarPlus, dec));
}

TEST(PolicyTest, NectarValueDropsWithIdleTime) {
  DecayFunction dec;
  ViewStats stats;
  stats.creation_cost = 100;
  stats.size_bytes = 100;
  stats.RecordUse(10, 100);
  const ValueModelAt soon(11, stats);
  const ValueModelAt late(1000, stats);
  EXPECT_GT(soon.ViewValue(ValueModel::kNectar, dec),
            late.ViewValue(ValueModel::kNectar, dec));
  EXPECT_GT(soon.ViewValue(ValueModel::kNectarPlus, dec),
            late.ViewValue(ValueModel::kNectarPlus, dec));
}

TEST(PolicyTest, FilterBenefitModelSpecific) {
  DecayFunction dec(DecayConfig{10.0, true});
  ViewStats stats;
  stats.RecordUse(5, 100);
  // Old event: decayed filter sees ~0, undecayed sees 100.
  const ValueModelAt at(1000, stats);
  EXPECT_DOUBLE_EQ(at.ViewBenefitForFilter(ValueModel::kDeepSea, dec), 0.0);
  EXPECT_DOUBLE_EQ(at.ViewBenefitForFilter(ValueModel::kNectarPlus, dec),
                   100.0);
}

TEST(PolicyTest, FragmentValueModels) {
  DecayFunction dec;
  FragmentStats f;
  f.size_bytes = 100;
  f.RecordHit(90);
  const ValueModelAt at(100);
  const double ds = at.FragmentValue(ValueModel::kDeepSea, f, 1000, 500, dec);
  const double n = at.FragmentValue(ValueModel::kNectar, f, 1000, 500, dec);
  const double np =
      at.FragmentValue(ValueModel::kNectarPlus, f, 1000, 500, dec);
  EXPECT_GT(ds, 0.0);
  EXPECT_GT(n, 0.0);
  EXPECT_GT(np, 0.0);
}

}  // namespace
}  // namespace deepsea
