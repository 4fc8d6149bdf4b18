#include "core/view_stats.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/table.h"
#include "core/planning_delta.h"
#include "core/policy.h"
#include "core/view_catalog.h"
#include "part_mass.h"
#include "rewrite/filter_tree.h"

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
  // AdoptHits sorts an unsorted replacement list; the last hit is the max.
  f.AdoptHits({{8.0, Interval(), false},
               {3.0, Interval(), false},
               {6.0, Interval(), false}});
  EXPECT_EQ(f.LastHit(), 8.0);
  EXPECT_EQ(f.LastHit(), f.LastHitNaive());
  // AppendHit extends it; a late hit is sorted into place.
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
// DecayedHits, LastHit) are incremental: running sums over time-ordered
// lists, a binary search for the view's first live event, and for a
// fragment a position (its first live hit) moved by AdvanceWindow.
// Every ViewStats and FragmentStats write must leave its list in time
// order. The *Naive
// replays in view_stats.cc are the oracles: the pre-incremental
// implementations for the view readers, and for H(I) its definition
// (every hit replayed, each live one adding FixedPoint::Quantize(t_k)
// to an exact sum that is divided once by t_now). Every comparison
// below is EXPECT_EQ on doubles — bit-identity, not tolerance —
// because golden traces depend on it.

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
        // Evaluate behind the last event, at it, inside the window, and
        // far past expiry.
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

TEST(ViewStatsIncrementalTest, IntegralTimesOnTheWindowEdgeMatchNaiveBitIdentically) {
  // The engine's clock is integral, so an event recorded at t sits
  // exactly on the decay window's edge at t_now = t + t_max, where DEC is
  // still t / t_now > 0: the search for the first live event must keep
  // it. Continuous times never land there. The clock ticks one query at a
  // time; each tick records up to two events and evaluates at the tick,
  // behind it and t_max past it.
  int config = 0;
  for (const double t_max : {1.0, 2.0, 7.0, 25.0, 500.0}) {
    DecayFunction dec(DecayConfig{t_max, true});
    std::mt19937 rng(3000u + static_cast<uint32_t>(config++));
    std::uniform_int_distribution<int> events(0, 2);
    std::uniform_real_distribution<double> saving(0.0, 50.0);
    ViewStats stats;
    int edges = 0;  // ticks with an event exactly t_max back
    for (int tick = 1; tick <= 1000; ++tick) {
      const double t_now = tick;
      for (int e = events(rng); e > 0; --e) stats.RecordUse(t_now, saving(rng));
      edges += std::any_of(stats.events().begin(), stats.events().end(),
                           [&](const BenefitEvent& e) {
                             return t_now - e.time == t_max;
                           });
      for (const double t_eval : {t_now, t_now - 1.0, t_now + t_max}) {
        EXPECT_EQ(stats.AccumulatedBenefit(t_eval, dec),
                  stats.AccumulatedBenefitNaive(t_eval, dec))
            << "t_max=" << t_max << " tick=" << tick << " t_eval=" << t_eval;
      }
    }
    EXPECT_GT(edges, 200) << "t_max=" << t_max;
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
        ASSERT_TRUE(HitsInTimeOrder(f)) << "after RecordHit, i=" << i;
        if (i % 5 == 0) {
          f.AdvanceWindow(t, dec);
          ASSERT_TRUE(HitsInTimeOrder(f)) << "after AdvanceWindow, i=" << i;
        }
        if (i % 61 == 0) {
          // Merge passes splice arbitrary (possibly unsorted) hit
          // vectors through AdoptHits; the caches must rebuild exactly.
          std::vector<FragmentHit> spliced = f.hits();
          if (spliced.size() > 1) std::swap(spliced.front(), spliced.back());
          f.AdoptHits(std::move(spliced));
          ASSERT_TRUE(HitsInTimeOrder(f)) << "after AdoptHits, i=" << i;
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
  // Reads under two cutoffs of one list: each finds its own first live
  // event (entries < 30 expired at 40 under t_max 10, none under 1000),
  // in either order.
  ViewStats stats;
  DecayFunction dec_short(DecayConfig{10.0, true});
  DecayFunction dec_long(DecayConfig{1000.0, true});
  for (int i = 1; i <= 50; ++i) stats.RecordUse(i, 1.0);
  EXPECT_EQ(stats.AccumulatedBenefit(40.0, dec_short),
            stats.AccumulatedBenefitNaive(40.0, dec_short));
  EXPECT_EQ(stats.AccumulatedBenefit(40.0, dec_long),
            stats.AccumulatedBenefitNaive(40.0, dec_long));
  EXPECT_EQ(stats.AccumulatedBenefit(40.0, dec_short),
            stats.AccumulatedBenefitNaive(40.0, dec_short));
}

TEST(ViewStatsIncrementalTest, LateAppendIsInsertedInTimeOrder) {
  // State restore may merge older events into a view (AppendEvent): each
  // late one lands after every event of its time or earlier, so the list
  // equals the same events recorded in time order (ties keep their
  // append order), and every reader matches that list bit for bit.
  const std::vector<BenefitEvent> appends = {
      {10, 1.5}, {20, 2.25}, {30, 0.1}, {15, 7.0}, {20, 3.5},
      {5, 0.3},  {30, 1.0},  {25, 4.0}, {-2, 9.0}, {40, 0.7}};
  ViewStats late;
  for (const BenefitEvent& e : appends) late.AppendEvent(e);
  std::vector<BenefitEvent> sorted = appends;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const BenefitEvent& a, const BenefitEvent& b) {
                     return a.time < b.time;
                   });
  ViewStats ordered;
  for (const BenefitEvent& e : sorted) ordered.AppendEvent(e);
  ASSERT_EQ(late.events().size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(late.events()[i].time, sorted[i].time) << i;
    EXPECT_EQ(late.events()[i].saving, sorted[i].saving) << i;
  }
  EXPECT_EQ(late.UndecayedBenefit(), late.UndecayedBenefitNaive());
  EXPECT_EQ(late.UndecayedBenefit(), ordered.UndecayedBenefit());
  EXPECT_EQ(late.LastUse(), 40.0);
  for (const double t_max : {5.0, 10.0, 25.0}) {
    for (const bool enabled : {true, false}) {
      DecayFunction dec(DecayConfig{t_max, enabled});
      for (const double t_eval : {0.0, 20.0, 35.0, 40.0, 45.0, 60.0}) {
        EXPECT_EQ(late.AccumulatedBenefit(t_eval, dec),
                  late.AccumulatedBenefitNaive(t_eval, dec))
            << "t_max=" << t_max << " t_eval=" << t_eval;
        EXPECT_EQ(late.AccumulatedBenefit(t_eval, dec),
                  ordered.AccumulatedBenefit(t_eval, dec));
      }
    }
  }
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

TEST(FixedPointTest, QuantizeEqualsTheLibraryConversion) {
  // Quantize converts the scaled term inline: as an int64_t below 2^63,
  // else by shifting its significand. Both must give the bits of the
  // plain double-to-__int128 conversion, up to the cap at 2^62.
  std::mt19937_64 rng(4000);
  std::uniform_real_distribution<double> exponent(-60.0, 70.0);
  std::vector<double> xs = {0.0,    0.5,    1.0,    127.0,  127.99, 128.0,
                            129.5,  0x1p53, 0x1p62, 0x1p63, 1e300};
  for (int i = 0; i < 100000; ++i) xs.push_back(std::exp2(exponent(rng)));
  for (const double x : xs) {
    const auto expected =
        static_cast<FixedPoint::Sum>(std::min(x, 0x1p62) * FixedPoint::kOne);
    ASSERT_TRUE(FixedPoint::Quantize(x) == expected) << "x=" << x;
  }
}

// --- H(I) as one division of a running time sum ---------------------
//
// FragmentStats keeps its hits in time order and Σ Q(t_k) over the hits
// from its position on. A read walks from the position to its own first
// live hit, forward (an expiry since the last advance) or back (an
// earlier t_now or a longer t_max), subtracting or adding the hits it
// passes. Whichever way, a read must equal the definition.

/// Reads H(I) around `t` (behind the position, at it, inside the window,
/// at and past its edge, and at t_now <= 0) against the definition.
void ExpectMatchesDefinition(const FragmentStats& f, const DecayFunction& dec,
                             double t) {
  const double t_max = dec.config().t_max;
  for (const double t_eval : {t - 3.0, t, t + 0.5 * t_max, t + t_max,
                              t + 2.0 * t_max, 0.0, -1.0}) {
    EXPECT_EQ(f.DecayedHits(t_eval, dec), f.DecayedHitsNaive(t_eval, dec))
        << "t_now=" << t_eval << " hits=" << f.hits().size();
  }
}

TEST(FragmentStatsIncrementalTest, OutOfOrderAppendsAndSplicesMatchDefinition) {
  int config = 0;
  for (const double t_max : {25.0, 500.0}) {
    for (const bool integral : {true, false}) {
      const DecayFunction dec(DecayConfig{t_max, true});
      std::mt19937 rng(3000u + static_cast<uint32_t>(config++));
      std::uniform_real_distribution<double> unit(0.0, 1.0);
      FragmentStats f;
      double t = 0.0;
      for (int i = 0; i < 600; ++i) {
        t += integral ? 1.0 : 4.0 * unit(rng);
        double time = t;
        const double roll = unit(rng);
        if (roll < 0.25) {
          // A sharded commit folds a hit at its planned, earlier time.
          const double late = 12.0 * unit(rng);
          time = t - (integral ? std::floor(late) : late);
        } else if (roll < 0.28) {
          time = -1.0 - std::floor(5.0 * unit(rng));  // never in the sum
        }
        f.AppendHit({time, Interval(), false});
        ASSERT_TRUE(HitsInTimeOrder(f)) << "after AppendHit, i=" << i;
        if (i % 7 == 0) {
          f.AdvanceWindow(t, dec);
          ASSERT_TRUE(HitsInTimeOrder(f)) << "after AdvanceWindow, i=" << i;
        }
        if (i % 97 == 0) {
          // A merge splices two histories: an unsorted replacement.
          std::vector<FragmentHit> spliced = f.hits();
          std::shuffle(spliced.begin(), spliced.end(), rng);
          f.AdoptHits(std::move(spliced));
          ASSERT_TRUE(HitsInTimeOrder(f)) << "after AdoptHits, i=" << i;
        }
        if (i % 250 == 249) {
          // ResetHits empties the list, its sum and its position.
          f.ResetHits();
          ASSERT_TRUE(f.hits().empty());
        }
        ExpectMatchesDefinition(f, dec, t);
        if (::testing::Test::HasFailure()) {
          FAIL() << "t_max=" << t_max << " integral=" << integral
                 << " i=" << i;
        }
      }
    }
  }
}

TEST(FragmentStatsIncrementalTest, TmaxChangesAndRewoundReadsMatchDefinition) {
  // The position is advanced under one t_max and at one time: a read
  // under a longer t_max, or before that time, walks back from it.
  const DecayFunction dec_short(DecayConfig{10.0, true});
  const DecayFunction dec_long(DecayConfig{1000.0, true});
  FragmentStats f;
  for (int i = 1; i <= 200; ++i) {
    f.RecordHit(i);
    if (i % 10 == 0) f.AdvanceWindow(i, i % 20 == 0 ? dec_short : dec_long);
    for (const DecayFunction* dec : {&dec_short, &dec_long}) {
      for (const double t_eval : {i - 15.0, i - 1.0, i + 0.0, i + 5.0,
                                  i + 50.0}) {
        EXPECT_EQ(f.DecayedHits(t_eval, *dec), f.DecayedHitsNaive(t_eval, *dec))
            << "i=" << i << " t_max=" << dec->config().t_max
            << " t_now=" << t_eval;
      }
    }
  }
}

TEST(FragmentStatsIncrementalTest, DecayOffNonPositiveNowAndExtremeTimes) {
  // Negative times, zero, 2^53 (the last integer step of 1) and times at
  // and above Quantize's cap of 2^62.
  const std::vector<double> times = {-3.0, -0.5, 0.0,        1.0,
                                     7.5,  0x1p53, 0x1p53 + 2.0, 0x1p62,
                                     0x1.8p62, 0x1p70};
  FragmentStats f;
  for (const double t : times) f.AppendHit({t, Interval(), false});
  const double n = static_cast<double>(times.size());
  // Decay off: H(I) = |T(I)|.
  const DecayFunction off(DecayConfig{10.0, false});
  EXPECT_EQ(f.DecayedHits(5.0, off), n);
  EXPECT_EQ(f.DecayedHits(5.0, off), f.DecayedHitsNaive(5.0, off));
  // At t_now <= 0 DEC is 1 inside the window: H(I) counts the hits it
  // holds. With t_max 0.25 at t_now = -0.5, every hit but the one at -3.
  const DecayFunction narrow(DecayConfig{0.25, true});
  EXPECT_EQ(f.DecayedHits(-0.5, narrow), n - 1.0);
  EXPECT_EQ(f.DecayedHits(-0.5, narrow), f.DecayedHitsNaive(-0.5, narrow));
  const DecayFunction wide(DecayConfig{0x1p80, true});
  for (const bool advanced : {false, true}) {
    if (advanced) f.AdvanceWindow(0x1p71, wide);
    for (const double t_now : {-10.0, 0.0, 1.0, 8.0, 0x1p53, 0x1p63, 0x1p71,
                               0x1p72}) {
      EXPECT_EQ(f.DecayedHits(t_now, wide), f.DecayedHitsNaive(t_now, wide))
          << "t_now=" << t_now << " advanced=" << advanced;
      EXPECT_EQ(f.DecayedHits(t_now, narrow), f.DecayedHitsNaive(t_now, narrow))
          << "t_now=" << t_now << " advanced=" << advanced;
    }
  }
  // A negative time never counts at t_now > 0.
  FragmentStats negative;
  negative.AppendHit({-2.0, Interval(), false});
  EXPECT_EQ(negative.DecayedHits(1.0, narrow), 0.0);
}

TEST(FragmentStatsIncrementalTest, ShuffledHitListsGiveTheSameBits) {
  std::mt19937 rng(4100);
  std::uniform_real_distribution<double> when(1.0, 300.0);
  std::vector<FragmentHit> hits;
  for (int i = 0; i < 400; ++i) hits.push_back({when(rng), Interval(), false});
  FragmentStats sorted;
  std::vector<FragmentHit> in_order = hits;
  std::sort(in_order.begin(), in_order.end(),
            [](const FragmentHit& a, const FragmentHit& b) {
              return a.time < b.time;
            });
  sorted.AdoptHits(std::move(in_order));
  const DecayFunction dec(DecayConfig{60.0, true});
  for (int trial = 0; trial < 20; ++trial) {
    std::shuffle(hits.begin(), hits.end(), rng);
    FragmentStats shuffled;
    shuffled.AdoptHits(hits);
    ASSERT_TRUE(HitsInTimeOrder(shuffled)) << "trial " << trial;
    if (trial % 2 == 1) {
      shuffled.AdvanceWindow(200.0, dec);
      sorted.AdvanceWindow(200.0, dec);
    }
    for (const double t_now : {150.0, 200.5, 280.0, 310.25, 400.0}) {
      EXPECT_EQ(shuffled.DecayedHits(t_now, dec),
                sorted.DecayedHits(t_now, dec))
          << "trial " << trial << " t_now=" << t_now;
    }
  }
}

TEST(FragmentStatsIncrementalTest, IntegralTimesEqualTheInt64SumDividedOnce) {
  // With the engine's integral query-index times every term is exact,
  // so H(I) is the correctly rounded quotient of the integer sum.
  std::mt19937 rng(4200);
  std::uniform_int_distribution<int64_t> when(0, 5000);
  const DecayFunction dec(DecayConfig{500.0, true});
  for (int trial = 0; trial < 200; ++trial) {
    FragmentStats f;
    const int hits = 1 + static_cast<int>(rng() % 300);
    for (int i = 0; i < hits; ++i) {
      f.AppendHit({static_cast<double>(when(rng)), Interval(), false});
    }
    const int64_t now = 4500 + static_cast<int64_t>(rng() % 1000);
    if (trial % 2 == 1) f.AdvanceWindow(static_cast<double>(now - 100), dec);
    int64_t sum = 0;
    for (const FragmentHit& h : f.hits()) {
      const auto t = static_cast<int64_t>(h.time);
      if (now - t <= 500) sum += t;
    }
    const double t_now = static_cast<double>(now);
    EXPECT_EQ(f.DecayedHits(t_now, dec), static_cast<double>(sum) / t_now)
        << "trial " << trial;
  }
}

/// H(I) as it was computed before it became one division: one
/// DEC(t_now, t_k) per hit, added in hit order.
double PerHitLoop(const FragmentStats& f, double t_now,
                  const DecayFunction& dec) {
  double acc = 0.0;
  for (const FragmentHit& h : f.hits()) acc += dec(t_now, h.time);
  return acc;
}

TEST(FragmentStatsIncrementalTest, StaysWithinBoundOfThePerHitLoop) {
  // Each per-hit term and each addition of the old loop rounds; the new
  // value rounds once or twice. They stay within n · 2^-52 relative,
  // for n live hits.
  std::mt19937 rng(4300);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const DecayFunction dec(DecayConfig{500.0, true});
  double worst = 0.0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool integral = trial % 2 == 0;
    FragmentStats f;
    const int hits = 1 + static_cast<int>(rng() % 400);
    for (int i = 0; i < hits; ++i) {
      const double t = 1.0 + 4000.0 * unit(rng);
      f.AppendHit({integral ? std::floor(t) : t, Interval(), false});
    }
    const double t_now = 3000.0 + 1000.0 * unit(rng);
    double live = 0.0;
    for (const FragmentHit& h : f.hits()) {
      if (dec(t_now, h.time) > 0.0) live += 1.0;
    }
    const double old_value = PerHitLoop(f, t_now, dec);
    const double value = f.DecayedHits(t_now, dec);
    const double rel = old_value == 0.0
                           ? std::fabs(value)
                           : std::fabs(value - old_value) / old_value;
    EXPECT_LE(rel, std::max(live, 1.0) * 0x1p-52) << "trial " << trial;
    worst = std::max(worst, rel / std::max(live, 1.0));
  }
  RecordProperty("worst_relative_error_per_hit", std::to_string(worst));
}

TEST(FragmentStatsIncrementalTest, ShadowReadsEqualTheFoldedFragmentBitForBit) {
  // A planning shadow reads H(I) as base history plus local hits, and
  // the MLE fit over it; after the fold, the real fragment and
  // partition must give the same bits.
  std::mt19937 rng(4400);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::atomic<int64_t> placeholders{0};
  ViewIdReservation reservation(&placeholders);
  int fitted = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const bool decay_on = trial % 4 != 3;
    const DecayFunction dec(
        DecayConfig{trial % 2 == 0 ? 40.0 : 30.5, decay_on});
    const double t_now = trial % 3 == 0 ? 200.0 : 187.25;
    ViewCatalog views;
    Catalog catalog;
    FilterTree index;
    PlanSignature sig;
    sig.relations = {"t"};
    ViewInfo* v = views.Track(Scan("t"), sig);
    PartitionState* part = v->EnsurePartition("t.a", Interval(0, 1000));
    const int n = 2 + static_cast<int>(rng() % 8);
    for (int i = 0; i < n; ++i) {
      FragmentStats* f =
          part->Track(Interval(100.0 * i, 100.0 * (i + 1)), 1.0).first;
      f->materialized = unit(rng) < 0.6;
      double t = 1.0;
      const int hits = static_cast<int>(rng() % 40);
      for (int h = 0; h < hits; ++h) {
        t += 5.0 * unit(rng);
        const double time = unit(rng) < 0.2 ? t - 8.0 * unit(rng) : t;
        const double lo = 100.0 * i + 90.0 * unit(rng);
        f->AppendHit(
            {std::min(time, t_now - 1.0), Interval(lo, lo + 10.0), true});
        if (unit(rng) < 0.1) f->AdvanceWindow(std::min(t, t_now - 1.0), dec);
      }
    }
    if (unit(rng) < 0.5) {
      MleFragmentModel::RefreshPartMass(part, t_now - 1.0, dec);
    }
    PlanningDelta delta(catalog, &views, t_now, &reservation);
    PartitionState* shadow = delta.Partition(v, "t.a");
    ASSERT_NE(shadow, part);
    for (FragmentStats& f : shadow->mutable_fragments()) {
      if (unit(rng) < 0.4) {
        f.RecordHit(t_now, Interval(f.interval.lo, f.interval.lo + 5.0));
      }
    }
    if (unit(rng) < 0.5) {
      // A planner-added fragment inherits a history, then is hit.
      FragmentStats* added =
          delta.TrackFragment(shadow, Interval(150.0, 250.0), 1.0).first;
      std::vector<FragmentHit> inherited = part->fragments()[1].hits();
      inherited.insert(inherited.end(), part->fragments()[2 % n].hits().begin(),
                       part->fragments()[2 % n].hits().end());
      added->AdoptHits(std::move(inherited));
      added->RecordHit(t_now);
    }
    std::vector<double> shadow_hits;
    for (const FragmentStats& f : shadow->fragments()) {
      shadow_hits.push_back(delta.DecayedHits(shadow, &f, dec));
    }
    const auto shadow_fit =
        MleFragmentModel::Adjust(*shadow, t_now, dec, delta.BasesOf(shadow));
    delta.Fold(&views, &catalog, &index);
    ASSERT_EQ(part->fragments().size(), shadow_hits.size());
    for (size_t i = 0; i < shadow_hits.size(); ++i) {
      EXPECT_EQ(shadow_hits[i], part->fragments()[i].DecayedHits(t_now, dec))
          << "trial " << trial << " fragment " << i;
    }
    const auto folded_fit = MleFragmentModel::Adjust(*part, t_now, dec);
    EXPECT_EQ(shadow_fit.raw, folded_fit.raw) << "trial " << trial;
    EXPECT_EQ(shadow_fit.total, folded_fit.total) << "trial " << trial;
    EXPECT_EQ(shadow_fit.fit.valid, folded_fit.fit.valid) << "trial " << trial;
    EXPECT_EQ(shadow_fit.fit.mean, folded_fit.fit.mean) << "trial " << trial;
    EXPECT_EQ(shadow_fit.fit.stddev, folded_fit.fit.stddev)
        << "trial " << trial;
    if (folded_fit.fit.valid) ++fitted;
  }
  EXPECT_GT(fitted, 40);
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
