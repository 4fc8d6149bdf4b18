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

// --- one-pass fit vs the two-pass reference ---------------------------
//
// Adjust visits each live hit once, adding it to H(I) and spreading it
// in the same step, with the part overlap computed inline. The
// reference below is the earlier two-pass Adjust, kept verbatim: one
// pass for H(I), a second replay for the spread, overlaps through
// Interval::OverlapWidth. Every output must match it bit for bit.

MleFragmentModel::AdjustedHits TwoPassAdjust(
    const MleFragmentModel& model, const MleConfig& cfg,
    const std::vector<FragmentStats>& fragments, const Interval& domain,
    double t_now, const DecayFunction& dec,
    const std::vector<const FragmentStats*>* bases) {
  MleFragmentModel::AdjustedHits out;
  out.hits.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  auto base_of = [bases](size_t i) -> const FragmentStats* {
    return bases != nullptr && i < bases->size() ? (*bases)[i] : nullptr;
  };

  std::vector<double> frag_hits(fragments.size(), 0.0);
  for (size_t i = 0; i < fragments.size(); ++i) {
    const FragmentStats* base = base_of(i);
    if (base == nullptr) {
      frag_hits[i] = fragments[i].DecayedHits(t_now, dec);
    } else if (!dec.config().enabled) {
      frag_hits[i] = static_cast<double>(base->hits().size() +
                                         fragments[i].hits().size());
    } else {
      double acc = base->DecayedHits(t_now, dec);
      for (const FragmentHit& h : fragments[i].hits()) acc += dec(t_now, h.time);
      frag_hits[i] = acc;
    }
    out.total += frag_hits[i];
  }
  if (out.total <= 0.0) return out;

  const int num_parts = model.ChoosePartCount(fragments, domain);
  const double part_width = domain.Width() / num_parts;
  std::vector<double> part_hits(static_cast<size_t>(num_parts), 0.0);
  std::vector<double> part_mids(static_cast<size_t>(num_parts), 0.0);
  for (int p = 0; p < num_parts; ++p) {
    part_mids[static_cast<size_t>(p)] = domain.lo + part_width * (p + 0.5);
  }
  auto spread_hit = [&](const Interval& iv, const FragmentHit& hit) {
    const double w = dec(t_now, hit.time);
    if (w <= 0.0) return;
    Interval region = iv;
    if (hit.has_range) {
      const auto clamped = hit.range.Intersect(iv);
      if (clamped.has_value()) region = *clamped;
    }
    const double region_width = region.Width();
    if (region_width <= 0.0) {
      int p = static_cast<int>((region.lo - domain.lo) / part_width);
      p = std::clamp(p, 0, num_parts - 1);
      part_hits[static_cast<size_t>(p)] += w;
      return;
    }
    int first = static_cast<int>((region.lo - domain.lo) / part_width);
    int last = static_cast<int>((region.hi - domain.lo) / part_width);
    first = std::clamp(first, 0, num_parts - 1);
    last = std::clamp(last, 0, num_parts - 1);
    for (int p = first; p <= last; ++p) {
      const Interval part(domain.lo + part_width * p,
                          domain.lo + part_width * (p + 1));
      const double ow = part.OverlapWidth(region);
      if (ow > 0.0) {
        part_hits[static_cast<size_t>(p)] += w * ow / region_width;
      }
    }
  };
  auto spread_live_hits = [&](const Interval& iv, const FragmentStats& f) {
    const std::vector<FragmentHit>& hits = f.hits();
    for (size_t h = f.LiveHitsBegin(t_now, dec); h < hits.size(); ++h) {
      spread_hit(iv, hits[h]);
    }
  };
  for (size_t i = 0; i < fragments.size(); ++i) {
    if (frag_hits[i] <= 0.0) continue;
    const Interval& iv = fragments[i].interval;
    if (const FragmentStats* base = base_of(i)) spread_live_hits(iv, *base);
    spread_live_hits(iv, fragments[i]);
  }

  out.fit = FitNormalMle(part_mids, part_hits);
  if (!out.fit.valid ||
      out.fit.stddev > cfg.max_stddev_fraction * domain.Width()) {
    out.hits = frag_hits;
    return out;
  }
  for (size_t i = 0; i < fragments.size(); ++i) {
    const Interval& iv = fragments[i].interval;
    const double p_hi = NormalCdf(iv.hi, out.fit.mean, out.fit.stddev);
    const double p_lo = NormalCdf(iv.lo, out.fit.mean, out.fit.stddev);
    out.hits[i] = out.total * std::max(0.0, p_hi - p_lo);
  }
  return out;
}

/// A random interval inside `domain`: usually a fragment-sized piece,
/// sometimes a point (zero width) or a sliver.
Interval RandomPiece(Rng* rng, const Interval& domain) {
  const double lo = rng->Uniform(domain.lo, domain.hi);
  const double roll = rng->NextDouble();
  double width;
  if (roll < 0.1) {
    width = 0.0;
  } else if (roll < 0.2) {
    width = domain.Width() * 1e-9;
  } else {
    width = rng->Uniform(0.0, 0.4 * domain.Width());
  }
  return Interval(lo, std::min(lo + width, domain.hi),
                  rng->NextDouble() < 0.8, rng->NextDouble() < 0.5);
}

/// Appends `n` time-ordered hits in [t_lo, t_hi] to `f`. Ranges cover
/// the cases the spread distinguishes: no range, a range inside the
/// fragment, one that overhangs it, a point, and one that misses it.
void AddRandomHits(Rng* rng, int n, double t_lo, double t_hi,
                   const Interval& domain, FragmentStats* f) {
  std::vector<double> times;
  for (int h = 0; h < n; ++h) times.push_back(rng->Uniform(t_lo, t_hi));
  std::sort(times.begin(), times.end());
  const Interval& iv = f->interval;
  for (double t : times) {
    const double roll = rng->NextDouble();
    if (roll < 0.3) {
      f->AppendHit({t, Interval(), false, 0});
      continue;
    }
    Interval range;
    if (roll < 0.6) {
      const double a = rng->Uniform(iv.lo, iv.hi);
      range = Interval(a, rng->Uniform(a, iv.hi));
    } else if (roll < 0.75) {
      range = Interval(rng->Uniform(domain.lo, iv.hi),
                       rng->Uniform(iv.hi, domain.hi));
    } else if (roll < 0.85) {
      const double a = rng->Uniform(iv.lo, iv.hi);
      range = Interval(a, a);
    } else {
      // Disjoint from the fragment (or empty): the spread falls back to
      // the whole fragment.
      range = Interval(iv.hi + 1.0, iv.hi + 2.0);
    }
    f->AppendHit({t, range, true, 0});
  }
}

TEST(MleModelTest, OnePassMatchesTwoPassReferenceOnRandomPartitions) {
  const Interval domain(0.0, 1000.0);
  const MleConfig cfg;
  const MleFragmentModel model(cfg);
  Rng rng(20161);
  int spread = 0;
  int fitted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool decay_on = trial % 2 == 0;
    const DecayFunction dec(DecayConfig{/*t_max=*/40.0, decay_on});
    const double t_now = 200.0;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 11));
    std::vector<FragmentStats> bases_store;
    std::vector<FragmentStats> frags;
    bases_store.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      FragmentStats f;
      f.interval = RandomPiece(&rng, domain);
      const double roll = rng.NextDouble();
      FragmentStats base;
      base.interval = f.interval;
      if (roll < 0.15) {
        // Every hit timed out at t_now.
        AddRandomHits(&rng, 5, 1.0, t_now - 50.0, domain, &base);
      } else {
        AddRandomHits(&rng, static_cast<int>(rng.UniformInt(0, 30)), 1.0,
                      t_now, domain, &base);
      }
      if (rng.NextDouble() < 0.5) base.AdvanceWindow(t_now - 5.0, dec);
      // Query-local suffix on the shadow fragment.
      AddRandomHits(&rng, static_cast<int>(rng.UniformInt(0, 3)), t_now,
                    t_now, domain, &f);
      bases_store.push_back(std::move(base));
      frags.push_back(std::move(f));
    }
    // Shadow shape: some fragments have a base, some are planner-added.
    std::vector<const FragmentStats*> bases;
    for (int i = 0; i < n; ++i) {
      bases.push_back(rng.NextDouble() < 0.7
                          ? &bases_store[static_cast<size_t>(i)]
                          : nullptr);
    }
    // In-place shape: each fragment carries its own full history.
    std::vector<FragmentStats> folded = bases_store;
    for (int i = 0; i < n; ++i) {
      for (const FragmentHit& h : frags[static_cast<size_t>(i)].hits()) {
        folded[static_cast<size_t>(i)].AppendHit(h);
      }
    }

    const auto shadow = model.Adjust(frags, domain, t_now, dec, &bases);
    const auto shadow_ref =
        TwoPassAdjust(model, cfg, frags, domain, t_now, dec, &bases);
    ExpectSameAdjust(shadow, shadow_ref);
    const auto in_place = model.Adjust(folded, domain, t_now, dec);
    const auto in_place_ref =
        TwoPassAdjust(model, cfg, folded, domain, t_now, dec, nullptr);
    ExpectSameAdjust(in_place, in_place_ref);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trial " << trial;
    }
    if (in_place.total > 0.0) ++spread;
    if (in_place.fit.valid) ++fitted;
  }
  // The trials reached the spread and the fit, not only the early exits.
  EXPECT_GT(spread, 200);
  EXPECT_GT(fitted, 100);
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
