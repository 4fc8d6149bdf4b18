#include "core/mle_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"

namespace deepsea {
namespace {

/// A partition over `domain` holding `fragments`.
PartitionState Part(const std::vector<FragmentStats>& fragments,
                    const Interval& domain) {
  PartitionState part;
  part.attr = "x";
  part.domain = domain;
  for (const FragmentStats& f : fragments) {
    const auto [tracked, added] = part.Track(f.interval, f.size_bytes);
    EXPECT_TRUE(added) << "duplicate interval " << f.interval.ToString();
    tracked->materialized = f.materialized;
    tracked->AdoptHits(f.hits());
  }
  return part;
}

FragmentStats Frag(double lo, double hi, int hits, double hit_time = 100) {
  FragmentStats f;
  f.interval = Interval(lo, hi);
  f.size_bytes = (hi - lo) * 10;
  for (int i = 0; i < hits; ++i) f.RecordHit(hit_time);
  return f;
}

/// Every fragment's H_A, read one by one as the planner reads it.
/// `fragments` are the fit's input, in partition order.
std::vector<double> ReadOut(const MleFragmentModel::AdjustedHits& adj,
                            const std::vector<FragmentStats>& fragments) {
  std::vector<double> hits;
  for (size_t i = 0; i < fragments.size(); ++i) {
    hits.push_back(adj.Of(i, fragments[i].interval));
  }
  return hits;
}

TEST(MleModelTest, NoHitsYieldsZeroAdjusted) {
  DecayFunction dec;
  std::vector<FragmentStats> frags = {Frag(0, 50, 0), Frag(50, 100, 0)};
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(0, 100)), 100, dec);
  EXPECT_EQ(adj.total, 0.0);
  EXPECT_FALSE(adj.smoothed);
  EXPECT_EQ(ReadOut(adj, frags), (std::vector<double>{0.0, 0.0}));
}

TEST(MleModelTest, TotalMassPreservedApproximately) {
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 25, 10), Frag(25, 50, 20),
                                      Frag(50, 75, 10), Frag(75, 100, 2)};
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(0, 100)), 100, dec);
  double sum = 0.0;
  for (double h : ReadOut(adj, frags)) sum += h;
  // The Normal has tails outside the domain; most mass stays inside.
  EXPECT_GT(sum, 0.8 * adj.total);
  EXPECT_LE(sum, adj.total + 1e-9);
}

TEST(MleModelTest, NeighborOfHotSpotBeatsDistantFragment) {
  // This is the paper's motivating example (Section 7.1): hits on
  // [0, 5], none on [6, 10] and [11, 15]. The neighbor [6, 10] must get
  // more adjusted hits than the distant [11, 15].
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 5, 20), Frag(5, 10, 0),
                                      Frag(10, 15, 0)};
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(0, 15)), 100, dec);
  const std::vector<double> hits = ReadOut(adj, frags);
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[2]);
  EXPECT_GT(hits[1], 0.0);
}

TEST(MleModelTest, FitRecoversHotSpotCenter) {
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags;
  for (int i = 0; i < 10; ++i) {
    // Hits concentrated around [40, 60].
    const double lo = i * 10.0, hi = lo + 10.0;
    const int hits = (lo >= 30 && hi <= 70) ? 20 : 1;
    frags.push_back(Frag(lo, hi, hits));
  }
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(0, 100)), 100, dec);
  ASSERT_TRUE(adj.fit.valid);
  EXPECT_NEAR(adj.fit.mean, 50.0, 5.0);
  EXPECT_GT(adj.fit.stddev, 0.0);
}

TEST(MleModelTest, DecayReducesOldHitInfluence) {
  DecayFunction dec(DecayConfig{1e9, true});
  // Old hits on the left, recent hits on the right.
  std::vector<FragmentStats> frags = {Frag(0, 50, 10, /*hit_time=*/10),
                                      Frag(50, 100, 10, /*hit_time=*/1000)};
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(0, 100)), 1000, dec);
  ASSERT_TRUE(adj.fit.valid);
  // Mean pulled toward the recent (right) side.
  EXPECT_GT(adj.fit.mean, 50.0);
}

TEST(MleModelTest, ChoosePartCountRespectsSmallFragments) {
  // The model's grid: 32 target parts, at most 4,096.
  static_assert(MleFragmentModel::kTargetParts == 32);
  static_assert(MleFragmentModel::kMaxParts == 4096);
  std::vector<FragmentStats> frags = {Frag(0, 2, 1), Frag(2, 100, 1)};
  // Smallest fragment has width 2 over domain width 100 -> needs >= 50.
  const int parts = MleFragmentModel::ChoosePartCount(frags, Interval(0, 100));
  EXPECT_GE(parts, 50);
  EXPECT_LE(parts, 4096);
  // Coarse fragments still get the 32-part target grid.
  std::vector<FragmentStats> coarse = {Frag(0, 50, 1), Frag(50, 100, 1)};
  EXPECT_EQ(MleFragmentModel::ChoosePartCount(coarse, Interval(0, 100)), 32);
}

TEST(MleModelTest, ChoosePartCountCapped) {
  std::vector<FragmentStats> frags = {Frag(0, 0.001, 1), Frag(0.001, 100, 1)};
  // The width ratio asks for 100,000 parts; the cap is 4,096.
  EXPECT_EQ(MleFragmentModel::ChoosePartCount(frags, Interval(0, 100)), 4096);
  // A sliver fragment: the width ratio (1e18) overflows int, and the
  // cap must still apply.
  std::vector<FragmentStats> sliver = {Frag(0, 1e-12, 1), Frag(1e-12, 1e6, 1)};
  EXPECT_EQ(MleFragmentModel::ChoosePartCount(sliver, Interval(0, 1e6)), 4096);
}

// --- in-window replay --------------------------------------------------
//
// Adjust replays each hit list from FragmentStats::LiveHitsBegin, the
// first live hit, which a fragment finds by walking from its position:
// a short walk with advanced windows, one over the whole timed-out
// prefix without. Both must give bit-identical fits.

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

/// Two fits are the same when their raw H(I), H_total, fit and
/// smoothing verdict are: every H_A is read from those.
void ExpectSameAdjust(const MleFragmentModel::AdjustedHits& a,
                      const MleFragmentModel::AdjustedHits& b) {
  ASSERT_EQ(a.raw.size(), b.raw.size());
  for (size_t i = 0; i < a.raw.size(); ++i) {
    EXPECT_EQ(a.raw[i], b.raw[i]) << "fragment " << i;
  }
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.fit.valid, b.fit.valid);
  EXPECT_EQ(a.fit.mean, b.fit.mean);
  EXPECT_EQ(a.fit.stddev, b.fit.stddev);
  EXPECT_EQ(a.smoothed, b.smoothed);
}

/// A reference fit, each fragment's H_A computed eagerly.
struct EagerFit {
  std::vector<double> hits;
  double total = 0.0;
  NormalFit fit;
};

/// `adj` read out over `fragments` equals the reference bit for bit.
void ExpectMatchesReference(const MleFragmentModel::AdjustedHits& adj,
                            const std::vector<FragmentStats>& fragments,
                            const EagerFit& ref) {
  const std::vector<double> hits = ReadOut(adj, fragments);
  ASSERT_EQ(hits.size(), ref.hits.size());
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], ref.hits[i]) << "fragment " << i;
  }
  EXPECT_EQ(adj.total, ref.total);
  EXPECT_EQ(adj.fit.valid, ref.fit.valid);
  EXPECT_EQ(adj.fit.mean, ref.fit.mean);
  EXPECT_EQ(adj.fit.stddev, ref.fit.stddev);
}

TEST(MleModelTest, AdvancedWindowsGiveBitIdenticalAdjust) {
  const DecayFunction dec(DecayConfig{/*t_max=*/25.0, true});
  Rng rng(77);
  const std::vector<FragmentStats> plain = HitFragments(&rng, 100.0);
  for (double t_now : {100.0, 106.0, 113.5}) {
    PartitionState advanced = Part(plain, Interval(0, 100));
    size_t skipped = 0;
    for (FragmentStats& f : advanced.mutable_fragments()) {
      f.AdvanceWindow(100.0, dec);
      skipped += f.LiveHitsBegin(t_now, dec);
    }
    ASSERT_GT(skipped, 0u) << "the windows must actually skip hits";
    const auto full =
        MleFragmentModel::Adjust(Part(plain, Interval(0, 100)), t_now, dec);
    const auto windowed = MleFragmentModel::Adjust(advanced, t_now, dec);
    ASSERT_TRUE(full.fit.valid);
    ExpectSameAdjust(windowed, full);
  }
}

TEST(MleModelTest, AdvancedBaseWindowsGiveBitIdenticalShadowAdjust) {
  // The PlanningDelta shape: shadow fragments carry only query-local
  // hits, their bases the history (see Adjust's `bases` argument). No
  // base partition is given, so the fit spreads every live hit.
  const DecayFunction dec(DecayConfig{/*t_max=*/25.0, true});
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
  const PartitionState shadow = Part(shadows, Interval(0, 100));
  const auto full =
      MleFragmentModel::Adjust(shadow, t_now, dec,
                               ShadowBases{nullptr, &plain_ptrs});
  const auto windowed =
      MleFragmentModel::Adjust(shadow, t_now, dec,
                               ShadowBases{nullptr, &advanced_ptrs});
  ASSERT_TRUE(full.fit.valid);
  ExpectSameAdjust(windowed, full);
}

// --- one-pass fit vs the two-pass reference ---------------------------
//
// Adjust reads H(I) from the fragments' running time sums and spreads
// each live hit into exact fixed-point part sums, with the part overlap
// computed inline. The reference below takes H(I) by its definition
// (DefinitionHits) and spreads in a second replay, with overlaps through
// Interval::Intersect and Interval::OverlapWidth, and rounds each term
// t_k · overlap / width (overlap / width with decay off) with
// FixedPoint::Quantize. Every output must match it bit for bit.

/// H(I) by its definition (FragmentStats::DecayedHitsNaive) over the
/// hit list the fold gives: `base`'s hits (when given), then `f`'s.
double DefinitionHits(const FragmentStats* base, const FragmentStats& f,
                      double t_now, const DecayFunction& dec) {
  std::vector<FragmentHit> hits;
  if (base != nullptr) hits = base->hits();
  hits.insert(hits.end(), f.hits().begin(), f.hits().end());
  FragmentStats folded;
  folded.AdoptHits(std::move(hits));
  return folded.DecayedHitsNaive(t_now, dec);
}

EagerFit TwoPassAdjust(const std::vector<FragmentStats>& fragments,
                       const Interval& domain, double t_now,
                       const DecayFunction& dec,
                       const std::vector<const FragmentStats*>* bases) {
  EagerFit out;
  out.hits.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  auto base_of = [bases](size_t i) -> const FragmentStats* {
    return bases != nullptr && i < bases->size() ? (*bases)[i] : nullptr;
  };

  std::vector<double> frag_hits(fragments.size(), 0.0);
  for (size_t i = 0; i < fragments.size(); ++i) {
    frag_hits[i] = DefinitionHits(base_of(i), fragments[i], t_now, dec);
    out.total += frag_hits[i];
  }
  if (out.total <= 0.0) return out;

  const int num_parts = MleFragmentModel::ChoosePartCount(fragments, domain);
  const double part_width = domain.Width() / num_parts;
  const bool time_weighted = dec.config().enabled && t_now > 0.0;
  std::vector<FixedPoint::Sum> part_sums(static_cast<size_t>(num_parts), 0);
  std::vector<double> part_mids(static_cast<size_t>(num_parts), 0.0);
  for (int p = 0; p < num_parts; ++p) {
    part_mids[static_cast<size_t>(p)] = domain.lo + part_width * (p + 0.5);
  }
  auto spread_hit = [&](const Interval& iv, const FragmentHit& hit) {
    const double w = dec(t_now, hit.time);
    if (w <= 0.0) return;
    const double scale = time_weighted ? hit.time : 1.0;
    Interval region = iv;
    if (hit.has_range) {
      const auto clamped = hit.range.Intersect(iv);
      if (clamped.has_value()) region = *clamped;
    }
    const double region_width = region.Width();
    if (region_width <= 0.0) {
      int p = static_cast<int>((region.lo - domain.lo) / part_width);
      p = std::clamp(p, 0, num_parts - 1);
      part_sums[static_cast<size_t>(p)] += FixedPoint::Quantize(scale);
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
        part_sums[static_cast<size_t>(p)] +=
            FixedPoint::Quantize(scale * ow / region_width);
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

  std::vector<double> part_hits(static_cast<size_t>(num_parts), 0.0);
  for (size_t p = 0; p < part_sums.size(); ++p) {
    const double mass = std::ldexp(static_cast<double>(part_sums[p]),
                                   -FixedPoint::kFractionBits);
    part_hits[p] = time_weighted ? mass / t_now : mass;
  }
  out.fit = FitNormalMle(part_mids, part_hits);
  if (!out.fit.valid ||
      out.fit.stddev > MleFragmentModel::kMaxStddevFraction * domain.Width()) {
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
      f->AppendHit({t, Interval(), false});
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
    f->AppendHit({t, range, true});
  }
}

/// A random partition in the PlanningDelta shadow shape (shadow
/// fragments with query-local hits at t_now; 70% of them with a base
/// holding the history) and in the in-place shape the fold produces.
/// `bases` points into `bases_store`: move a case, never copy it.
struct RandomCase {
  std::vector<FragmentStats> bases_store;
  std::vector<FragmentStats> frags;
  std::vector<const FragmentStats*> bases;
  std::vector<FragmentStats> folded;
};

RandomCase MakeRandomCase(Rng* rng, const Interval& domain, double t_now,
                          const DecayFunction& dec) {
  RandomCase c;
  const int n = 1 + static_cast<int>(rng->UniformInt(0, 11));
  c.bases_store.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    FragmentStats f;
    f.interval = RandomPiece(rng, domain);
    const double roll = rng->NextDouble();
    FragmentStats base;
    base.interval = f.interval;
    if (roll < 0.15) {
      // Every hit timed out at t_now.
      AddRandomHits(rng, 5, 1.0, t_now - 50.0, domain, &base);
    } else {
      AddRandomHits(rng, static_cast<int>(rng->UniformInt(0, 30)), 1.0,
                    t_now, domain, &base);
    }
    if (rng->NextDouble() < 0.5) base.AdvanceWindow(t_now - 5.0, dec);
    // Query-local suffix on the shadow fragment.
    AddRandomHits(rng, static_cast<int>(rng->UniformInt(0, 3)), t_now, t_now,
                  domain, &f);
    c.bases_store.push_back(std::move(base));
    c.frags.push_back(std::move(f));
  }
  // Shadow shape: some fragments have a base, some are planner-added.
  for (int i = 0; i < n; ++i) {
    c.bases.push_back(rng->NextDouble() < 0.7
                          ? &c.bases_store[static_cast<size_t>(i)]
                          : nullptr);
  }
  // In-place shape: each fragment carries its own full history.
  c.folded = c.bases_store;
  for (int i = 0; i < n; ++i) {
    for (const FragmentHit& h : c.frags[static_cast<size_t>(i)].hits()) {
      c.folded[static_cast<size_t>(i)].AppendHit(h);
    }
  }
  return c;
}

TEST(MleModelTest, OnePassMatchesTwoPassReferenceOnRandomPartitions) {
  const Interval domain(0.0, 1000.0);
  Rng rng(20161);
  int spread = 0;
  int fitted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool decay_on = trial % 2 == 0;
    const DecayFunction dec(DecayConfig{/*t_max=*/40.0, decay_on});
    const double t_now = 200.0;
    const RandomCase c = MakeRandomCase(&rng, domain, t_now, dec);

    const auto shadow =
        MleFragmentModel::Adjust(Part(c.frags, domain), t_now, dec,
                                 ShadowBases{nullptr, &c.bases});
    ExpectMatchesReference(shadow, c.frags,
                           TwoPassAdjust(c.frags, domain, t_now, dec, &c.bases));
    const auto in_place =
        MleFragmentModel::Adjust(Part(c.folded, domain), t_now, dec);
    ExpectMatchesReference(in_place, c.folded,
                           TwoPassAdjust(c.folded, domain, t_now, dec, nullptr));
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

// --- H_A on demand vs the eager loop ------------------------------------
//
// Adjust used to compute every fragment's H_A; AdjustedHits::Of computes
// one when it is read. EagerHits is the loop Adjust ran, kept as the
// oracle: each read-out must equal it bit for bit, for partitions read
// in place and as a shadow, with a fit that smooths, with the fallback
// to raw hits when sigma is too wide, and with no hits at all.

std::vector<double> EagerHits(const MleFragmentModel::AdjustedHits& adj,
                              const std::vector<FragmentStats>& fragments,
                              const Interval& domain) {
  if (!adj.fit.valid ||
      adj.fit.stddev > MleFragmentModel::kMaxStddevFraction * domain.Width()) {
    return adj.raw;
  }
  std::vector<double> hits(fragments.size(), 0.0);
  for (size_t i = 0; i < fragments.size(); ++i) {
    const Interval& iv = fragments[i].interval;
    const double p_hi = NormalCdf(iv.hi, adj.fit.mean, adj.fit.stddev);
    const double p_lo = NormalCdf(iv.lo, adj.fit.mean, adj.fit.stddev);
    hits[i] = adj.total * std::max(0.0, p_hi - p_lo);
  }
  return hits;
}

TEST(MleModelTest, OnDemandReadOutEqualsEagerLoop) {
  Rng rng(4231);
  int smoothed = 0;
  int too_wide = 0;
  int no_hits = 0;
  auto check = [&](const std::vector<FragmentStats>& frags,
                   const Interval& domain, double t_now,
                   const DecayFunction& dec,
                   const std::vector<const FragmentStats*>* bases) {
    const auto adj = MleFragmentModel::Adjust(Part(frags, domain), t_now, dec,
                                              ShadowBases{nullptr, bases});
    EXPECT_EQ(ReadOut(adj, frags), EagerHits(adj, frags, domain));
    if (adj.smoothed) {
      ++smoothed;
    } else if (adj.fit.valid) {
      ++too_wide;
    } else if (adj.total == 0.0) {
      ++no_hits;
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    const DecayFunction dec(DecayConfig{/*t_max=*/40.0, trial % 2 == 0});
    const double t_now = 200.0;
    // Random pieces over a wide domain: mostly too dispersed to smooth.
    const Interval wide(0.0, 1000.0);
    const RandomCase c = MakeRandomCase(&rng, wide, t_now, dec);
    check(c.frags, wide, t_now, dec, &c.bases);
    check(c.folded, wide, t_now, dec, nullptr);
    // The same pieces without hits, in place and over hit-less bases.
    std::vector<FragmentStats> bare;
    for (const FragmentStats& f : c.frags) {
      FragmentStats b;
      b.interval = f.interval;
      bare.push_back(std::move(b));
    }
    std::vector<const FragmentStats*> bare_bases;
    for (const FragmentStats& b : bare) bare_bases.push_back(&b);
    check(bare, wide, t_now, dec, nullptr);
    check(bare, wide, t_now, dec, &bare_bases);
    // A hot spot the fit smooths, in place and as a shadow whose bases
    // hold the history.
    const Interval hot_domain(0.0, 100.0);
    const std::vector<FragmentStats> hot = HitFragments(&rng, t_now - 1.0);
    check(hot, hot_domain, t_now, dec, nullptr);
    std::vector<FragmentStats> local;
    std::vector<const FragmentStats*> hot_bases;
    for (const FragmentStats& b : hot) {
      FragmentStats s;
      s.interval = b.interval;
      if (rng.NextDouble() < 0.3) s.RecordHit(t_now);
      local.push_back(std::move(s));
      hot_bases.push_back(&b);
    }
    check(local, hot_domain, t_now, dec, &hot_bases);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trial " << trial;
    }
  }
  // Every case was reached: 111 smoothed, 688 too wide and 401 without
  // hits of the 1,200 fits.
  EXPECT_GT(smoothed, 50);
  EXPECT_GT(too_wide, 300);
  EXPECT_GE(no_hits, 400);
}

// --- fixed-point part mass vs the double-precision fit -----------------
//
// The fit used to accumulate each part's decayed mass in double, adding
// DEC(t_now, t_k) · overlap / width hit by hit. The reference below is
// that Adjust's part mass, kept verbatim, with H(I) taken by its
// definition. The fixed-point sums round each term once and sum
// exactly, so the two fits may differ only by rounding: H_total is the
// same, and mu, sigma and every H_A stay within 1e-8 relative of the
// double fit. Two outputs are exact in either arithmetic only to a
// floor: a sliver fragment's H_A is a difference of two nearly equal CDF
// values, good to about 1e-16 of H_total, so its error is taken relative
// to 1e-6 of H_total; and when all mass sits on one part sigma is the
// rounding noise of mu (about 1e-15 where the double fit gets a nonzero
// sigma and the fixed-point one 0), so it is taken relative to 1e-6 of
// the domain width.

EagerFit DoubleAdjust(const std::vector<FragmentStats>& fragments,
                      const Interval& domain, double t_now,
                      const DecayFunction& dec,
                      const std::vector<const FragmentStats*>* bases) {
  EagerFit out;
  out.hits.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  // Split the domain into equi-size parts and spread each fragment's
  // hits over the parts it covers (the paper splits hits evenly over
  // contained parts; we use overlap-proportional spreading, which
  // coincides when boundaries align with the part grid).
  const int num_parts = MleFragmentModel::ChoosePartCount(fragments, domain);
  const double part_width = domain.Width() / num_parts;
  std::vector<double> part_hits(static_cast<size_t>(num_parts), 0.0);

  // One visit per live hit: spread its weight. Hits before
  // LiveHitsBegin weigh exactly 0.0, so skipping them spreads nothing.
  auto visit_live_hits = [&](const Interval& iv, const FragmentStats& f) {
    const std::vector<FragmentHit>& hits = f.hits();
    for (size_t k = f.LiveHitsBegin(t_now, dec); k < hits.size(); ++k) {
      const FragmentHit& hit = hits[k];
      const double w = dec(t_now, hit.time);
      if (w <= 0.0) continue;
      // Spread the hit over the region the query actually touched
      // (hit.range, clamped to the fragment) when recorded; otherwise
      // over the whole fragment (the paper's even split). A clamp of
      // positive width is computed inline; the rare degenerate clamp
      // (a point, or no overlap) takes Interval::Intersect's rules.
      double lo = iv.lo;
      double hi = iv.hi;
      double width = iv.Width();
      if (hit.has_range) {
        const double clamped_lo = std::max(hit.range.lo, iv.lo);
        const double clamped_hi = std::min(hit.range.hi, iv.hi);
        if (clamped_hi - clamped_lo > 0.0) {
          lo = clamped_lo;
          hi = clamped_hi;
          width = clamped_hi - clamped_lo;
        } else if (const auto clamped = hit.range.Intersect(iv)) {
          lo = clamped->lo;
          hi = clamped->hi;
          width = clamped->Width();
        }
      }
      if (width <= 0.0) {
        int p = static_cast<int>((lo - domain.lo) / part_width);
        p = std::clamp(p, 0, num_parts - 1);
        part_hits[static_cast<size_t>(p)] += w;
        continue;
      }
      // Only parts overlapping the region can receive mass.
      int first = static_cast<int>((lo - domain.lo) / part_width);
      int last = static_cast<int>((hi - domain.lo) / part_width);
      first = std::clamp(first, 0, num_parts - 1);
      last = std::clamp(last, 0, num_parts - 1);
      for (int p = first; p <= last; ++p) {
        const double part_lo = domain.lo + part_width * p;
        const double part_hi = domain.lo + part_width * (p + 1);
        const double overlap = std::min(part_hi, hi) - std::max(part_lo, lo);
        if (overlap > 0.0) {
          part_hits[static_cast<size_t>(p)] += w * overlap / width;
        }
      }
    }
  };

  // H(I) per fragment (by its definition, over base then local hits)
  // and H_total; the spread visits base and local hits alike.
  std::vector<double> frag_hits(fragments.size(), 0.0);
  for (size_t i = 0; i < fragments.size(); ++i) {
    const Interval& iv = fragments[i].interval;
    const FragmentStats* base =
        bases != nullptr && i < bases->size() ? (*bases)[i] : nullptr;
    if (base != nullptr) visit_live_hits(iv, *base);
    visit_live_hits(iv, fragments[i]);
    frag_hits[i] = DefinitionHits(base, fragments[i], t_now, dec);
    out.total += frag_hits[i];
  }
  if (out.total <= 0.0) return out;

  std::vector<double> part_mids(static_cast<size_t>(num_parts), 0.0);
  for (int p = 0; p < num_parts; ++p) {
    part_mids[static_cast<size_t>(p)] = domain.lo + part_width * (p + 0.5);
  }

  // MLE Normal fit over part midpoints weighted by part hits.
  out.fit = FitNormalMle(part_mids, part_hits);
  if (!out.fit.valid ||
      out.fit.stddev > MleFragmentModel::kMaxStddevFraction * domain.Width()) {
    // Nothing to smooth, or the access pattern is too dispersed for a
    // Normal (see MleFragmentModel::kMaxStddevFraction): use raw hits.
    out.hits = frag_hits;
    return out;
  }

  // Adjusted hits per fragment through the fitted CDF.
  for (size_t i = 0; i < fragments.size(); ++i) {
    const Interval& iv = fragments[i].interval;
    const double p_hi = NormalCdf(iv.hi, out.fit.mean, out.fit.stddev);
    const double p_lo = NormalCdf(iv.lo, out.fit.mean, out.fit.stddev);
    out.hits[i] = out.total * std::max(0.0, p_hi - p_lo);
  }
  return out;
}

/// Largest relative error of `a` against the reference `b` over mu,
/// sigma and every H_A. Sigma is taken relative to at least 1e-6 of the
/// domain width, an H_A relative to at least 1e-6 of H_total.
double MaxRelativeError(const MleFragmentModel::AdjustedHits& a,
                        const std::vector<FragmentStats>& fragments,
                        const EagerFit& b, const Interval& domain) {
  auto rel = [](double x, double y, double floor) {
    return x == y ? 0.0 : std::fabs(x - y) / std::max(std::fabs(y), floor);
  };
  double worst =
      std::max(rel(a.fit.mean, b.fit.mean, 0.0),
               rel(a.fit.stddev, b.fit.stddev, 1e-6 * domain.Width()));
  const std::vector<double> hits = ReadOut(a, fragments);
  for (size_t i = 0; i < hits.size(); ++i) {
    worst = std::max(worst, rel(hits[i], b.hits[i], 1e-6 * b.total));
  }
  return worst;
}

TEST(MleModelTest, FixedPointFitStaysWithinBoundOfDoublePrecisionFit) {
  const Interval domain(0.0, 1000.0);
  Rng rng(30217);
  double worst = 0.0;
  int fitted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool decay_on = trial % 4 != 3;
    const DecayFunction dec(DecayConfig{/*t_max=*/40.0, decay_on});
    const double t_now = trial % 2 == 0 ? 200.0 : 187.25;
    const RandomCase c = MakeRandomCase(&rng, domain, t_now, dec);
    const auto shadow =
        MleFragmentModel::Adjust(Part(c.frags, domain), t_now, dec,
                                 ShadowBases{nullptr, &c.bases});
    const auto shadow_ref =
        DoubleAdjust(c.frags, domain, t_now, dec, &c.bases);
    const auto in_place =
        MleFragmentModel::Adjust(Part(c.folded, domain), t_now, dec);
    const auto in_place_ref =
        DoubleAdjust(c.folded, domain, t_now, dec, nullptr);
    for (const auto* pair : {&shadow, &in_place}) {
      const auto& ref = pair == &shadow ? shadow_ref : in_place_ref;
      const auto& frags = pair == &shadow ? c.frags : c.folded;
      ASSERT_EQ(pair->raw.size(), ref.hits.size());
      EXPECT_EQ(pair->total, ref.total) << "trial " << trial;
      EXPECT_EQ(pair->fit.valid, ref.fit.valid) << "trial " << trial;
      const double err = MaxRelativeError(*pair, frags, ref, domain);
      EXPECT_LE(err, 1e-8) << "trial " << trial;
      worst = std::max(worst, err);
      if (ref.fit.valid) ++fitted;
    }
  }
  EXPECT_GT(fitted, 200);
  RecordProperty("max_relative_error", std::to_string(worst));
  std::printf("max relative error vs the double-precision fit: %.3g\n", worst);
}

// --- kept part mass vs the from-scratch fit --------------------------
//
// A pooled partition keeps its part mass through appends in and out of
// time order (a sharded commit folds hits at its planned time after a
// later one), window advances, AdoptHits splices, Tracks that change
// ChoosePartCount, t_max changes and decay off. Adjust reads the kept
// mass; AdjustFromScratch spreads every live hit again. After every step
// the two fits must be equal bit for bit, for the partition read in
// place and for a planning shadow over it (base history + local hits +
// planner-added fragments), and the kept mass must equal a rebuild.

/// Appends one hit at `time` to `f`, with a range drawn as in
/// AddRandomHits.
void AppendHitAt(Rng* rng, double time, const Interval& domain,
                 FragmentStats* f) {
  AddRandomHits(rng, 1, time, time, domain, f);
}

/// A shadow of `base` as PlanningDelta::MakeShadow builds it (fragments
/// without history, no part mass), with local hits at `t_now` and
/// planner-added fragments; `bases` receives the base pointers and
/// `folded` the partition the fold would produce.
PartitionState MakeShadowOf(Rng* rng, const PartitionState& base,
                            double t_now,
                            std::vector<const FragmentStats*>* bases,
                            PartitionState* folded) {
  PartitionState shadow = base.CopyWithoutHits();
  for (const FragmentStats& f : base.fragments()) bases->push_back(&f);
  for (FragmentStats& f : shadow.mutable_fragments()) {
    if (rng->NextDouble() < 0.3) AppendHitAt(rng, t_now, base.domain, &f);
  }
  *folded = base;
  for (size_t i = 0; i < base.fragments().size(); ++i) {
    for (const FragmentHit& h : shadow.fragments()[i].hits()) {
      folded->mutable_fragments()[i].AppendHit(h);
    }
  }
  const int added = static_cast<int>(rng->UniformInt(0, 2));
  for (int a = 0; a < added; ++a) {
    // Usually as wide as a tracked fragment (the grid stays), sometimes
    // narrower than all of them (the grid changes).
    const FragmentStats& like = base.fragments()[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(base.fragments().size()) - 1))];
    const double width =
        rng->NextDouble() < 0.8 ? like.interval.Width() : 0.5;
    const double lo = rng->Uniform(base.domain.lo, base.domain.hi - width);
    const Interval iv(lo, lo + width);
    if (shadow.Find(iv) != nullptr) continue;
    // Inherited history (as the selection planner gives a planned
    // fragment) plus a local hit.
    FragmentStats* f = shadow.Track(iv, 1.0).first;
    f->AdoptHits(like.hits());
    AppendHitAt(rng, t_now, base.domain, f);
    bases->push_back(nullptr);
    folded->Track(iv, 1.0).first->AdoptHits(f->hits());
  }
  return shadow;
}

TEST(MleModelTest, KeptPartMassFitEqualsFromScratchBitForBit) {
  const Interval domain(0.0, 1000.0);
  Rng rng(3021);
  int in_place_kept = 0;
  int shadow_kept = 0;
  int fitted = 0;
  int steps = 0;
  for (int trial = 0; trial < 48; ++trial) {
    const bool decay_on = trial % 4 != 3;
    const bool fractional = trial % 2 == 1;
    DecayFunction dec(DecayConfig{fractional ? 30.5 : 30.0, decay_on});
    PartitionState part = Part({}, domain);
    const int n = 2 + static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      FragmentStats* f = part.Track(RandomPiece(&rng, domain), 1.0).first;
      f->materialized = i == 0 || rng.NextDouble() < 0.5;
    }
    double t = 1.0;
    for (int step = 0; step < 40; ++step, ++steps) {
      t += fractional ? rng.Uniform(0.25, 2.0) : 1.0;
      const double roll = rng.NextDouble();
      if (roll < 0.6) {
        // A fold: hits at t, a third of them planned earlier and folded
        // late (out of time order).
        const int hits = 1 + static_cast<int>(rng.UniformInt(0, 4));
        for (int h = 0; h < hits; ++h) {
          const double late = fractional ? rng.Uniform(0.0, 8.0)
                                         : static_cast<double>(
                                               rng.UniformInt(1, 8));
          const double time = rng.NextDouble() < 0.33 ? t - late : t;
          AppendHitAt(&rng, time, domain,
                      &part.mutable_fragments()[static_cast<size_t>(
                          rng.UniformInt(0, static_cast<int64_t>(
                                                part.fragments().size()) -
                                                1))]);
        }
      } else if (roll < 0.7) {
        // A merge-style splice: one fragment adopts two histories.
        const size_t a = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(part.fragments().size()) -
                                  1));
        const size_t b = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(part.fragments().size()) -
                                  1));
        std::vector<FragmentHit> joined = part.fragments()[a].hits();
        const std::vector<FragmentHit>& more = part.fragments()[b].hits();
        joined.insert(joined.end(), more.begin(), more.end());
        part.mutable_fragments()[a].AdoptHits(std::move(joined));
      } else if (roll < 0.8) {
        // A narrow Track: ChoosePartCount grows.
        const double width = rng.Uniform(0.5, 20.0);
        const double lo = rng.Uniform(domain.lo, domain.hi - width);
        FragmentStats* f = part.Track(Interval(lo, lo + width), 1.0).first;
        f->materialized = rng.NextDouble() < 0.5;
        AppendHitAt(&rng, t, domain, f);
      } else if (roll < 0.85) {
        // t_max changes: the kept mass no longer matches, so the fit
        // falls back until the next refresh rebuilds it.
        dec = DecayFunction(DecayConfig{dec.config().t_max + 4.0, decay_on});
        ExpectSameAdjust(MleFragmentModel::Adjust(part, t, dec),
                         MleFragmentModel::AdjustFromScratch(part, t, dec));
      }
      // The commit's maintenance: cursors, then the part mass.
      for (FragmentStats& f : part.mutable_fragments()) f.AdvanceWindow(t, dec);
      MleFragmentModel::RefreshPartMass(&part, t, dec);
      ASSERT_TRUE(part.mass.kept());
      PartMass rebuilt;
      rebuilt.Rebuild(part.fragments(), MleFragmentModel::GridOf(part), dec,
                      part.mass.t());
      ASSERT_TRUE(part.mass == rebuilt)
          << "trial " << trial << " step " << step;

      for (double t_now : {t, t + 1.0, t + 12.5}) {
        if (part.mass.Covers(part.fragments(), MleFragmentModel::GridOf(part),
                             dec)) {
          ++in_place_kept;
        }
        const auto kept = MleFragmentModel::Adjust(part, t_now, dec);
        ExpectSameAdjust(
            kept, MleFragmentModel::AdjustFromScratch(part, t_now, dec));
        if (kept.fit.valid) ++fitted;
      }
      std::vector<const FragmentStats*> bases;
      PartitionState folded;
      const double t_plan = t + 1.0;
      const PartitionState shadow =
          MakeShadowOf(&rng, part, t_plan, &bases, &folded);
      const ShadowBases sb{&part, &bases};
      if (part.mass.Covers(part.fragments(), MleFragmentModel::GridOf(shadow),
                           dec)) {
        ++shadow_kept;
      }
      const auto kept = MleFragmentModel::Adjust(shadow, t_plan, dec, sb);
      ExpectSameAdjust(
          kept, MleFragmentModel::AdjustFromScratch(shadow, t_plan, dec, sb));
      ExpectSameAdjust(
          kept, MleFragmentModel::AdjustFromScratch(folded, t_plan, dec));
      if (::testing::Test::HasFailure()) {
        FAIL() << "trial " << trial << " step " << step;
      }
    }
  }
  // Most fits read the kept mass; the rest exercised the fallback.
  EXPECT_GT(in_place_kept, 2 * steps);
  EXPECT_GT(shadow_kept, steps / 2);
  EXPECT_LT(shadow_kept, steps);
  EXPECT_GT(fitted, steps);
}

TEST(MleModelTest, SingleFragmentAllMass) {
  DecayFunction dec(DecayConfig{1e9, true});
  std::vector<FragmentStats> frags = {Frag(0, 100, 5)};
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(0, 100)), 100, dec);
  EXPECT_NEAR(adj.Of(0, frags[0].interval), adj.total, 0.25 * adj.total);
}

TEST(MleModelTest, EmptyDomainSafe) {
  DecayFunction dec;
  std::vector<FragmentStats> frags = {Frag(5, 5, 3)};
  const auto adj =
      MleFragmentModel::Adjust(Part(frags, Interval(5, 5)), 100, dec);
  EXPECT_EQ(adj.raw.size(), 1u);
  EXPECT_EQ(adj.Of(0, frags[0].interval), 0.0);
}

}  // namespace
}  // namespace deepsea
