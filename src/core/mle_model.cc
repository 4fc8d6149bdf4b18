#include "core/mle_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace deepsea {

int MleFragmentModel::ChoosePartCount(const std::vector<FragmentStats>& fragments,
                                      const Interval& domain) {
  const double domain_width = domain.Width();
  if (domain_width <= 0.0) return 1;
  // Smallest fragment width determines the finest grid we need so that
  // every fragment spans at least one whole part.
  double min_frag_width = domain_width;
  for (const FragmentStats& f : fragments) {
    const double w = f.interval.Width();
    if (w > 0.0) min_frag_width = std::min(min_frag_width, w);
  }
  // Cap in double before converting: a sliver fragment makes the ratio
  // exceed INT_MAX, and an out-of-range double -> int conversion is
  // undefined (x86 yields INT_MIN, silently dropping the cap).
  const double needed =
      std::min(std::ceil(domain_width / min_frag_width),
               static_cast<double>(kMaxParts));
  int parts = std::max(kTargetParts, static_cast<int>(needed));
  parts = std::min(parts, kMaxParts);
  return std::max(parts, 1);
}

PartGrid MleFragmentModel::GridOf(const PartitionState& part) {
  return PartGrid(part.domain, ChoosePartCount(part.fragments(), part.domain));
}

void MleFragmentModel::RefreshPartMass(PartitionState* part, double t,
                                       const DecayFunction& dec) {
  // Fits read the masses of pooled partitions. A partition that leaves
  // the pool keeps its mass dormant: exact at its time over the hits it
  // covers, no longer advanced. Partitions leave and re-enter a bounded
  // pool often, and re-entry then costs an update, not a rebuild.
  if (!part->AnyMaterialized()) return;
  // A time-weighted sum needs t > 0 (DEC is 1 at t <= 0).
  if (part->domain.Width() <= 0.0 || (dec.config().enabled && t <= 0.0)) {
    part->mass.Clear();
    return;
  }
  const PartGrid grid = GridOf(*part);
  if (part->mass.grid() == grid &&
      part->mass.Update(part->fragments(), dec, t)) {
    return;
  }
  part->mass.Rebuild(part->fragments(), grid, dec, t);
}

double MleFragmentModel::AdjustedHits::Of(size_t i, const Interval& iv) const {
  if (!smoothed) return raw[i];
  const double p_hi = NormalCdf(iv.hi, fit.mean, fit.stddev);
  const double p_lo = NormalCdf(iv.lo, fit.mean, fit.stddev);
  return total * std::max(0.0, p_hi - p_lo);
}

MleFragmentModel::AdjustedHits MleFragmentModel::Adjust(
    const PartitionState& part, double t_now, const DecayFunction& dec,
    const ShadowBases& bases) {
  return Fit(part, t_now, dec, bases, /*use_kept_mass=*/true);
}

MleFragmentModel::AdjustedHits MleFragmentModel::AdjustFromScratch(
    const PartitionState& part, double t_now, const DecayFunction& dec,
    const ShadowBases& bases) {
  return Fit(part, t_now, dec, bases, /*use_kept_mass=*/false);
}

MleFragmentModel::AdjustedHits MleFragmentModel::Fit(
    const PartitionState& part, double t_now, const DecayFunction& dec,
    const ShadowBases& bases, bool use_kept_mass) {
  const std::vector<FragmentStats>& fragments = part.fragments();
  const Interval& domain = part.domain;
  AdjustedHits out;
  out.raw.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  auto base_of = [&bases](size_t i) -> const FragmentStats* {
    return bases.fragments != nullptr && i < bases.fragments->size()
               ? (*bases.fragments)[i]
               : nullptr;
  };

  // H(I) per fragment, a shadow's from its base's and its local time
  // sums divided once, as the folded fragment's; H_total is the sum of
  // the raw values in fragment order.
  for (size_t i = 0; i < fragments.size(); ++i) {
    out.raw[i] =
        FragmentStats::DecayedHitsOf(base_of(i), fragments[i], t_now, dec);
    out.total += out.raw[i];
  }
  if (out.total <= 0.0) return out;

  // The part mass: Σ over hits with DEC(t_now, t_k) > 0 of t_k · spread
  // (spread alone when DEC is 1), in exact fixed point. A shadow reads
  // its base partition's kept mass and adds its local hits; a partition
  // read in place reads its own.
  const PartGrid grid = GridOf(part);
  const bool time_weighted = dec.config().enabled && t_now > 0.0;
  std::vector<FixedPoint::Sum> sums;
  auto add_hits = [&](const Interval& iv, const FragmentStats& f) {
    const std::vector<FragmentHit>& hits = f.hits();
    for (size_t k = f.LiveHitsBegin(t_now, dec); k < hits.size(); ++k) {
      const FragmentHit& h = hits[k];
      if (!(dec(t_now, h.time) > 0.0)) continue;
      PartMass::Spread(grid, iv, h, time_weighted ? h.time : 1.0, +1,
                       sums.data());
    }
  };
  const PartitionState* owner =
      bases.fragments == nullptr ? &part : bases.partition;
  if (use_kept_mass && owner != nullptr && owner->mass.t() <= t_now &&
      owner->mass.Covers(owner->fragments(), grid, dec)) {
    owner->mass.SumsAt(owner->fragments(), dec, t_now, &sums);
    if (owner != &part) {
      // The shadow's fragments start with one copy of each base fragment
      // (PlanningDelta::MakeShadow), so the base's mass holds exactly
      // their histories; every shadow hit is local.
      assert(owner->fragments().empty() ||
             (bases.fragments->size() >= owner->fragments().size() &&
              (*bases.fragments)[0] == owner->fragments().data()));
      for (const FragmentStats& f : fragments) add_hits(f.interval, f);
    }
  } else {
    sums.assign(static_cast<size_t>(grid.num_parts), 0);
    for (size_t i = 0; i < fragments.size(); ++i) {
      if (const FragmentStats* base = base_of(i)) {
        add_hits(fragments[i].interval, *base);
      }
      add_hits(fragments[i].interval, fragments[i]);
    }
  }

  // MLE Normal fit over part midpoints weighted by the true part masses
  // (the 1/t_now scale matters: the variance divides by W - 1).
  std::vector<double> part_mids(static_cast<size_t>(grid.num_parts), 0.0);
  std::vector<double> part_hits(static_cast<size_t>(grid.num_parts), 0.0);
  for (int p = 0; p < grid.num_parts; ++p) {
    const size_t pi = static_cast<size_t>(p);
    part_mids[pi] = domain.lo + grid.part_width * (p + 0.5);
    part_hits[pi] = FixedPoint::Weight(sums[pi], time_weighted, t_now);
  }
  out.fit = FitNormalMle(part_mids, part_hits);
  // Nothing to smooth, or the access pattern is too dispersed for a
  // Normal (see kMaxStddevFraction): Of reads the raw hits.
  out.smoothed = out.fit.valid &&
                 !(out.fit.stddev > kMaxStddevFraction * domain.Width());
  return out;
}

}  // namespace deepsea
