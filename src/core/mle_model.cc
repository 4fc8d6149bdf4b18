#include "core/mle_model.h"

#include <algorithm>
#include <cmath>

namespace deepsea {

int MleFragmentModel::ChoosePartCount(const std::vector<FragmentStats>& fragments,
                                      const Interval& domain) const {
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
               static_cast<double>(cfg_.max_parts));
  int parts = std::max(cfg_.target_parts, static_cast<int>(needed));
  parts = std::min(parts, cfg_.max_parts);
  return std::max(parts, 1);
}

MleFragmentModel::AdjustedHits MleFragmentModel::Adjust(
    const std::vector<FragmentStats>& fragments, const Interval& domain,
    double t_now, const DecayFunction& dec,
    const std::vector<const FragmentStats*>* bases) const {
  AdjustedHits out;
  out.hits.assign(fragments.size(), 0.0);
  if (fragments.empty() || domain.Width() <= 0.0) return out;

  auto base_of = [bases](size_t i) -> const FragmentStats* {
    return bases != nullptr && i < bases->size() ? (*bases)[i] : nullptr;
  };

  // H(I) per fragment and H_total. With a base, accumulate base-then-
  // local exactly as the folded fragment's own DecayedHits would.
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

  // Split the domain into equi-size parts and spread each fragment's
  // hits over the parts it covers (the paper splits hits evenly over
  // contained parts; we use overlap-proportional spreading, which
  // coincides when boundaries align with the part grid).
  const int num_parts = ChoosePartCount(fragments, domain);
  const double part_width = domain.Width() / num_parts;
  std::vector<double> part_hits(static_cast<size_t>(num_parts), 0.0);
  std::vector<double> part_mids(static_cast<size_t>(num_parts), 0.0);
  for (int p = 0; p < num_parts; ++p) {
    part_mids[static_cast<size_t>(p)] = domain.lo + part_width * (p + 0.5);
  }
  auto spread_hit = [&](const Interval& iv, const FragmentHit& hit) {
    const double w = dec(t_now, hit.time);
    if (w <= 0.0) return;
    // Spread the hit over the region the query actually touched
    // (hit.range, clamped to the fragment) when recorded; otherwise
    // over the whole fragment (the paper's even split).
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
    // Only parts overlapping the region can receive mass.
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
  // Only the in-window suffix of each hit list is replayed: hits in the
  // certified timed-out prefix weigh exactly 0.0, which spread_hit
  // skips anyway.
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

  // MLE Normal fit over part midpoints weighted by part hits.
  out.fit = FitNormalMle(part_mids, part_hits);
  if (!out.fit.valid ||
      out.fit.stddev > cfg_.max_stddev_fraction * domain.Width()) {
    // Nothing to smooth, or the access pattern is too dispersed for a
    // Normal (see MleConfig::max_stddev_fraction): use raw hits.
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

}  // namespace deepsea
