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

  // Split the domain into equi-size parts and spread each fragment's
  // hits over the parts it covers (the paper splits hits evenly over
  // contained parts; we use overlap-proportional spreading, which
  // coincides when boundaries align with the part grid).
  const int num_parts = ChoosePartCount(fragments, domain);
  const double part_width = domain.Width() / num_parts;
  std::vector<double> part_hits(static_cast<size_t>(num_parts), 0.0);

  // One visit per live hit: add its weight to the fragment's H(I), then
  // spread it. Hits before LiveHitsBegin weigh exactly 0.0, so skipping
  // them adds nothing to H(I) and spreads nothing — bit-identical to a
  // full replay.
  auto visit_live_hits = [&](const Interval& iv, const FragmentStats& f,
                             double* h) {
    const std::vector<FragmentHit>& hits = f.hits();
    for (size_t k = f.LiveHitsBegin(t_now, dec); k < hits.size(); ++k) {
      const FragmentHit& hit = hits[k];
      const double w = dec(t_now, hit.time);
      *h += w;
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

  // H(I) per fragment and H_total. With a base, visit base-then-local
  // exactly as the folded fragment's own hit list is ordered.
  std::vector<double> frag_hits(fragments.size(), 0.0);
  for (size_t i = 0; i < fragments.size(); ++i) {
    const Interval& iv = fragments[i].interval;
    double h = 0.0;
    if (bases != nullptr && i < bases->size() && (*bases)[i] != nullptr) {
      visit_live_hits(iv, *(*bases)[i], &h);
    }
    visit_live_hits(iv, fragments[i], &h);
    frag_hits[i] = h;
    out.total += h;
  }
  if (out.total <= 0.0) return out;

  std::vector<double> part_mids(static_cast<size_t>(num_parts), 0.0);
  for (int p = 0; p < num_parts; ++p) {
    part_mids[static_cast<size_t>(p)] = domain.lo + part_width * (p + 0.5);
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
