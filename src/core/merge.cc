#include "core/merge.h"

#include <algorithm>
#include <set>

namespace deepsea {

bool AreAdjacent(const Interval& a, const Interval& b) {
  const Interval& lo = a.lo <= b.lo ? a : b;
  const Interval& hi = a.lo <= b.lo ? b : a;
  if (lo.hi != hi.lo) return false;
  // Exactly one side must own the shared point: [x, p) + [p, y] or
  // [x, p] + (p, y]. Both-inclusive overlaps; both-open leaves a gap.
  return lo.hi_inclusive != hi.lo_inclusive;
}

double CoAccess(const FragmentStats& a, const FragmentStats& b, double t_now,
                const DecayFunction& dec) {
  std::set<double> times_a, times_b;
  double wa = 0.0, wb = 0.0;
  for (const FragmentHit& h : a.hits()) {
    if (dec(t_now, h.time) > 0.0) {
      times_a.insert(h.time);
      wa += 1.0;
    }
  }
  for (const FragmentHit& h : b.hits()) {
    if (dec(t_now, h.time) > 0.0) {
      times_b.insert(h.time);
      wb += 1.0;
    }
  }
  if (times_a.empty() || times_b.empty()) return 0.0;
  double shared = 0.0;
  for (double t : times_a) {
    if (times_b.count(t)) shared += 1.0;
  }
  return shared / std::max(static_cast<double>(times_a.size()),
                           static_cast<double>(times_b.size()));
}

std::vector<MergeCandidate> FindMergeCandidates(ViewCatalog* views,
                                                const MergeConfig& config,
                                                double t_now,
                                                const DecayFunction& dec) {
  std::vector<MergeCandidate> out;
  if (!config.enabled) return out;
  for (ViewInfo* view : views->AllViews()) {
    for (auto& [attr, part] : view->partitions) {
      (void)attr;
      // Collect indices of materialized fragments sorted by interval.
      const std::vector<FragmentStats>& frags = part.fragments();
      std::vector<size_t> mats;
      for (size_t i = 0; i < frags.size(); ++i) {
        if (frags[i].materialized) mats.push_back(i);
      }
      std::sort(mats.begin(), mats.end(), [&](size_t x, size_t y) {
        return IntervalLess(frags[x].interval, frags[y].interval);
      });
      for (size_t k = 0; k + 1 < mats.size(); ++k) {
        const FragmentStats& a = frags[mats[k]];
        const FragmentStats& b = frags[mats[k + 1]];
        if (!AreAdjacent(a.interval, b.interval)) continue;
        if (static_cast<int>(a.hits().size()) < config.min_hits ||
            static_cast<int>(b.hits().size()) < config.min_hits) {
          continue;
        }
        const double combined = a.size_bytes + b.size_bytes;
        if (combined >
            config.max_merged_fraction * std::max(view->stats.size_bytes, 1.0)) {
          continue;
        }
        const double co = CoAccess(a, b, t_now, dec);
        if (co < config.min_co_access) continue;
        MergeCandidate cand;
        cand.view = view;
        cand.part = &part;
        cand.left_index = mats[k];
        cand.right_index = mats[k + 1];
        const Interval& lo = a.interval.lo <= b.interval.lo ? a.interval
                                                            : b.interval;
        const Interval& hi = a.interval.lo <= b.interval.lo ? b.interval
                                                            : a.interval;
        cand.merged = Interval(lo.lo, hi.hi, lo.lo_inclusive, hi.hi_inclusive);
        cand.co_access = co;
        cand.combined_bytes = combined;
        out.push_back(cand);
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MergeCandidate& x, const MergeCandidate& y) {
              return x.co_access > y.co_access;
            });
  return out;
}

}  // namespace deepsea
