#include "core/partition_match.h"

namespace deepsea {

std::optional<std::vector<size_t>> PartitionMatch(
    const std::vector<Interval>& fragments, const Interval& range) {
  std::vector<size_t> cover;
  if (range.IsEmpty()) return cover;
  // Frontier semantics: `u_covered` is the highest point covered so far
  // (inclusively when frontier_inclusive). Initialized just below the
  // range's lower bound so that the first chosen fragment must contain
  // the lower endpoint itself.
  double u_covered = range.lo;
  bool frontier_inclusive = !range.lo_inclusive;  // lo open => point lo needs no cover
  while (u_covered < range.hi ||
         (u_covered == range.hi && range.hi_inclusive && !frontier_inclusive)) {
    // Candidates: fragments that cover the frontier point (or extend
    // coverage past it when the frontier is already inclusive). An
    // empty or reversed fragment can pass only one of the two tests.
    int best = -1;
    for (size_t i = 0; i < fragments.size(); ++i) {
      const Interval& f = fragments[i];
      const bool starts_ok =
          f.lo < u_covered ||
          (f.lo == u_covered && (f.lo_inclusive || frontier_inclusive));
      if (!starts_ok) continue;
      const bool extends =
          f.hi > u_covered ||
          (f.hi == u_covered && f.hi_inclusive && !frontier_inclusive);
      if (!extends) continue;
      // Greedy: largest lower bound among qualifying fragments. Ties
      // are broken to minimize over-read: if a fragment already reaches
      // the end of the query range, the *smallest* such fragment wins;
      // otherwise the one reaching furthest wins.
      if (best < 0) {
        best = static_cast<int>(i);
        continue;
      }
      const Interval& b = fragments[static_cast<size_t>(best)];
      if (f.lo > b.lo) {
        best = static_cast<int>(i);
      } else if (f.lo == b.lo && f.hi != b.hi) {
        const bool f_finishes =
            f.hi > range.hi || (f.hi == range.hi && (f.hi_inclusive ||
                                                     !range.hi_inclusive));
        const bool b_finishes =
            b.hi > range.hi || (b.hi == range.hi && (b.hi_inclusive ||
                                                     !range.hi_inclusive));
        if (f_finishes && b_finishes) {
          if (f.hi < b.hi) best = static_cast<int>(i);
        } else if (f_finishes != b_finishes) {
          if (f_finishes) best = static_cast<int>(i);
        } else if (f.hi > b.hi) {
          best = static_cast<int>(i);
        }
      }
    }
    if (best < 0) return std::nullopt;
    const Interval& chosen = fragments[static_cast<size_t>(best)];
    u_covered = chosen.hi;
    frontier_inclusive = chosen.hi_inclusive;
    cover.push_back(static_cast<size_t>(best));
  }
  return cover;
}

std::optional<std::vector<Interval>> PartitionMatchIntervals(
    const std::vector<Interval>& fragments, const Interval& range) {
  const std::optional<std::vector<size_t>> idx = PartitionMatch(fragments, range);
  if (!idx.has_value()) return std::nullopt;
  std::vector<Interval> out;
  out.reserve(idx->size());
  for (size_t i : *idx) out.push_back(fragments[i]);
  return out;
}

}  // namespace deepsea
