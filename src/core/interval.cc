#include "core/interval.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace deepsea {

bool Interval::Contains(double x) const {
  if (IsEmpty()) return false;
  if (x < lo || x > hi) return false;
  if (x == lo && !lo_inclusive) return false;
  if (x == hi && !hi_inclusive) return false;
  return true;
}

bool Interval::Contains(const Interval& other) const {
  if (other.IsEmpty()) return true;
  if (IsEmpty()) return false;
  // Lower end: this.lo must be <= other.lo, and if equal, this must be at
  // least as inclusive.
  if (lo > other.lo) return false;
  if (lo == other.lo && !lo_inclusive && other.lo_inclusive) return false;
  if (hi < other.hi) return false;
  if (hi == other.hi && !hi_inclusive && other.hi_inclusive) return false;
  return true;
}

bool Interval::Overlaps(const Interval& other) const {
  return Intersect(other).has_value();
}

std::optional<Interval> Interval::Intersect(const Interval& other) const {
  if (IsEmpty() || other.IsEmpty()) return std::nullopt;
  Interval out;
  if (lo > other.lo) {
    out.lo = lo;
    out.lo_inclusive = lo_inclusive;
  } else if (lo < other.lo) {
    out.lo = other.lo;
    out.lo_inclusive = other.lo_inclusive;
  } else {
    out.lo = lo;
    out.lo_inclusive = lo_inclusive && other.lo_inclusive;
  }
  if (hi < other.hi) {
    out.hi = hi;
    out.hi_inclusive = hi_inclusive;
  } else if (hi > other.hi) {
    out.hi = other.hi;
    out.hi_inclusive = other.hi_inclusive;
  } else {
    out.hi = hi;
    out.hi_inclusive = hi_inclusive && other.hi_inclusive;
  }
  if (out.IsEmpty()) return std::nullopt;
  return out;
}

double Interval::OverlapWidth(const Interval& other) const {
  const auto inter = Intersect(other);
  return inter.has_value() ? inter->Width() : 0.0;
}

double Interval::OverlapFractionOf(const Interval& other) const {
  if (IsEmpty()) return 0.0;
  const double w = Width();
  if (w <= 0.0) {
    // Point interval: either fully covered or not.
    return other.Contains(lo) ? 1.0 : 0.0;
  }
  return OverlapWidth(other) / w;
}

std::pair<Interval, Interval> Interval::SplitBefore(double p) const {
  Interval left(lo, p, lo_inclusive, /*hi_inc=*/false);
  Interval right(p, hi, /*lo_inc=*/true, hi_inclusive);
  // Clamp to this interval so callers can split at out-of-range points.
  if (p <= lo) left = Interval(lo, lo, false, false);  // empty
  if (p > hi || (p == hi && !hi_inclusive)) right = Interval(hi, hi, false, false);
  return {left, right};
}

std::pair<Interval, Interval> Interval::SplitAfter(double p) const {
  Interval left(lo, p, lo_inclusive, /*hi_inc=*/true);
  Interval right(p, hi, /*lo_inc=*/false, hi_inclusive);
  if (p < lo || (p == lo && !lo_inclusive)) left = Interval(lo, lo, false, false);
  if (p >= hi) right = Interval(hi, hi, false, false);
  return {left, right};
}

std::vector<Interval> Interval::SplitEqual(int n) const {
  std::vector<Interval> out;
  if (n <= 0 || IsEmpty()) return out;
  if (n == 1) {
    out.push_back(*this);
    return out;
  }
  const double step = Width() / n;
  for (int i = 0; i < n; ++i) {
    const double a = lo + step * i;
    const double b = (i == n - 1) ? hi : lo + step * (i + 1);
    Interval piece(a, b, i == 0 ? lo_inclusive : true,
                   i == n - 1 ? hi_inclusive : false);
    out.push_back(piece);
  }
  return out;
}

std::string Interval::ToString() const {
  return StrFormat("%s%.6g, %.6g%s", lo_inclusive ? "[" : "(", lo, hi,
                   hi_inclusive ? "]" : ")");
}

bool IntervalLess(const Interval& a, const Interval& b) {
  if (a.lo != b.lo) return a.lo < b.lo;
  // Inclusive lower bound sorts before open one at the same point.
  if (a.lo_inclusive != b.lo_inclusive) return a.lo_inclusive;
  if (a.hi != b.hi) return a.hi < b.hi;
  return a.hi_inclusive < b.hi_inclusive;
}

bool Fragmentation::Covers(const Interval& domain) const {
  if (domain.IsEmpty()) return true;
  auto sorted = Sorted();
  // Sweep from the domain's lower bound; every gap must be covered.
  double frontier = domain.lo;
  bool frontier_covered_inclusive = false;  // has a fragment covered `frontier`?
  // Check the very first point.
  for (const auto& iv : sorted) {
    if (iv.IsEmpty()) continue;
    if (iv.Contains(domain.lo) ||
        (!domain.lo_inclusive && iv.lo == domain.lo)) {
      frontier_covered_inclusive = true;
      break;
    }
  }
  if (!frontier_covered_inclusive) return false;
  // Extend coverage greedily.
  frontier = domain.lo;
  bool frontier_inclusive = true;  // coverage reaches frontier inclusively
  bool progressed = true;
  while (progressed &&
         (frontier < domain.hi || (frontier == domain.hi && !frontier_inclusive))) {
    progressed = false;
    for (const auto& iv : sorted) {
      if (iv.IsEmpty()) continue;
      // Fragment can extend coverage if it starts at or before the
      // frontier: when the frontier point itself is already covered
      // (frontier_inclusive), an open start at the frontier suffices;
      // otherwise the fragment must include the frontier point.
      const bool starts_ok =
          iv.lo < frontier ||
          (iv.lo == frontier && (iv.lo_inclusive || frontier_inclusive));
      if (!starts_ok) continue;
      const bool extends = iv.hi > frontier ||
                           (iv.hi == frontier && iv.hi_inclusive && !frontier_inclusive);
      if (!extends) continue;
      frontier = iv.hi;
      frontier_inclusive = iv.hi_inclusive;
      progressed = true;
    }
  }
  if (frontier > domain.hi) return true;
  if (frontier == domain.hi) {
    return frontier_inclusive || !domain.hi_inclusive;
  }
  return false;
}

bool Fragmentation::IsDisjoint() const {
  for (size_t i = 0; i < intervals_.size(); ++i) {
    for (size_t j = i + 1; j < intervals_.size(); ++j) {
      if (intervals_[i].Overlaps(intervals_[j])) return false;
    }
  }
  return true;
}

std::vector<Interval> Fragmentation::Sorted() const {
  std::vector<Interval> out = intervals_;
  std::sort(out.begin(), out.end(), IntervalLess);
  return out;
}

std::string Fragmentation::ToString() const {
  std::vector<std::string> parts;
  for (const auto& iv : Sorted()) parts.push_back(iv.ToString());
  std::string out = "{";
  out += Join(parts, ", ");
  out += "}";
  return out;
}

}  // namespace deepsea
