#ifndef DEEPSEA_CORE_INTERVAL_H_
#define DEEPSEA_CORE_INTERVAL_H_

#include <optional>
#include <string>
#include <vector>

namespace deepsea {

/// A (possibly half-open) interval over the ordered numeric domain of a
/// partition attribute. DeepSea fragments are described by intervals
/// with mixed open/closed endpoints, e.g. splitting [l', u'] at l yields
/// [l', l) and [l, u'] (paper Definition 7).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  Interval() = default;
  Interval(double lo_in, double hi_in, bool lo_inc = true, bool hi_inc = true)
      : lo(lo_in), hi(hi_in), lo_inclusive(lo_inc), hi_inclusive(hi_inc) {}

  /// Half-open [lo, hi).
  static Interval ClosedOpen(double lo, double hi) {
    return Interval(lo, hi, true, false);
  }
  /// Half-open (lo, hi].
  static Interval OpenClosed(double lo, double hi) {
    return Interval(lo, hi, false, true);
  }

  /// True when the interval contains no point.
  bool IsEmpty() const {
    if (lo > hi) return true;
    if (lo == hi) return !(lo_inclusive && hi_inclusive);
    return false;
  }

  /// Length of the interval (0 for empty/point intervals). Endpoint
  /// openness does not affect width on a continuous domain.
  double Width() const { return IsEmpty() ? 0.0 : hi - lo; }

  /// Midpoint (lo+hi)/2; unspecified for empty intervals.
  double Mid() const { return 0.5 * (lo + hi); }

  /// True when `x` lies inside the interval respecting endpoint openness.
  bool Contains(double x) const;

  /// True when `other` is fully contained in this interval.
  bool Contains(const Interval& other) const;

  /// True when the intervals share at least one point.
  bool Overlaps(const Interval& other) const;

  /// Intersection, or nullopt when disjoint.
  std::optional<Interval> Intersect(const Interval& other) const;

  /// Width of the intersection with `other` (0 when disjoint).
  double OverlapWidth(const Interval& other) const;

  /// Fraction of *this* interval's width covered by the intersection
  /// with `other`; in [0,1]. Returns 1 for zero-width self if contained.
  double OverlapFractionOf(const Interval& other) const;

  /// Splits at `p` with the split point going right: [lo,p) and [p,hi].
  /// Either side may come back empty when p is at/beyond an endpoint.
  std::pair<Interval, Interval> SplitBefore(double p) const;

  /// Splits at `p` with the split point going left: [lo,p] and (p,hi].
  std::pair<Interval, Interval> SplitAfter(double p) const;

  /// Splits into `n` equal-width pieces covering exactly this interval;
  /// piece i is half-open except the last, which inherits hi openness.
  std::vector<Interval> SplitEqual(int n) const;

  bool operator==(const Interval& other) const {
    return lo == other.lo && hi == other.hi &&
           lo_inclusive == other.lo_inclusive && hi_inclusive == other.hi_inclusive;
  }
  bool operator!=(const Interval& other) const { return !(*this == other); }

  /// "[1, 5)" style rendering.
  std::string ToString() const;
};

/// Strict-weak ordering by (lo asc, lo openness, hi asc); suitable for
/// sorting fragment lists for display and matching.
bool IntervalLess(const Interval& a, const Interval& b);

/// A fragmentation is a list of intervals over one attribute's domain
/// (paper Definition 1). Helper predicates classify it.
class Fragmentation {
 public:
  Fragmentation() = default;
  explicit Fragmentation(std::vector<Interval> intervals)
      : intervals_(std::move(intervals)) {}

  const std::vector<Interval>& intervals() const { return intervals_; }
  std::vector<Interval>& mutable_intervals() { return intervals_; }
  size_t size() const { return intervals_.size(); }
  bool empty() const { return intervals_.empty(); }

  void Add(Interval iv) { intervals_.push_back(iv); }

  /// True when the union of intervals covers `domain` (no gaps). This is
  /// the overlapping-partitioning condition of Definition 2.
  bool Covers(const Interval& domain) const;

  /// True when intervals are pairwise disjoint.
  bool IsDisjoint() const;

  /// Horizontal partition per Definition 1: covers the domain and is
  /// pairwise disjoint.
  bool IsHorizontalPartition(const Interval& domain) const {
    return Covers(domain) && IsDisjoint();
  }

  /// Overlapping partitioning per Definition 2: covers the domain.
  bool IsOverlappingPartitioning(const Interval& domain) const {
    return Covers(domain);
  }

  /// Intervals sorted by IntervalLess (copy).
  std::vector<Interval> Sorted() const;

  std::string ToString() const;

 private:
  std::vector<Interval> intervals_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_INTERVAL_H_
