#ifndef DEEPSEA_CATALOG_HISTOGRAM_H_
#define DEEPSEA_CATALOG_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/interval.h"

namespace deepsea {

/// Equi-width histogram over a numeric attribute's domain. Used (a) by
/// the catalog to describe base-table value distributions, (b) by the
/// DeepSea core to estimate fragment sizes from the relative mass of an
/// interval (paper Section 7.2 assumes uniformity *within* a fragment;
/// we refine that with histogram mass when available), and (c) by
/// workload generators to mimic the SDSS access distribution (Fig. 1).
class AttributeHistogram {
 public:
  AttributeHistogram() = default;

  /// Creates an empty histogram with `num_bins` equal-width bins over
  /// `domain`. num_bins must be >= 1 and the domain non-empty.
  AttributeHistogram(Interval domain, int num_bins);

  const Interval& domain() const { return domain_; }
  int num_bins() const { return static_cast<int>(counts_.size()); }
  double total_count() const { return total_; }
  bool empty() const { return total_ <= 0.0; }

  /// Adds `weight` observations at value `x` (values outside the domain
  /// are clamped into the edge bins).
  void Add(double x, double weight = 1.0);

  /// Adds `weight` observations spread uniformly over `iv ∩ domain`.
  /// Visits only the bins `iv` can overlap (see BinSpan).
  void AddRange(const Interval& iv, double weight);

  /// Count mass in bin i.
  double bin_count(int i) const { return counts_[i]; }

  /// The sub-domain covered by bin i (half-open except the last bin).
  Interval bin_interval(int i) const;

  /// Fraction of total mass falling inside `iv` (linear interpolation
  /// within partially covered bins). Returns 0 when the histogram is
  /// empty. Visits only the bins `iv` can overlap (see BinSpan), so it
  /// costs O(bins overlapped), not O(num_bins); a bin inside `iv` costs
  /// one addition, and only the two edge bins interpolate.
  double FractionInRange(const Interval& iv) const;

  /// Estimated absolute mass inside `iv`.
  double MassInRange(const Interval& iv) const { return total_ * FractionInRange(iv); }

  /// Boundaries b_0..b_k splitting the domain into k spans of (roughly)
  /// equal mass — the classical equi-depth partitioning the paper uses
  /// as its static baseline (Section 10.2). Returns k+1 boundary points.
  std::vector<double> EquiDepthBoundaries(int k) const;

  /// Scales all masses so the total becomes `new_total` (no-op if empty).
  void NormalizeTo(double new_total);

  std::string ToString() const;

 private:
  int BinIndex(double x) const;

  /// The width of one bin, and bin i's bounds given that width: the one
  /// definition of a bin's extent, for bin_interval and FractionInRange.
  double BinStep() const { return domain_.Width() / num_bins(); }
  double BinLo(int i, double step) const { return domain_.lo + step * i; }
  double BinHi(int i, double step) const {
    return i == num_bins() - 1 ? domain_.hi : domain_.lo + step * (i + 1);
  }

  /// The bins [first, last] that `iv` can overlap: the bins of its
  /// (clamped) endpoints, widened by one on each side to absorb
  /// rounding.
  std::pair<int, int> BinSpan(const Interval& iv) const;

  Interval domain_{0.0, 1.0};
  std::vector<double> counts_;
  double total_ = 0.0;
};

}  // namespace deepsea

#endif  // DEEPSEA_CATALOG_HISTOGRAM_H_
