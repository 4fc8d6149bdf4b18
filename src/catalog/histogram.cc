#include "catalog/histogram.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/str_util.h"

namespace deepsea {

AttributeHistogram::AttributeHistogram(Interval domain, int num_bins)
    : domain_(domain) {
  assert(num_bins >= 1);
  assert(!domain.IsEmpty());
  counts_.assign(static_cast<size_t>(num_bins), 0.0);
}

int AttributeHistogram::BinIndex(double x) const {
  const int n = num_bins();
  if (n == 0) return 0;
  const double w = domain_.Width();
  if (w <= 0.0) return 0;
  // Clamp in double before converting: converting an out-of-range
  // double to int is undefined (x86 yields INT_MIN, i.e. bin 0).
  const double pos = (x - domain_.lo) / w * n;
  if (!(pos > 0.0)) return 0;
  if (pos >= n - 1) return n - 1;
  return static_cast<int>(pos);
}

std::pair<int, int> AttributeHistogram::BinSpan(const Interval& iv) const {
  // BinIndex and bin_interval round differently, so a point just past
  // a bin boundary may index the bin before it, or the one after. The
  // disagreement is a few ulps of one bin width, never a whole bin: a
  // bin two or more away from an endpoint's bin cannot overlap `iv`.
  return {std::max(BinIndex(iv.lo) - 1, 0),
          std::min(BinIndex(iv.hi) + 1, num_bins() - 1)};
}

void AttributeHistogram::Add(double x, double weight) {
  if (counts_.empty()) return;
  counts_[static_cast<size_t>(BinIndex(x))] += weight;
  total_ += weight;
}

void AttributeHistogram::AddRange(const Interval& iv, double weight) {
  if (counts_.empty() || weight <= 0.0) return;
  const auto inter = iv.Intersect(domain_);
  if (!inter.has_value() || inter->Width() <= 0.0) {
    // Degenerate (point) range: attribute all mass to its bin.
    if (inter.has_value()) Add(inter->lo, weight);
    return;
  }
  const double total_w = inter->Width();
  const auto [first, last] = BinSpan(*inter);
  for (int i = first; i <= last; ++i) {
    const double ow = bin_interval(i).OverlapWidth(*inter);
    if (ow > 0.0) counts_[static_cast<size_t>(i)] += weight * ow / total_w;
  }
  total_ += weight;
}

Interval AttributeHistogram::bin_interval(int i) const {
  const int n = num_bins();
  const double step = domain_.Width() / n;
  const double a = domain_.lo + step * i;
  const double b = (i == n - 1) ? domain_.hi : domain_.lo + step * (i + 1);
  return Interval(a, b, /*lo_inc=*/true, /*hi_inc=*/i == n - 1);
}

double AttributeHistogram::FractionInRange(const Interval& iv) const {
  if (total_ <= 0.0 || counts_.empty()) return 0.0;
  const auto inter = iv.Intersect(domain_);
  if (!inter.has_value()) return 0.0;
  double mass = 0.0;
  const auto [first, last] = BinSpan(*inter);
  for (int i = first; i <= last; ++i) {
    const Interval bi = bin_interval(i);
    const double bw = bi.Width();
    if (bw <= 0.0) continue;
    const double ow = bi.OverlapWidth(*inter);
    if (ow > 0.0) mass += counts_[static_cast<size_t>(i)] * (ow / bw);
  }
  return mass / total_;
}

std::vector<double> AttributeHistogram::EquiDepthBoundaries(int k) const {
  std::vector<double> bounds;
  if (k <= 0) return bounds;
  bounds.push_back(domain_.lo);
  if (total_ <= 0.0) {
    // Fall back to equi-width when no distribution is known.
    for (int i = 1; i < k; ++i) {
      bounds.push_back(domain_.lo + domain_.Width() * i / k);
    }
    bounds.push_back(domain_.hi);
    return bounds;
  }
  const double target = total_ / k;
  double acc = 0.0;
  int next_quantile = 1;
  for (int i = 0; i < num_bins() && next_quantile < k; ++i) {
    const double c = counts_[static_cast<size_t>(i)];
    while (next_quantile < k && acc + c >= target * next_quantile) {
      // Linear interpolation inside the bin.
      const double need = target * next_quantile - acc;
      const Interval bi = bin_interval(i);
      const double frac = c > 0.0 ? need / c : 0.0;
      bounds.push_back(bi.lo + bi.Width() * frac);
      ++next_quantile;
    }
    acc += c;
  }
  while (static_cast<int>(bounds.size()) < k) bounds.push_back(domain_.hi);
  bounds.push_back(domain_.hi);
  std::sort(bounds.begin(), bounds.end());
  return bounds;
}

void AttributeHistogram::NormalizeTo(double new_total) {
  if (total_ <= 0.0) return;
  const double f = new_total / total_;
  for (double& c : counts_) c *= f;
  total_ = new_total;
}

std::string AttributeHistogram::ToString() const {
  std::string out = StrFormat("hist(domain=%s, total=%.0f): ",
                              domain_.ToString().c_str(), total_);
  for (int i = 0; i < num_bins(); ++i) {
    out += StrFormat("%.0f ", counts_[static_cast<size_t>(i)]);
  }
  return out;
}

}  // namespace deepsea
