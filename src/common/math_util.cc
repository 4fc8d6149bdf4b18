#include "common/math_util.h"

#include <cassert>
#include <cmath>

namespace deepsea {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double SampleVariance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size() - 1);
}

double PopulationVariance(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  const double mu = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(xs.size());
}

double WeightedMean(const std::vector<double>& xs, const std::vector<double>& ws) {
  assert(xs.size() == ws.size());
  double wsum = 0.0, acc = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    wsum += ws[i];
    acc += ws[i] * xs[i];
  }
  if (wsum <= 0.0) return 0.0;
  return acc / wsum;
}

double WeightedSampleVariance(const std::vector<double>& xs,
                              const std::vector<double>& ws) {
  assert(xs.size() == ws.size());
  double wsum = 0.0;
  for (double w : ws) wsum += w;
  if (wsum <= 1.0) return 0.0;
  const double mu = WeightedMean(xs, ws);
  double acc = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) acc += ws[i] * (xs[i] - mu) * (xs[i] - mu);
  // Effective (n-1)-style correction with weights interpreted as counts.
  return acc / (wsum - 1.0);
}

double NormalCdf(double x) { return 0.5 * std::erfc(-x * M_SQRT1_2); }

double NormalCdf(double x, double mean, double stddev) {
  if (stddev <= 0.0) return x >= mean ? 1.0 : 0.0;
  return NormalCdf((x - mean) / stddev);
}

NormalFit FitNormalMle(const std::vector<double>& xs,
                       const std::vector<double>& ws) {
  assert(xs.size() == ws.size());
  NormalFit fit;
  // W and the weighted mean in one pass, the squared deviations in a
  // second: the sums WeightedMean and WeightedSampleVariance form, each
  // once and in the same order, so the fit has their bits.
  double weighted_sum = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    fit.total_weight += ws[i];
    weighted_sum += ws[i] * xs[i];
  }
  if (fit.total_weight <= 0.0) return fit;
  fit.mean = weighted_sum / fit.total_weight;
  double var = 0.0;
  if (fit.total_weight > 1.0) {
    double acc = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
      acc += ws[i] * (xs[i] - fit.mean) * (xs[i] - fit.mean);
    }
    var = acc / (fit.total_weight - 1.0);
  }
  fit.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  // Count distinct observation points carrying weight.
  int distinct_weighted = 0;
  double first = 0.0;
  bool have_first = false;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (ws[i] <= 0.0) continue;
    if (!have_first) {
      first = xs[i];
      have_first = true;
      distinct_weighted = 1;
    } else if (xs[i] != first) {
      distinct_weighted = 2;
      break;
    }
  }
  fit.valid = distinct_weighted >= 1;
  return fit;
}

LinearFit FitLinear(const std::vector<double>& xs, const std::vector<double>& ys) {
  assert(xs.size() == ys.size());
  LinearFit fit;
  const size_t n = xs.size();
  if (n < 2) return fit;
  const double mx = Mean(xs);
  const double my = Mean(ys);
  double sxx = 0.0, sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx <= 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  fit.valid = true;
  return fit;
}

double Clamp(double v, double lo, double hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

}  // namespace deepsea
