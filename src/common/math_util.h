#ifndef DEEPSEA_COMMON_MATH_UTIL_H_
#define DEEPSEA_COMMON_MATH_UTIL_H_

#include <cstddef>
#include <vector>

namespace deepsea {

/// Arithmetic mean of `xs`; 0 for an empty vector.
double Mean(const std::vector<double>& xs);

/// Unbiased (Bessel-corrected, n-1 denominator) sample variance; 0 when
/// fewer than two samples. This matches the paper's adjusted sample
/// variance used for the fragment-hit MLE (Section 7.1).
double SampleVariance(const std::vector<double>& xs);

/// Population (n denominator) variance; 0 for an empty vector.
double PopulationVariance(const std::vector<double>& xs);

/// Weighted mean of `xs` with non-negative weights `ws`. Returns 0 when
/// the total weight is 0. Sizes must match.
double WeightedMean(const std::vector<double>& xs, const std::vector<double>& ws);

/// Weighted sample variance with Bessel-style correction using effective
/// sample size; 0 when total weight is ~0.
double WeightedSampleVariance(const std::vector<double>& xs,
                              const std::vector<double>& ws);

/// Standard normal cumulative distribution function P(X <= x).
double NormalCdf(double x);

/// Normal CDF for N(mean, stddev): P(X <= x). stddev <= 0 degenerates to
/// a step function at `mean`.
double NormalCdf(double x, double mean, double stddev);

/// Maximum-likelihood estimate of a Normal distribution from weighted
/// observations (the paper fits hit counts over domain "parts", Sec 7.1).
struct NormalFit {
  double mean = 0.0;
  double stddev = 0.0;
  double total_weight = 0.0;
  /// True when the fit had enough mass to be meaningful (total weight > 0
  /// and at least two distinct observation points).
  bool valid = false;
};

/// Fits N(mu, sigma) by MLE to observations `xs` with weights `ws`
/// (weights are the per-part hit counts). Uses the adjusted (unbiased)
/// variance as in the paper: mean and stddev equal WeightedMean and the
/// root of WeightedSampleVariance bit for bit, in three passes over the
/// observations instead of their five.
NormalFit FitNormalMle(const std::vector<double>& xs,
                       const std::vector<double>& ws);

/// Ordinary least squares fit y = intercept + slope * x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  /// Coefficient of determination in [0,1]; 0 when undefined.
  double r_squared = 0.0;
  bool valid = false;

  double Predict(double x) const { return intercept + slope * x; }
};

/// Least-squares linear regression; requires xs.size() == ys.size().
/// Invalid when fewer than two points or zero x-variance.
LinearFit FitLinear(const std::vector<double>& xs, const std::vector<double>& ys);

/// Clamps v into [lo, hi].
double Clamp(double v, double lo, double hi);

}  // namespace deepsea

#endif  // DEEPSEA_COMMON_MATH_UTIL_H_
