#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"

namespace deepsea {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing thing");
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument), "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotImplemented), "NotImplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UseReturnMacro(int x) {
  DEEPSEA_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UseReturnMacro(1).ok());
  EXPECT_EQ(UseReturnMacro(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  DEEPSEA_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::NotFound("x")).ok());
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo = saw_lo || v == 3;
    saw_hi = saw_hi || v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Gaussian(10.0, 2.0));
  EXPECT_NEAR(Mean(xs), 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(SampleVariance(xs)), 2.0, 0.1);
}

TEST(RngTest, ZipfRankOneMostFrequent) {
  Rng rng(13);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 20000; ++i) {
    counts[static_cast<size_t>(rng.Zipf(10, 1.2))]++;
  }
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[5]);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(MathTest, MeanAndVariance) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(SampleVariance({1, 2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(PopulationVariance({1, 2, 3}), 2.0 / 3.0);
  EXPECT_EQ(SampleVariance({5}), 0.0);
}

TEST(MathTest, WeightedMean) {
  EXPECT_DOUBLE_EQ(WeightedMean({1, 10}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(WeightedMean({2, 4}, {1, 1}), 3.0);
  EXPECT_EQ(WeightedMean({1, 2}, {0, 0}), 0.0);
}

TEST(MathTest, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
  // Parameterized form.
  EXPECT_NEAR(NormalCdf(10.0, 10.0, 5.0), 0.5, 1e-12);
  // Degenerate sigma: step function.
  EXPECT_EQ(NormalCdf(9.9, 10.0, 0.0), 0.0);
  EXPECT_EQ(NormalCdf(10.0, 10.0, 0.0), 1.0);
}

TEST(MathTest, FitNormalMleRecoversCenter) {
  // Weighted observations centred at 50.
  std::vector<double> xs = {40, 45, 50, 55, 60};
  std::vector<double> ws = {1, 4, 10, 4, 1};
  const NormalFit fit = FitNormalMle(xs, ws);
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.mean, 50.0, 1e-9);
  EXPECT_GT(fit.stddev, 0.0);
  EXPECT_DOUBLE_EQ(fit.total_weight, 20.0);
}

TEST(MathTest, FitNormalMleEqualsFivePassReference) {
  // The fit forms W and the weighted mean once; the reference is the
  // five passes it replaced: W, then WeightedMean, then
  // WeightedSampleVariance (W and the mean again, then the deviations).
  auto expect_reference = [](const std::vector<double>& xs,
                             const std::vector<double>& ws) {
    const NormalFit fit = FitNormalMle(xs, ws);
    EXPECT_EQ(fit.mean, WeightedMean(xs, ws));
    const double var = WeightedSampleVariance(xs, ws);
    EXPECT_EQ(fit.stddev, var > 0.0 ? std::sqrt(var) : 0.0);
  };
  // W exactly 1, where the variance's W - 1 is zero, and exactly 2.
  expect_reference({1, 3}, {0.5, 0.5});
  expect_reference({1, 3, 7}, {0.25, 0.25, 0.5});
  expect_reference({1, 3}, {1, 1});
  Rng rng(1871);
  int fitted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 64));
    std::vector<double> xs(n), ws(n);
    for (size_t i = 0; i < n; ++i) {
      xs[i] = rng.Uniform(-1e3, 1e6);
      // Every tenth trial weighs less than 1 in all (no variance); the
      // others mix zero, small and large weights.
      const double roll = rng.NextDouble();
      ws[i] = trial % 10 == 0 ? rng.Uniform(0, 1.0 / 64)
              : roll < 0.2    ? 0.0
              : roll < 0.4    ? rng.Uniform(0, 0.1)
                              : rng.Uniform(0, 1e4);
    }
    double total = 0.0;
    for (double w : ws) total += w;
    const NormalFit fit = FitNormalMle(xs, ws);
    ASSERT_EQ(fit.total_weight, total) << "trial " << trial;
    if (total <= 0.0) continue;
    ++fitted;
    ASSERT_EQ(fit.mean, WeightedMean(xs, ws)) << "trial " << trial;
    const double var = WeightedSampleVariance(xs, ws);
    ASSERT_EQ(fit.stddev, var > 0.0 ? std::sqrt(var) : 0.0)
        << "trial " << trial;
  }
  EXPECT_GT(fitted, 1500);
}

TEST(MathTest, FitNormalMleEmptyInvalid) {
  const NormalFit fit = FitNormalMle({1, 2}, {0, 0});
  EXPECT_FALSE(fit.valid);
}

TEST(MathTest, FitLinearExact) {
  const LinearFit fit = FitLinear({1, 2, 3, 4}, {3, 5, 7, 9});
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
  EXPECT_NEAR(fit.Predict(10), 21.0, 1e-9);
}

TEST(MathTest, FitLinearDegenerate) {
  EXPECT_FALSE(FitLinear({1}, {2}).valid);
  EXPECT_FALSE(FitLinear({3, 3, 3}, {1, 2, 3}).valid);  // zero x-variance
}

TEST(MathTest, Clamp) {
  EXPECT_EQ(Clamp(5, 0, 10), 5);
  EXPECT_EQ(Clamp(-5, 0, 10), 0);
  EXPECT_EQ(Clamp(15, 0, 10), 10);
}

TEST(StrUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StrUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(1.5 * 1024 * 1024 * 1024), "1.50 GB");
}

TEST(StrUtilTest, HumanSeconds) {
  EXPECT_EQ(HumanSeconds(12.34), "12.3 s");
  EXPECT_EQ(HumanSeconds(7200), "2h 00m");
}

}  // namespace
}  // namespace deepsea
