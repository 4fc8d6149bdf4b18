#ifndef DEEPSEA_CORE_DECAY_H_
#define DEEPSEA_CORE_DECAY_H_

#include <algorithm>
#include <bit>
#include <cstdint>

namespace deepsea {

/// Configuration of the benefit decay function DEC(t_now, t) from
/// Section 7.1. Timestamps are logical: the index of the query in the
/// workload sequence (1-based), so `t_max` is expressed in queries.
struct DecayConfig {
  /// Benefits older than t_max queries are timed out entirely.
  double t_max = 500.0;
  /// When false, DEC is identically 1 (the decay ablation,
  /// bench_ablation_decay). The Nectar/Nectar+ baselines leave it on:
  /// their value models read undecayed quantities anyway.
  bool enabled = true;
};

/// The paper's decay function:
///   DEC(t_now, t) = 0            if t_now - t > t_max
///                 = t / t_now    otherwise,
/// a monotonically decreasing weight (in t_now - t) in [0, 1] that ages
/// out past cost savings so the pool adapts to workload shifts.
class DecayFunction {
 public:
  explicit DecayFunction(DecayConfig config = DecayConfig()) : cfg_(config) {}

  const DecayConfig& config() const { return cfg_; }

  double operator()(double t_now, double t) const {
    if (!cfg_.enabled) return 1.0;
    if (t_now - t > cfg_.t_max) return 0.0;
    if (t_now <= 0.0) return 1.0;
    if (t < 0.0) return 0.0;
    return t / t_now;
  }

  /// DEC(t_now, t) > 0, decided without the division: t is inside the
  /// window, and positive unless t_now <= 0. Monotone in t, so the
  /// times a time-ordered list weighs at t_now are a suffix of it.
  bool Weighs(double t_now, double t) const {
    if (!cfg_.enabled) return true;
    return !(t_now - t > cfg_.t_max) && (t_now <= 0.0 || t > 0.0);
  }

 private:
  DecayConfig cfg_;
};

/// The fixed point in which sums of the decay's time weights are kept.
/// Inside the window DEC(t_now, t_k) = t_k / t_now, so a decayed sum
/// over hits is (Σ_k t_k) / t_now: FragmentStats keeps Σ_k t_k for
/// H(I), and PartMass keeps Σ_k t_k · spread_kp per part for the MLE
/// fit. Each term is rounded once to a fixed-point integer and the sums
/// are 128-bit integers, so they are exact and independent of the order
/// of their terms; reading one is a single conversion and a single
/// division.
struct FixedPoint {
  using Sum = __int128;
  /// Fraction bits of one term (a resolution of about 1.4e-17).
  static constexpr int kFractionBits = 56;
  /// The fixed-point value of 1.
  static constexpr double kOne =
      static_cast<double>(int64_t{1} << kFractionBits);

  /// One term in fixed point, rounded toward zero. Terms are
  /// non-negative; they are capped at 2^62 so that sums of many of them
  /// stay inside 128 bits. The scaling by a power of two is exact. Below
  /// 2^63 the scaled term converts as an int64_t; above, it is an
  /// integer, so its significand shifted by its exponent is exact (the
  /// same bits as the library's double-to-__int128 conversion, without
  /// the call).
  static Sum Quantize(double x) {
    const double y = std::min(x, 0x1p62) * kOne;
    if (y < 0x1p63) return static_cast<int64_t>(y);
    const uint64_t bits = std::bit_cast<uint64_t>(y);
    const uint64_t significand =
        (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
    return static_cast<Sum>(significand)
           << (static_cast<int>(bits >> 52) - 1075);
  }

  /// A sum as the weight it stands for: converted to double (the one
  /// rounding), scaled exactly, and divided by t_now when the terms are
  /// time-weighted (with decay off, or at t_now <= 0, every weight is 1).
  static double Weight(Sum sum, bool time_weighted, double t_now) {
    if (sum == 0) return 0.0;
    const double mass = static_cast<double>(sum) / kOne;  // exact scaling
    return time_weighted ? mass / t_now : mass;
  }
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_DECAY_H_
