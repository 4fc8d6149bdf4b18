#ifndef DEEPSEA_CORE_DECAY_H_
#define DEEPSEA_CORE_DECAY_H_

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

 private:
  DecayConfig cfg_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_DECAY_H_
