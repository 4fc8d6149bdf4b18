#ifndef DEEPSEA_BENCH_BENCH_UTIL_H_
#define DEEPSEA_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction harnesses. Each bench
// binary regenerates one table/figure of the paper's evaluation
// (Section 10); see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.

#include <cstdio>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "workload/range_generator.h"
#include "workload/sdss.h"

namespace deepsea {
namespace bench {

/// The item_sk domain used throughout ([0, 400000], the domain quoted
/// in Section 10.4).
inline Interval ItemSkDomain() { return Interval(0.0, 400000.0); }

/// Engine options for a named baseline strategy, mirroring the paper's
/// experiment setups: eager materialization (the controlled sequences
/// materialize on the first query) and the paper's fragment-size bounds
/// (phi = 0.1 and the FS block lower bound) unless stated otherwise.
inline EngineOptions BaseOptions() {
  EngineOptions o;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  // Fragment-size bounding is the paper's default (Section 9); Fig. 6
  // explicitly disables the upper bound and overrides this.
  o.max_fragment_fraction = 0.1;
  return o;
}

inline StrategySpec Hive() {
  StrategySpec s{"H", BaseOptions()};
  s.options.strategy = StrategyKind::kHive;
  return s;
}

inline StrategySpec NoPartition() {
  StrategySpec s{"NP", BaseOptions()};
  s.options.strategy = StrategyKind::kNoPartition;
  return s;
}

inline StrategySpec EquiDepth(int k) {
  StrategySpec s{"E-" + std::to_string(k), BaseOptions()};
  s.options.strategy = StrategyKind::kEquiDepth;
  s.options.equi_depth_fragments = k;
  return s;
}

inline StrategySpec NoRefine() {
  StrategySpec s{"NR", BaseOptions()};
  s.options.strategy = StrategyKind::kNoRefine;
  return s;
}

inline StrategySpec DeepSea() {
  StrategySpec s{"DS", BaseOptions()};
  s.options.strategy = StrategyKind::kDeepSea;
  return s;
}

/// DeepSea partitioning with the Nectar / Nectar+ selection models
/// (Section 10.1 compares selection strategies on equal partitioning).
/// The planner applies MLE smoothing only under the DeepSea model.
inline StrategySpec Nectar() {
  StrategySpec s{"N", BaseOptions()};
  s.options.value_model = ValueModel::kNectar;
  return s;
}

inline StrategySpec NectarPlus() {
  StrategySpec s{"N+", BaseOptions()};
  s.options.value_model = ValueModel::kNectarPlus;
  return s;
}

/// Workload of `n` instances of one template with ranges drawn from a
/// RangeGenerator.
inline std::vector<WorkloadQuery> TemplateWorkload(const std::string& tmpl,
                                                   int n, RangeGenerator* gen) {
  std::vector<WorkloadQuery> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back({tmpl, gen->Next()});
  return out;
}

/// The Section 10.1 workload: SDSS selection ranges mapped onto
/// item_sk, applied to randomly chosen join templates.
inline std::vector<WorkloadQuery> SdssWorkload(int n, uint64_t seed) {
  SdssTraceModel sdss(SdssTraceModel::Config{}, seed);
  const auto trace = sdss.GenerateTrace(n);
  const Interval ra(-20.0, 400.0);
  Rng rng(seed + 1);
  const auto names = BigBenchTemplates::Names();
  std::vector<WorkloadQuery> out;
  out.reserve(trace.size());
  for (const Interval& r : trace) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    out.push_back({name, SdssTraceModel::MapRange(r, ra, ItemSkDomain())});
  }
  return out;
}

/// Dataset options for the paper's instance sizes. The SDSS-patterned
/// experiments sample item_sk from the SDSS access density (the paper
/// samples from the real SDSS ra histogram); synthetic experiments use
/// the uniform default.
inline BigBenchDataset::Options Dataset(double gigabytes, bool sdss_distribution,
                                        uint64_t seed = 7) {
  BigBenchDataset::Options o;
  o.total_bytes = gigabytes * 1e9;
  o.sample_rows_per_fact = 256;  // physical sample irrelevant to cost runs
  o.sample_rows_per_dim = 64;
  o.seed = seed;
  if (sdss_distribution) {
    SdssTraceModel sdss(SdssTraceModel::Config{}, 2017);
    o.item_sk_distribution = sdss.AccessDensity(420);
  }
  return o;
}

inline void Banner(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s - %s\n", figure, description);
  std::printf("==============================================================\n");
}

/// Paper-shape gate. A bench checks each shape of its figure that
/// EXPERIMENTS.md marks reproduced, as an inequality over the numbers it
/// prints, with the bound taken from the paper's claim. Check prints one
/// "shape <name>: ok|FAIL" line; main returns ExitCode(), non-zero after
/// any FAIL, so bench/run_figures.sh and CI fail with the bench.
class ShapeGate {
 public:
  void Check(const std::string& name, bool holds) {
    if (checks_++ == 0) std::printf("\n");
    std::printf("shape %s: %s\n", name.c_str(), holds ? "ok" : "FAIL");
    failed_ = failed_ || !holds;
  }
  int ExitCode() const { return failed_ ? 1 : 0; }

 private:
  int checks_ = 0;
  bool failed_ = false;
};

}  // namespace bench
}  // namespace deepsea

#endif  // DEEPSEA_BENCH_BENCH_UTIL_H_
