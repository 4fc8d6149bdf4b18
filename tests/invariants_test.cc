// Property-based engine invariants: random workloads swept over every
// strategy and several seeds must preserve the system's structural
// guarantees regardless of what the adaptive machinery decides.

#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "exec/executor.h"
#include "plan/pushdown.h"
#include "part_mass.h"
#include "pool_index.h"
#include "workload/bigbench.h"
#include "workload/range_generator.h"

namespace deepsea {
namespace {

/// Observer that re-checks the structural invariants *inside* the
/// commit section, at the end of every Apply and Merge stage — i.e.
/// after every PoolManager::Apply, before the engine even returns the
/// query. The per-query checks in the test body only see the state
/// after the merge pass; this probe pins the invariants at the exact
/// stage boundaries, and additionally verifies that the pool files are
/// exactly the pieces' (an evicted piece released its file).
class InvariantProbe : public EngineObserver {
 public:
  InvariantProbe(const DeepSeaEngine* engine, double s_max, bool overlapping)
      : engine_(engine), s_max_(s_max), overlapping_(overlapping) {}

  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override {
    (void)ctx;
    (void)sim_seconds;
    (void)wall_seconds;
    if (stage != EngineStage::kApply && stage != EngineStage::kMerge) return;
    ++checks_;
    // Hooks run inside the exclusive commit, so the unlocked reads are
    // consistent. INVARIANT 1: pool never exceeds S_max, not even
    // between Apply and the merge pass.
    EXPECT_LE(engine_->PoolBytes(), s_max_ * 1.0001)
        << "at stage " << EngineStageName(stage);
    // INVARIANT 2: pool accounting matches the simulated FS exactly.
    EXPECT_NEAR(engine_->PoolBytes(), engine_->fs().TotalBytes("pool/"),
                1.0 + engine_->PoolBytes() * 1e-9)
        << "at stage " << EngineStageName(stage);
    // The pool-content index the knapsack sweeps equals its definition,
    // and its byte sum is bit-identical to a fresh walk.
    EXPECT_TRUE(PoolIndexMatchesDefinition(engine_->views()))
        << "at stage " << EngineStageName(stage);
    // Every partition's interval index agrees with a scan of its list.
    EXPECT_TRUE(FragmentIndexMatchesScan(engine_->views()))
        << "at stage " << EngineStageName(stage);
    // Every kept part mass equals its rebuild from the hit lists.
    EXPECT_TRUE(PartMassMatchesRebuild(engine_->pool()))
        << "at stage " << EngineStageName(stage);
    // Every hit list is in time order (V_sel inheritance included).
    EXPECT_TRUE(HitListsInTimeOrder(engine_->pool()))
        << "at stage " << EngineStageName(stage);
    // Evicted pieces must actually have left the FS, and every pooled
    // piece has its file.
    EXPECT_TRUE(PoolFilesMatchPieces(engine_->views(), engine_->fs()))
        << "at stage " << EngineStageName(stage);
    // INVARIANT 3: horizontal mode keeps materialized fragments of each
    // partition pairwise disjoint at every stage boundary.
    if (!overlapping_) {
      for (const ViewInfo* v : engine_->views().AllViews()) {
        for (const auto& [attr, part] : v->partitions) {
          const auto mats = part.MaterializedIntervals();
          for (size_t i = 0; i < mats.size(); ++i) {
            for (size_t j = i + 1; j < mats.size(); ++j) {
              EXPECT_FALSE(mats[i].Overlaps(mats[j]))
                  << attr << ": " << mats[i].ToString() << " vs "
                  << mats[j].ToString() << " at stage "
                  << EngineStageName(stage);
            }
          }
        }
      }
    }
  }

  int64_t checks() const { return checks_; }

 private:
  const DeepSeaEngine* engine_;
  double s_max_;
  bool overlapping_;
  int64_t checks_ = 0;
};

struct SweepParam {
  StrategyKind strategy;
  ValueModel model;
  bool overlapping;
  uint64_t seed;
};

// Without a printer gtest shows a parameter as its raw bytes, padding
// included, so the listed test names would differ between builds.
void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << StrategyName(p.strategy) << "/" << ValueModelName(p.model)
      << (p.overlapping ? "/ovl" : "/hor") << "/s" << p.seed;
}

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  const SweepParam& p = info.param;
  std::string name = StrategyName(p.strategy);
  name += std::string("_") + ValueModelName(p.model);
  name += p.overlapping ? "_ovl" : "_hor";
  name += "_s" + std::to_string(p.seed);
  // Sanitize for gtest.
  std::string out;
  for (char c : name) out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return out;
}

class EngineInvariantsTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    BigBenchDataset::Options data;
    data.total_bytes = 80e9;
    data.sample_rows_per_fact = 800;
    data.sample_rows_per_dim = 150;
    data.seed = 3;
    ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog_).ok());
  }

  Catalog catalog_;
};

TEST_P(EngineInvariantsTest, StructuralInvariantsHoldUnderRandomWorkload) {
  const SweepParam& p = GetParam();
  EngineOptions opts;
  opts.strategy = p.strategy;
  opts.value_model = p.model;
  opts.overlapping_fragments = p.overlapping;
  opts.use_mle_smoothing = p.model == ValueModel::kDeepSea;
  opts.benefit_cost_threshold = 0.05;
  opts.pool_limit_bytes = 6e9;  // tight: forces evictions
  opts.physical_execution = true;
  DeepSeaEngine engine(&catalog_, opts);
  InvariantProbe probe(&engine, opts.pool_limit_bytes, p.overlapping);
  engine.set_observer(&probe);
  Executor reference(&catalog_);

  Rng rng(p.seed);
  const auto names = BigBenchTemplates::Names();
  for (int q = 0; q < 25; ++q) {
    // Random template, random range (mixture of regimes and widths).
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    const double width = rng.Uniform(2000, 60000);
    const double center = rng.Bernoulli(0.7) ? rng.Gaussian(150000, 10000)
                                             : rng.Uniform(0, 400000);
    const double lo = Clamp(center - width / 2, 0, 400000 - width);
    auto plan = BigBenchTemplates::Build(name, lo, lo + width);
    ASSERT_TRUE(plan.ok());
    auto report = engine.ProcessQuery(*plan);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    // INVARIANT 1: pool never exceeds S_max.
    EXPECT_LE(engine.PoolBytes(), opts.pool_limit_bytes * 1.0001)
        << "query " << q;

    // INVARIANT 2: pool accounting matches the simulated FS exactly.
    EXPECT_NEAR(engine.PoolBytes(), engine.fs().TotalBytes("pool/"),
                1.0 + engine.PoolBytes() * 1e-9)
        << "query " << q;

    // INVARIANT 3: horizontal mode keeps materialized fragments of each
    // partition pairwise disjoint.
    if (!p.overlapping) {
      for (const ViewInfo* v : engine.views().AllViews()) {
        for (const auto& [attr, part] : v->partitions) {
          const auto mats = part.MaterializedIntervals();
          for (size_t i = 0; i < mats.size(); ++i) {
            for (size_t j = i + 1; j < mats.size(); ++j) {
              EXPECT_FALSE(mats[i].Overlaps(mats[j]))
                  << attr << ": " << mats[i].ToString() << " vs "
                  << mats[j].ToString();
            }
          }
        }
      }
    }

    // INVARIANT 4: physical results always equal ground truth.
    auto truth = reference.Execute(PushDownSelections(*plan, catalog_));
    ASSERT_TRUE(truth.ok());
    std::multiset<std::string> a, b;
    for (const Row& row : report->physical.rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      a.insert(line);
    }
    for (const Row& row : truth->rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      b.insert(line);
    }
    EXPECT_EQ(a, b) << "result mismatch at query " << q << " (" << name << ")";

    // INVARIANT 5: charged time is never negative and at least the
    // cheapest possible execution.
    EXPECT_GE(report->best_seconds, 0.0);
    EXPECT_GE(report->total_seconds, report->best_seconds);
  }

  // The probe must actually have run: one Apply (and, when enabled, one
  // Merge) stage boundary per query. Hive never reaches Apply — it is
  // the no-materialization baseline.
  if (p.strategy != StrategyKind::kHive) {
    EXPECT_GE(probe.checks(), 25);
  }

  // INVARIANT 6: every materialized fragment interval is non-empty and
  // lies inside its partition's domain.
  for (const ViewInfo* v : engine.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      for (const FragmentStats& f : part.fragments()) {
        if (!f.materialized) continue;
        EXPECT_FALSE(f.interval.IsEmpty());
        EXPECT_GE(f.interval.lo, part.domain.lo - 1e-6);
        EXPECT_LE(f.interval.hi, part.domain.hi + 1e-6);
        EXPECT_GE(f.size_bytes, 0.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineInvariantsTest,
    ::testing::Values(
        SweepParam{StrategyKind::kDeepSea, ValueModel::kDeepSea, true, 1},
        SweepParam{StrategyKind::kDeepSea, ValueModel::kDeepSea, true, 2},
        SweepParam{StrategyKind::kDeepSea, ValueModel::kDeepSea, false, 3},
        SweepParam{StrategyKind::kDeepSea, ValueModel::kNectar, true, 4},
        SweepParam{StrategyKind::kDeepSea, ValueModel::kNectarPlus, true, 5},
        SweepParam{StrategyKind::kNoRefine, ValueModel::kDeepSea, true, 6},
        SweepParam{StrategyKind::kEquiDepth, ValueModel::kDeepSea, true, 7},
        SweepParam{StrategyKind::kNoPartition, ValueModel::kDeepSea, true, 8},
        SweepParam{StrategyKind::kHive, ValueModel::kDeepSea, true, 9}),
    ParamName);

}  // namespace
}  // namespace deepsea
