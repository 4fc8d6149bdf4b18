#include "core/engine.h"

#include <gtest/gtest.h>

#include "workload/bigbench.h"
#include "workload/range_generator.h"

namespace deepsea {
namespace {

// Shared fixture: a small BigBench-like catalog (100 GB logical) plus a
// fresh engine per test.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BigBenchDataset::Options opts;
    opts.total_bytes = 100.0 * 1e9;
    opts.sample_rows_per_fact = 500;
    opts.sample_rows_per_dim = 200;
    ASSERT_TRUE(BigBenchDataset::Generate(opts, &catalog_).ok());
  }

  PlanPtr Q30(double lo, double hi) {
    auto plan = BigBenchTemplates::Build("Q30", lo, hi);
    EXPECT_TRUE(plan.ok());
    return *plan;
  }

  Catalog catalog_;
};

TEST_F(EngineTest, HiveStrategyNeverMaterializes) {
  EngineOptions opts;
  opts.strategy = StrategyKind::kHive;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    auto report = engine.ProcessQuery(Q30(10000, 14000));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->created_views.empty());
    EXPECT_EQ(report->materialize_seconds, 0.0);
    EXPECT_GT(report->total_seconds, 0.0);
  }
  EXPECT_EQ(engine.PoolBytes(), 0.0);
  EXPECT_EQ(engine.totals().views_created, 0);
}

TEST_F(EngineTest, DeepSeaMaterializesAfterEvidence) {
  EngineOptions opts;
  opts.strategy = StrategyKind::kDeepSea;
  DeepSeaEngine engine(&catalog_, opts);
  // Repeated similar queries accumulate benefit until the join view is
  // materialized; afterwards queries are answered from fragments.
  bool materialized = false;
  bool reused = false;
  for (int i = 0; i < 10; ++i) {
    auto report = engine.ProcessQuery(Q30(10000, 14000));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (!report->created_views.empty()) materialized = true;
    if (!report->used_view.empty()) reused = true;
  }
  EXPECT_TRUE(materialized);
  EXPECT_TRUE(reused);
  EXPECT_GT(engine.PoolBytes(), 0.0);
}

TEST_F(EngineTest, ReuseIsCheaperThanBase) {
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  double last_base = 0.0, last_total = 0.0;
  // Selection constants jitter around a fixed hot spot (as in the
  // paper's heavy-skew workloads), so the aggregate views never act as
  // exact-match query caches and reuse must come from partitioned
  // join-view fragments.
  for (int i = 0; i < 12; ++i) {
    auto report = engine.ProcessQuery(Q30(10000 + (i % 3) * 10,
                                          14000 + (i % 3) * 10));
    ASSERT_TRUE(report.ok());
    last_base = report->base_seconds;
    last_total = report->total_seconds;
  }
  // Steady state: answering from small fragments beats scanning the
  // fact table and recomputing the join.
  EXPECT_LT(last_total, 0.5 * last_base);
}

TEST_F(EngineTest, SharedViewAcrossTemplates) {
  // Q1, Q20 and Q30 share the projected store_sales x item join; the
  // view materialized for one serves the others.
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 20000 + i * 20, 30000 + i * 20);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
  }
  auto q1 = BigBenchTemplates::Build("Q1", 21000, 29000);
  ASSERT_TRUE(q1.ok());
  auto report = engine.ProcessQuery(*q1);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->used_view.empty());
  EXPECT_LT(report->best_seconds, report->base_seconds);
}

TEST_F(EngineTest, PoolLimitEnforced) {
  EngineOptions opts;
  opts.pool_limit_bytes = 2.0 * 1e9;  // 2 GB: far below the join view size
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 12; ++i) {
    auto report = engine.ProcessQuery(Q30(10000.0 + i * 50, 14000.0 + i * 50));
    ASSERT_TRUE(report.ok());
    EXPECT_LE(engine.PoolBytes(), opts.pool_limit_bytes * 1.0001)
        << "pool exceeded S_max after query " << i;
  }
}

TEST_F(EngineTest, NoPartitionStrategyStoresWholeViews) {
  EngineOptions opts;
  opts.strategy = StrategyKind::kNoPartition;
  DeepSeaEngine engine(&catalog_, opts);
  bool created = false;
  for (int i = 0; i < 6; ++i) {
    auto report = engine.ProcessQuery(Q30(10000, 14000));
    ASSERT_TRUE(report.ok());
    if (!report->created_views.empty()) {
      created = true;
      EXPECT_EQ(report->created_fragments, 0)
          << "NP must not create partition fragments";
    }
  }
  EXPECT_TRUE(created);
  bool any_whole = false;
  for (const ViewInfo* v : engine.views().AllViews()) {
    if (v->whole_materialized) any_whole = true;
  }
  EXPECT_TRUE(any_whole);
}

TEST_F(EngineTest, EquiDepthCreatesConfiguredFragmentCount) {
  EngineOptions opts;
  opts.strategy = StrategyKind::kEquiDepth;
  opts.equi_depth_fragments = 6;
  opts.enforce_block_lower_bound = false;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  int created_fragments = 0;
  for (int i = 0; i < 6; ++i) {
    auto report = engine.ProcessQuery(Q30(10000 + i * 10, 14000 + i * 10));
    ASSERT_TRUE(report.ok());
    created_fragments += report->created_fragments;
  }
  EXPECT_EQ(created_fragments, 6);
}

TEST_F(EngineTest, DeepSeaPartitionsFollowSelectionBoundaries) {
  EngineOptions opts;
  opts.enforce_block_lower_bound = false;
  // Materialize the join view on the first query, before its aggregate
  // starts caching the (identical) queries.
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(100000, 200000)).ok());
  }
  // Find the materialized partition and check a fragment boundary at
  // the selection endpoints.
  bool found_exact = false;
  for (const ViewInfo* v : engine.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      (void)attr;
      for (const FragmentStats& f : part.fragments()) {
        if (f.materialized && f.interval.lo == 100000.0 &&
            f.interval.hi == 200000.0) {
          found_exact = true;
        }
      }
    }
  }
  EXPECT_TRUE(found_exact)
      << "expected a fragment exactly covering the hot selection range";
}

TEST_F(EngineTest, RefinementCreatesFragmentsAfterCreation) {
  EngineOptions opts;
  opts.enforce_block_lower_bound = false;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  // Establish the view on one range...
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(50000, 150000)).ok());
  }
  // ...then shift to a sub-range repeatedly: DeepSea should refine.
  // (Fragments created in this phase are refinements — initial view
  // creation already happened above.)
  int refinements = 0;
  for (int i = 0; i < 8; ++i) {
    auto report = engine.ProcessQuery(Q30(60000, 90000));
    ASSERT_TRUE(report.ok());
    refinements += report->created_fragments;
  }
  EXPECT_GT(refinements, 0) << "expected progressive refinement";
}

TEST_F(EngineTest, NoRefineStrategyNeverRepartitions) {
  EngineOptions opts;
  opts.strategy = StrategyKind::kNoRefine;
  opts.enforce_block_lower_bound = false;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(50000, 150000)).ok());
  }
  int post_creation_fragments = 0;
  for (int i = 0; i < 8; ++i) {
    auto report = engine.ProcessQuery(Q30(60000, 90000));
    ASSERT_TRUE(report.ok());
    post_creation_fragments += report->created_fragments;
  }
  EXPECT_EQ(post_creation_fragments, 0);
}

TEST_F(EngineTest, OverlappingModeKeepsParents) {
  EngineOptions opts;
  opts.overlapping_fragments = true;
  opts.enforce_block_lower_bound = false;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(50000, 150000)).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(60000, 90000)).ok());
  }
  // With overlap allowed, some pair of materialized fragments overlaps.
  bool any_overlap = false;
  for (const ViewInfo* v : engine.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      (void)attr;
      const auto mats = part.MaterializedIntervals();
      for (size_t i = 0; i < mats.size(); ++i) {
        for (size_t j = i + 1; j < mats.size(); ++j) {
          if (mats[i].Overlaps(mats[j])) any_overlap = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_overlap);
}

TEST_F(EngineTest, HorizontalModeStaysDisjoint) {
  EngineOptions opts;
  opts.overlapping_fragments = false;
  opts.enforce_block_lower_bound = false;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(50000, 150000)).ok());
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(60000, 90000)).ok());
  }
  for (const ViewInfo* v : engine.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      (void)attr;
      const auto mats = part.MaterializedIntervals();
      for (size_t i = 0; i < mats.size(); ++i) {
        for (size_t j = i + 1; j < mats.size(); ++j) {
          EXPECT_FALSE(mats[i].Overlaps(mats[j]))
              << mats[i].ToString() << " overlaps " << mats[j].ToString();
        }
      }
    }
  }
}

TEST_F(EngineTest, PoolBytesMatchesSimFs) {
  EngineOptions opts;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(10000, 14000)).ok());
  }
  EXPECT_NEAR(engine.PoolBytes(), engine.fs().TotalBytes("pool/"),
              1.0 + engine.PoolBytes() * 1e-9);
}

TEST_F(EngineTest, FragmentReadIsSmallerThanWholeView) {
  EngineOptions opts;
  opts.enforce_block_lower_bound = false;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog_, opts);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(engine.ProcessQuery(Q30(10000 + i * 10, 14000 + i * 10)).ok());
  }
  auto report = engine.ProcessQuery(Q30(10100, 13900));
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->used_view.empty());
  EXPECT_GT(report->fragments_read, 0);
  // The (~1%) fragment read must be far cheaper than the base plan.
  EXPECT_LT(report->best_seconds, 0.3 * report->base_seconds);
}

}  // namespace
}  // namespace deepsea
