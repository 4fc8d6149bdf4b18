#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "plan/pushdown.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "sim/runtime_estimator.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

constexpr double kMB = 1024.0 * 1024.0;
constexpr double kGB = 1024.0 * kMB;

TEST(ClusterModelTest, MapTasksPerBlock) {
  ClusterModel m;
  const double block = m.config().block_bytes;
  EXPECT_EQ(m.MapTasksForFile(0), 0);
  EXPECT_EQ(m.MapTasksForFile(1), 1);
  EXPECT_EQ(m.MapTasksForFile(block), 1);
  EXPECT_EQ(m.MapTasksForFile(block + 1), 2);
  EXPECT_EQ(m.MapTasksForFiles({block, block, 1}), 3);
}

TEST(ClusterModelTest, SmallFilesPayStartupPerFile) {
  ClusterModel m;
  // Same bytes, one file vs 60 files: the 60-file layout needs 60
  // tasks' worth of startup spread over the slots.
  const double total = 60.0 * kMB;
  const double one = m.MapPhaseSeconds({total});
  std::vector<double> many(60, kMB);
  const double sixty = m.MapPhaseSeconds(many);
  EXPECT_GT(sixty, 0.0);
  EXPECT_GE(one, 0.0);
  // One file of 60MB is a single task: startup + io. 60 files fit in one
  // wave (186 slots) so the wave time is startup + 1MB io, which is
  // LOWER per wave; but with more waves than slots the effect reverses.
  std::vector<double> very_many(600, kMB);
  const double six_hundred = m.MapPhaseSeconds(very_many);
  EXPECT_GT(six_hundred, sixty);
}

TEST(ClusterModelTest, WaveScheduling) {
  ClusterConfig cfg;
  cfg.num_workers = 1;
  cfg.map_slots_per_worker = 2;
  cfg.task_startup_seconds = 1.0;
  cfg.read_bytes_per_second = kMB;
  cfg.worker_read_bytes_per_second = 2.0 * kMB;  // 2 slots saturate
  cfg.block_bytes = kMB;
  cfg.file_open_seconds = 0.0;  // isolate wave behaviour
  ClusterModel m(cfg);
  // 4 tasks of 1MB on 2 slots: 2 waves of startup (2s) + 4MB at the
  // 2MB/s cluster cap (2s) = 4s.
  EXPECT_DOUBLE_EQ(m.MapPhaseSeconds({kMB, kMB, kMB, kMB}), 4.0);
  // 2 tasks: 1 wave (1s) + 2MB / 2MB/s (1s) = 2s.
  EXPECT_DOUBLE_EQ(m.MapPhaseSeconds({kMB, kMB}), 2.0);
}

TEST(ClusterModelTest, PerFileOpenCost) {
  ClusterConfig cfg;
  cfg.file_open_seconds = 0.5;
  // A single task already saturates the cluster cap, so file layout
  // changes only the open cost, not the bandwidth.
  cfg.read_bytes_per_second = cfg.cluster_read_bytes_per_second();
  ClusterModel m(cfg);
  const double one = m.MapPhaseSeconds({10 * kMB});
  const double split = m.MapPhaseSeconds({5 * kMB, 5 * kMB});
  EXPECT_NEAR(split - one, 0.5, 1e-9);
  // Empty files do not pay the open cost.
  EXPECT_DOUBLE_EQ(m.MapPhaseSeconds({10 * kMB, 0.0}), one);
}

TEST(ClusterModelTest, WriteSlowerThanRead) {
  ClusterModel m;
  const double bytes = 10 * kGB;
  EXPECT_GT(m.WriteSeconds(bytes), m.TempWriteSeconds(bytes));
  EXPECT_GT(m.WriteSeconds(bytes), 0.0);
}

TEST(ClusterModelTest, PartitionedWriteAddsPerFileOverhead) {
  ClusterModel m;
  const double bytes = kGB;
  const double one = m.PartitionedWriteSeconds(bytes, 1);
  const double sixty = m.PartitionedWriteSeconds(bytes, 60);
  EXPECT_NEAR(sixty - one, 59.0 * m.config().per_file_overhead_seconds, 1e-9);
}

TEST(ClusterModelTest, ZeroBytesZeroCost) {
  ClusterModel m;
  EXPECT_EQ(m.MapPhaseSeconds({}), 0.0);
  EXPECT_EQ(m.ShuffleSeconds(0), 0.0);
  EXPECT_EQ(m.WriteSeconds(0), 0.0);
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = std::make_shared<Table>(
        "fact", Schema({{"fact.k", DataType::kInt64},
                        {"fact.v", DataType::kDouble}}));
    fact->set_logical_row_count(100000000);  // 100M rows
    fact->set_avg_row_bytes(100);
    AttributeHistogram hist(Interval(0, 1000), 100);
    hist.AddRange(Interval(0, 1000), 100000000);
    fact->SetHistogram("fact.k", hist);
    fact->set_ndv("fact.k", 1000);
    catalog_.Put(fact);

    auto dim = std::make_shared<Table>(
        "dim", Schema({{"dim.k", DataType::kInt64},
                       {"dim.g", DataType::kInt64}}));
    dim->set_logical_row_count(1000);
    dim->set_avg_row_bytes(50);
    dim->set_ndv("dim.g", 40);
    catalog_.Put(dim);
  }

  Catalog catalog_;
  ClusterModel cluster_;
};

TEST_F(CostModelTest, ScanCostScalesWithBytes) {
  PlanCostEstimator est(&cluster_, &catalog_);
  auto fact_cost = est.Estimate(Scan("fact"));
  auto dim_cost = est.Estimate(Scan("dim"));
  ASSERT_TRUE(fact_cost.ok());
  ASSERT_TRUE(dim_cost.ok());
  EXPECT_GT(fact_cost->seconds, dim_cost->seconds);
  EXPECT_DOUBLE_EQ(fact_cost->out_bytes, 1e10);
  EXPECT_EQ(fact_cost->map_tasks,
            cluster_.MapTasksForFile(1e10));
}

TEST_F(CostModelTest, SelectivityFromHistogram) {
  PlanCostEstimator est(&cluster_, &catalog_);
  const double sel =
      est.SelectivityOf(ExtractRanges(RangePredicate("fact.k", 0, 100)));
  EXPECT_NEAR(sel, 0.1, 1e-6);
}

TEST_F(CostModelTest, SelectReducesRowsNotScanCost) {
  PlanCostEstimator est(&cluster_, &catalog_);
  auto scan = est.Estimate(Scan("fact"));
  auto filtered = est.Estimate(Select(Scan("fact"), RangePredicate("fact.k", 0, 100)));
  ASSERT_TRUE(filtered.ok());
  EXPECT_NEAR(filtered->out_rows, scan->out_rows * 0.1, scan->out_rows * 0.001);
  EXPECT_DOUBLE_EQ(filtered->seconds, scan->seconds);  // fused selection
}

TEST_F(CostModelTest, JoinAddsShuffleAndJobOverhead) {
  PlanCostEstimator est(&cluster_, &catalog_);
  auto join = est.Estimate(Join(Scan("fact"), Scan("dim"),
                                Cmp(CompareOp::kEq, Col("fact.k"), Col("dim.k"))));
  auto scan = est.Estimate(Scan("fact"));
  ASSERT_TRUE(join.ok());
  EXPECT_GT(join->seconds, scan->seconds);
  EXPECT_EQ(join->num_jobs, 1);
  EXPECT_GT(join->bytes_shuffled, 0.0);
}

TEST_F(CostModelTest, PushedDownSelectionShrinksJoinCost) {
  PlanCostEstimator est(&cluster_, &catalog_);
  const ExprPtr join_cond = Cmp(CompareOp::kEq, Col("fact.k"), Col("dim.k"));
  auto pushed = est.Estimate(Join(
      Select(Scan("fact"), RangePredicate("fact.k", 0, 10)), Scan("dim"), join_cond));
  auto unpushed = est.Estimate(
      Select(Join(Scan("fact"), Scan("dim"), join_cond),
             RangePredicate("fact.k", 0, 10)));
  ASSERT_TRUE(pushed.ok());
  ASSERT_TRUE(unpushed.ok());
  EXPECT_LT(pushed->seconds, unpushed->seconds);
  // Both return the same logical row estimate.
  EXPECT_NEAR(pushed->out_rows, unpushed->out_rows, unpushed->out_rows * 0.01);
}

TEST_F(CostModelTest, AggregateUsesNdv) {
  PlanCostEstimator est(&cluster_, &catalog_);
  auto agg = est.Estimate(Aggregate(Scan("dim"), {"dim.g"},
                                    {{AggFunc::kCount, "", "n"}}));
  ASSERT_TRUE(agg.ok());
  EXPECT_NEAR(agg->out_rows, 40.0, 1e-6);
}

TEST_F(CostModelTest, ViewRefFragmentBytesFromHistogram) {
  // Register a view table with a histogram.
  auto view = std::make_shared<Table>(
      "v1", Schema({{"fact.k", DataType::kInt64}}));
  view->set_logical_row_count(1000000);
  view->set_avg_row_bytes(100);
  AttributeHistogram hist(Interval(0, 1000), 100);
  hist.AddRange(Interval(0, 1000), 1000000);
  view->SetHistogram("fact.k", hist);
  catalog_.Put(view);
  PlanCostEstimator est(&cluster_, &catalog_);
  auto frag = est.Estimate(ViewRef("v1", "fact.k", {Interval(0, 100)}));
  auto whole = est.Estimate(ViewRef("v1", "", {}));
  ASSERT_TRUE(frag.ok());
  ASSERT_TRUE(whole.ok());
  EXPECT_NEAR(frag->bytes_read, 0.1 * whole->bytes_read, 1e-3 * whole->bytes_read);
  EXPECT_LT(frag->seconds, whole->seconds + 1e-9);
}

// The fold counts each node's output columns as OutputSchema does, on
// every node of every template plan and of its pushed-down plan.
TEST(EstimateNodeTest, ColumnCountsMatchOutputSchema) {
  BigBenchDataset::Options data;
  data.total_bytes = 100e9;
  data.sample_rows_per_fact = 64;
  data.sample_rows_per_dim = 16;
  data.seed = 7;
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog).ok());
  ClusterModel cluster;
  PlanCostEstimator est(&cluster, &catalog);
  std::set<PlanKind> kinds;
  int nodes = 0;
  for (const std::string& name : BigBenchTemplates::Names()) {
    auto plan = BigBenchTemplates::Build(name, 1000.0, 150000.0);
    ASSERT_TRUE(plan.ok()) << name;
    for (const PlanPtr& root : {*plan, PushDownSelections(*plan, catalog)}) {
      std::vector<PlanPtr> subplans;
      CollectSubplans(root, &subplans);
      for (const PlanPtr& node : subplans) {
        auto schema = node->OutputSchema(catalog);
        auto node_est = est.EstimateNode(node);
        ASSERT_TRUE(schema.ok()) << name;
        ASSERT_TRUE(node_est.ok()) << name;
        EXPECT_EQ(node_est->out_columns, schema->num_columns())
            << name << "\n" << node->ToString();
        kinds.insert(node->kind());
        ++nodes;
      }
    }
  }
  for (PlanKind k : {PlanKind::kScan, PlanKind::kSelect, PlanKind::kProject,
                     PlanKind::kJoin, PlanKind::kAggregate}) {
    EXPECT_TRUE(kinds.count(k)) << PlanKindName(k);
  }
  EXPECT_GT(nodes, 100) << nodes;
}

TEST(RuntimeEstimatorTest, ProjectsLinearTrend) {
  RuntimeEstimator est(3);
  est.Record("Q30", 100, 10);
  est.Record("Q30", 200, 20);
  est.Record("Q30", 300, 30);
  EXPECT_NEAR(est.Project("Q30", 400), 40.0, 1e-6);
  EXPECT_EQ(est.NumObservations("Q30"), 3u);
}

TEST(RuntimeEstimatorTest, FallsBackToMeanWithFewSamples) {
  RuntimeEstimator est(3);
  est.Record("Q1", 100, 10);
  est.Record("Q1", 300, 20);
  EXPECT_NEAR(est.Project("Q1", 1000), 15.0, 1e-9);
  EXPECT_EQ(est.Project("unknown", 5, 99.0), 99.0);
}

TEST(RuntimeEstimatorTest, ProjectCumulativeExtrapolates) {
  // 10 queries: first expensive (materialization), rest cheap.
  std::vector<double> times = {100, 10, 10, 10, 10, 10, 10, 10, 10, 10};
  const double projected = RuntimeEstimator::ProjectCumulative(times, 100);
  // Roughly 100 + 99*10 with the regression smoothing the first spike.
  EXPECT_GT(projected, 800.0);
  EXPECT_LT(projected, 1400.0);
}

TEST(RuntimeEstimatorTest, ProjectCumulativeShortInputs) {
  EXPECT_EQ(RuntimeEstimator::ProjectCumulative({}, 10), 0.0);
  EXPECT_EQ(RuntimeEstimator::ProjectCumulative({5}, 10), 50.0);
  // Enough data: exact prefix sum when target <= n.
  EXPECT_EQ(RuntimeEstimator::ProjectCumulative({1, 2, 3}, 2), 3.0);
}

}  // namespace
}  // namespace deepsea
