#include "plan/plan_serde.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "plan/signature.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

// ---------- plan serialization ----------

class PlanSerdeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BigBenchDataset::Options data;
    data.total_bytes = 10e9;
    data.sample_rows_per_fact = 300;
    data.sample_rows_per_dim = 60;
    ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog_).ok());
  }

  // Round-trips a plan and verifies signature equality (the strongest
  // observable identity the engine relies on).
  void CheckRoundTrip(const PlanPtr& plan) {
    const std::string text = SerializePlan(plan);
    auto restored = DeserializePlan(text);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << text;
    auto sig1 = ComputeSignature(plan, catalog_);
    auto sig2 = ComputeSignature(*restored, catalog_);
    ASSERT_TRUE(sig1.ok());
    ASSERT_TRUE(sig2.ok()) << sig2.status().ToString();
    EXPECT_EQ(sig1->ToString(), sig2->ToString()) << text;
    // And serialization is stable (idempotent round trip).
    EXPECT_EQ(SerializePlan(*restored), text);
  }

  Catalog catalog_;
};

TEST_F(PlanSerdeTest, ScanRoundTrip) { CheckRoundTrip(Scan("store_sales")); }

TEST_F(PlanSerdeTest, SelectRoundTrip) {
  CheckRoundTrip(Select(Scan("store_sales"),
                        RangePredicate("store_sales.item_sk", 10, 20)));
}

TEST_F(PlanSerdeTest, AllTemplatesRoundTrip) {
  for (const std::string& name : BigBenchTemplates::Names()) {
    auto plan = BigBenchTemplates::Build(name, 1000, 2000);
    ASSERT_TRUE(plan.ok());
    CheckRoundTrip(*plan);
  }
}

TEST_F(PlanSerdeTest, Q30DRoundTrip) {
  auto plan = BigBenchTemplates::BuildQ30D(1000, 2000, 10, 20);
  ASSERT_TRUE(plan.ok());
  CheckRoundTrip(*plan);
}

TEST_F(PlanSerdeTest, ViewRefRoundTrip) {
  // ViewRef name/attr/fragments survive (signatures need the view table
  // in the catalog, so compare the serialized text instead).
  const PlanPtr plan = ViewRef(
      "v1", "store_sales.item_sk",
      {Interval::ClosedOpen(0, 100), Interval::OpenClosed(100, 250)});
  const std::string text = SerializePlan(plan);
  auto restored = DeserializePlan(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->table_name(), "v1");
  EXPECT_EQ((*restored)->view_partition_attr(), "store_sales.item_sk");
  ASSERT_EQ((*restored)->view_fragments().size(), 2u);
  EXPECT_EQ((*restored)->view_fragments()[0], Interval::ClosedOpen(0, 100));
  EXPECT_EQ((*restored)->view_fragments()[1], Interval::OpenClosed(100, 250));
}

TEST_F(PlanSerdeTest, MalformedInputsRejected) {
  EXPECT_FALSE(DeserializePlan("").ok());
  EXPECT_FALSE(DeserializePlan("BOGUS x\n").ok());
  EXPECT_FALSE(DeserializePlan("SELECT (t.a >= 1)\n").ok());  // missing child
  EXPECT_FALSE(DeserializePlan("SCAN a\nSCAN b\n").ok());     // trailing root
  // Non-numeric fragment bounds: rejected, not thrown.
  EXPECT_FALSE(
      DeserializePlan("VIEWREF v1 attr=item_sk frags=x:2:1:1\n").ok());
  EXPECT_FALSE(DeserializePlan("VIEWREF v1 attr=item_sk frags=:2:1:1\n").ok());
}

// ---------- engine state persistence ----------

class EngineStateTest : public ::testing::Test {
 protected:
  BigBenchDataset::Options DataOptions() {
    BigBenchDataset::Options data;
    data.total_bytes = 100e9;
    data.sample_rows_per_fact = 300;
    data.sample_rows_per_dim = 60;
    return data;
  }
};

TEST_F(EngineStateTest, SaveLoadRoundTripPreservesPool) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine warm(&catalog, opts);
  for (int i = 0; i < 8; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000 + i * 20, 180000 + i * 20);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(warm.ProcessQuery(*plan).ok());
  }
  ASSERT_GT(warm.PoolBytes(), 0.0);
  auto state = warm.SaveState();
  ASSERT_TRUE(state.ok()) << state.status().ToString();

  // A fresh engine over a fresh (identical) catalog restores the pool.
  Catalog catalog2;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog2).ok());
  DeepSeaEngine cold(&catalog2, opts);
  const Status load = cold.LoadState(*state);
  ASSERT_TRUE(load.ok()) << load.ToString();
  EXPECT_NEAR(cold.PoolBytes(), warm.PoolBytes(), warm.PoolBytes() * 1e-9);
  EXPECT_EQ(cold.fs().List("pool/").size(), warm.fs().List("pool/").size());
  EXPECT_GE(cold.now(), warm.now());
}

TEST_F(EngineStateTest, WarmStartAnswersFromViewsImmediately) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine warm(&catalog, opts);
  for (int i = 0; i < 8; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(warm.ProcessQuery(*plan).ok());
  }
  auto state = warm.SaveState();
  ASSERT_TRUE(state.ok());

  Catalog catalog2;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog2).ok());
  DeepSeaEngine cold(&catalog2, opts);
  ASSERT_TRUE(cold.LoadState(*state).ok());
  // The very first query on the warm-started engine reuses the restored
  // fragments.
  auto plan = BigBenchTemplates::Build("Q30", 110000, 170000);
  ASSERT_TRUE(plan.ok());
  auto report = cold.ProcessQuery(*plan);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->used_view.empty());
  EXPECT_LT(report->best_seconds, 0.5 * report->base_seconds);
}

TEST_F(EngineStateTest, LoadMergesIntoExistingTracking) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine a(&catalog, opts);
  for (int i = 0; i < 6; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000, 180000);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(a.ProcessQuery(*plan).ok());
  }
  auto state = a.SaveState();
  ASSERT_TRUE(state.ok());

  // Engine b has already tracked the same views via its own queries;
  // loading must merge by signature, not duplicate.
  Catalog catalog2;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog2).ok());
  DeepSeaEngine b(&catalog2, opts);
  auto plan = BigBenchTemplates::Build("Q30", 50000, 90000);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(b.ProcessQuery(*plan).ok());
  const size_t tracked_before = b.views().AllViews().size();
  ASSERT_TRUE(b.LoadState(*state).ok());
  // Only genuinely new views (the aggregates of a's queries) add
  // entries; the shared join/project views merged.
  EXPECT_LT(b.views().AllViews().size(), tracked_before + 4);
}

TEST_F(EngineStateTest, BadStateRejected) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, EngineOptions{});
  EXPECT_FALSE(engine.LoadState("").ok());
  EXPECT_FALSE(engine.LoadState("garbage").ok());
  EXPECT_FALSE(engine.LoadState("DEEPSEA-STATE 1\nVIEW\nnope").ok());
}

TEST_F(EngineStateTest, CorruptedStateLeavesEngineUntouched) {
  // Every rejected blob must leave the engine exactly as it was: no
  // partially tracked views, no pool files, no clock advance.
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine warm(&catalog, opts);
  for (int i = 0; i < 8; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000 + i * 20, 180000 + i * 20);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(warm.ProcessQuery(*plan).ok());
  }
  auto state = warm.SaveState();
  ASSERT_TRUE(state.ok());
  ASSERT_GT(warm.PoolBytes(), 0.0);

  std::vector<std::string> corrupted;
  // Truncated mid-blob.
  corrupted.push_back(state->substr(0, state->size() / 2));
  {
    // Version skew: a future format version must be rejected, not
    // half-understood.
    std::string skew = *state;
    const size_t pos = skew.find("DEEPSEA-STATE 2");
    ASSERT_NE(pos, std::string::npos);
    skew.replace(pos, 15, "DEEPSEA-STATE 3");
    corrupted.push_back(skew);
  }
  {
    // Field-mangled number: atof would quietly read this as 0.
    std::string mangled = *state;
    const size_t pos = mangled.find("STATS ");
    ASSERT_NE(pos, std::string::npos);
    mangled[pos + 6] = 'x';
    corrupted.push_back(mangled);
  }
  {
    // Field-mangled flag: only "0"/"1" are valid.
    std::string badflag = *state;
    const size_t pos = badflag.find("FRAGMENT ");
    ASSERT_NE(pos, std::string::npos);
    const size_t eol = badflag.find('\n', pos);
    ASSERT_NE(eol, std::string::npos);
    badflag[eol - 1] = '7';
    corrupted.push_back(badflag);
  }
  // A structurally valid blob whose plan references an unknown table
  // fails signature resolution (inside the commit section) — that exit
  // path must be just as clean.
  corrupted.push_back(
      "DEEPSEA-STATE 2\nCLOCK 99\nVIEW\nPLAN 1\nSCAN no_such_table\n"
      "STATS 1 1 0 0 1\nENDVIEW\n");

  auto expect_untouched = [](const DeepSeaEngine& cold, int64_t clock_before,
                             const std::string& label) {
    EXPECT_EQ(cold.PoolBytes(), 0.0) << label;
    EXPECT_EQ(cold.views().AllViews().size(), 0u) << label;
    EXPECT_TRUE(cold.fs().List("pool/").empty()) << label;
    EXPECT_EQ(cold.now(), clock_before) << label;
  };
  for (const std::string& blob : corrupted) {
    Catalog catalog2;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog2).ok());
    DeepSeaEngine cold(&catalog2, opts);
    const int64_t clock_before = cold.now();
    EXPECT_FALSE(cold.LoadState(blob).ok());
    expect_untouched(cold, clock_before, blob.substr(0, 40));
    // A good blob still loads afterwards (rejection is stateless).
    EXPECT_TRUE(cold.LoadState(*state).ok());
    EXPECT_NEAR(cold.PoolBytes(), warm.PoolBytes(), warm.PoolBytes() * 1e-9);
  }

  // Seeded mutation sweep: overwrite a byte, truncate, delete a short
  // run, or swap a digit. A mutated blob may still be valid and load;
  // otherwise it must be rejected with the engine untouched — and no
  // blob may crash the engine.
  Catalog pristine;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &pristine).ok());
  Rng rng(12345);
  for (int m = 0; m < 200; ++m) {
    std::string blob = *state;
    const size_t pos = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(blob.size()) - 1));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        blob[pos] = static_cast<char>(rng.UniformInt(0, 255));
        break;
      case 1:
        blob.resize(pos);
        break;
      case 2:
        blob.erase(pos, static_cast<size_t>(rng.UniformInt(1, 16)));
        break;
      default: {
        const size_t d = blob.find_first_of("0123456789", pos);
        if (d != std::string::npos) {
          blob[d] = static_cast<char>(
              '0' + (blob[d] - '0' + rng.UniformInt(1, 9)) % 10);
        }
        break;
      }
    }
    Catalog catalog2 = pristine;
    DeepSeaEngine cold(&catalog2, opts);
    const int64_t clock_before = cold.now();
    if (cold.LoadState(blob).ok()) continue;
    expect_untouched(cold, clock_before, "mutation " + std::to_string(m));
  }
}


TEST_F(PlanSerdeTest, SortLimitRoundTrip) {
  const PlanPtr plan = Limit(
      Sort(Select(Scan("store_sales"),
                  RangePredicate("store_sales.item_sk", 5, 9)),
           {{"store_sales.net_paid", false}, {"store_sales.item_sk", true}}),
      25);
  const std::string text = SerializePlan(plan);
  auto restored = DeserializePlan(text);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString() << "\n" << text;
  ASSERT_EQ((*restored)->kind(), PlanKind::kLimit);
  EXPECT_EQ((*restored)->limit(), 25);
  const PlanPtr sort = (*restored)->child(0);
  ASSERT_EQ(sort->kind(), PlanKind::kSort);
  ASSERT_EQ(sort->sort_keys().size(), 2u);
  EXPECT_FALSE(sort->sort_keys()[0].ascending);
  EXPECT_TRUE(sort->sort_keys()[1].ascending);
  EXPECT_EQ(SerializePlan(*restored), text);
}

}  // namespace
}  // namespace deepsea
