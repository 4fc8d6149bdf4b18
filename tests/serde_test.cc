#include "plan/plan_serde.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/engine.h"
#include "core/mle_model.h"
#include "core/shared_pool.h"
#include "plan/signature.h"
#include "part_mass.h"
#include "pool_index.h"
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

TEST_F(PlanSerdeTest, MalformedInputsRejected) {
  EXPECT_FALSE(DeserializePlan("").ok());
  EXPECT_FALSE(DeserializePlan("BOGUS x\n").ok());
  EXPECT_FALSE(DeserializePlan("SELECT (t.a >= 1)\n").ok());  // missing child
  EXPECT_FALSE(DeserializePlan("SCAN a\nSCAN b\n").ok());     // trailing root
  // Stored plans read base tables only: a view read is no operator of
  // the format, whatever its fields.
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
  // The load rebuilt the pool-content index: it equals its definition
  // and indexes the same views, in the same order, as the saved pool.
  EXPECT_TRUE(PoolIndexMatchesDefinition(warm.views()));
  EXPECT_TRUE(PoolIndexMatchesDefinition(cold.views()));
  EXPECT_TRUE(FragmentIndexMatchesScan(cold.views()));
  // The load rebuilt the part masses of the restored pool content.
  EXPECT_TRUE(PartMassMatchesRebuild(warm.pool()));
  EXPECT_TRUE(PartMassMatchesRebuild(cold.pool()));
  std::vector<std::string> warm_ids;
  std::vector<std::string> cold_ids;
  for (const ViewInfo* v : warm.views().PoolViews()) warm_ids.push_back(v->id);
  for (const ViewInfo* v : cold.views().PoolViews()) cold_ids.push_back(v->id);
  EXPECT_FALSE(warm_ids.empty());
  EXPECT_EQ(cold_ids, warm_ids);
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

TEST_F(EngineStateTest, ViewsAnsweredFromViewsTrackNoViewOverAViewRef) {
  // Seven of these eight Q30 queries are answered from a view. Their
  // rewritten plans read a ViewRef, and no subplan over it may become a
  // view: no lookup of a submitted query's subplan could return one.
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  DeepSeaEngine engine(&catalog, opts);
  int from_view = 0;
  for (int i = 0; i < 8; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000 + i * 20, 180000 + i * 20);
    ASSERT_TRUE(plan.ok());
    auto report = engine.ProcessQuery(*plan);
    ASSERT_TRUE(report.ok());
    if (!report->used_view.empty()) ++from_view;
  }
  EXPECT_EQ(from_view, 7);
  for (const ViewInfo* v : engine.views().AllViews()) {
    ASSERT_NE(v->plan, nullptr);
    std::vector<PlanPtr> nodes;
    CollectSubplans(v->plan, &nodes);
    for (const PlanPtr& node : nodes) {
      EXPECT_NE(node->kind(), PlanKind::kViewRef) << v->id << "\n"
                                                  << v->plan->ToString();
    }
  }
  auto state = engine.SaveState();
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->find("VIEWREF"), std::string::npos);
}

TEST_F(EngineStateTest, BadStateRejected) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine engine(&catalog, EngineOptions{});
  EXPECT_FALSE(engine.LoadState("").ok());
  EXPECT_FALSE(engine.LoadState("garbage").ok());
  EXPECT_FALSE(engine.LoadState("DEEPSEA-STATE 3\nVIEW\nnope").ok());
}

// A saved blob the corruption sweep mutates, with the pool its
// unmutated load must restore.
struct SourceBlob {
  std::string label;
  std::string state;
  double pool_bytes = 0.0;
  std::vector<std::string> pool_ids;  ///< pooled view ids, in index order
};

std::vector<std::string> PoolViewIds(const ViewCatalog& views) {
  std::vector<std::string> ids;
  for (const ViewInfo* v : views.PoolViews()) ids.push_back(v->id);
  return ids;
}

// One tenant, eight overlapping Q30 range queries.
void SaveSingleTenantBlob(const BigBenchDataset::Options& data,
                          const EngineOptions& opts, SourceBlob* out) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog).ok());
  DeepSeaEngine warm(&catalog, opts);
  for (int i = 0; i < 8; ++i) {
    auto plan = BigBenchTemplates::Build("Q30", 100000 + i * 20, 180000 + i * 20);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(warm.ProcessQuery(*plan).ok());
  }
  auto state = warm.SaveState();
  ASSERT_TRUE(state.ok());
  ASSERT_GT(warm.PoolBytes(), 0.0);
  *out = {"single-tenant", *state, warm.PoolBytes(), PoolViewIds(warm.views())};
}

// Two tenants on one SharedPool. As in bench_ext_multiattr, alice's Q30D
// queries select narrow item ranges and bob's narrow date windows, so
// the shared join view is partitioned on both item_sk and sold_date.
// A final Q12 query tracks a view whose item.price partition has
// pending intervals but no materialized content.
void SaveTwoTenantBlob(const BigBenchDataset::Options& data,
                       const EngineOptions& opts, SourceBlob* out) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog).ok());
  SharedPool shared(&catalog, opts);
  DeepSeaEngine alice(&catalog, &shared, "alice");
  DeepSeaEngine bob(&catalog, &shared, "bob");
  Rng rng(17);
  for (int i = 0; i < 12; ++i) {
    const double lo = 100000 + rng.Uniform(-2000, 2000);
    const double d = 100 + rng.Uniform(-10, 10);
    auto item = BigBenchTemplates::BuildQ30D(lo, lo + 30000, 0, 365);
    auto date = BigBenchTemplates::BuildQ30D(0, 400000, d, d + 30);
    ASSERT_TRUE(item.ok() && date.ok());
    ASSERT_TRUE(alice.ProcessQuery(*item).ok());
    ASSERT_TRUE(bob.ProcessQuery(*date).ok());
  }
  auto q12 = BigBenchTemplates::Build("Q12", 50000, 60000);
  ASSERT_TRUE(q12.ok());
  ASSERT_TRUE(bob.ProcessQuery(*q12).ok());

  bool two_attrs = false;
  bool unmaterialized_pending = false;
  for (const ViewInfo* v : alice.views().AllViews()) {
    two_attrs |= v->partitions.count("store_sales.item_sk") > 0 &&
                 v->partitions.count("store_sales.sold_date") > 0;
    for (const auto& [attr, part] : v->partitions) {
      (void)attr;
      unmaterialized_pending |= !v->whole_materialized &&
                                !part.pending.empty() &&
                                part.MaterializedIntervals().empty();
    }
  }
  ASSERT_TRUE(two_attrs) << "no view partitioned on item_sk and sold_date";
  ASSERT_TRUE(unmaterialized_pending) << "no unmaterialized pending intervals";
  auto state = alice.SaveState();
  ASSERT_TRUE(state.ok());
  ASSERT_GT(alice.PoolBytes(), 0.0);
  *out = {"two-tenant", *state, alice.PoolBytes(), PoolViewIds(alice.views())};
}

TEST_F(EngineStateTest, CorruptedStateLeavesEngineUntouched) {
  // Every rejected blob must leave the engine exactly as it was: no
  // partially tracked views, no pool files, no clock advance. Two
  // source blobs are corrupted: a single-tenant one and a richer
  // two-tenant one (multi-attribute partitions, pending intervals).
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  std::vector<SourceBlob> sources(2);
  ASSERT_NO_FATAL_FAILURE(
      SaveSingleTenantBlob(DataOptions(), opts, &sources[0]));
  ASSERT_NO_FATAL_FAILURE(SaveTwoTenantBlob(DataOptions(), opts, &sources[1]));

  Catalog pristine;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &pristine).ok());
  auto expect_untouched = [](const DeepSeaEngine& cold, int64_t clock_before,
                             const std::string& label) {
    EXPECT_EQ(cold.PoolBytes(), 0.0) << label;
    EXPECT_EQ(cold.views().AllViews().size(), 0u) << label;
    EXPECT_TRUE(cold.fs().List("pool/").empty()) << label;
    EXPECT_EQ(cold.now(), clock_before) << label;
  };
  for (const SourceBlob& source : sources) {
    SCOPED_TRACE(source.label);
    const std::string& state = source.state;
    {
      // The unmutated blob restores the saved pool: the same bytes and
      // the same pooled views. Saving the restored pool reproduces the
      // blob, so every partition, pending interval, event and hit came
      // back too.
      Catalog catalog2 = pristine;
      DeepSeaEngine cold(&catalog2, opts);
      ASSERT_TRUE(cold.LoadState(state).ok());
      EXPECT_NEAR(cold.PoolBytes(), source.pool_bytes,
                  source.pool_bytes * 1e-9);
      EXPECT_FALSE(source.pool_ids.empty());
      EXPECT_EQ(PoolViewIds(cold.views()), source.pool_ids);
      EXPECT_TRUE(PoolIndexMatchesDefinition(cold.views()));
      EXPECT_TRUE(FragmentIndexMatchesScan(cold.views()));
      EXPECT_TRUE(PartMassMatchesRebuild(cold.pool()));
      auto resaved = cold.SaveState();
      ASSERT_TRUE(resaved.ok());
      EXPECT_EQ(*resaved, state);
    }

    std::vector<std::string> corrupted;
    // Truncated mid-blob.
    corrupted.push_back(state.substr(0, state.size() / 2));
    // Version skew: the two formats before version 3 and a future one
    // must be rejected, not half-understood. (Version 3 still loads; see
    // Version3BlobLoadsWithEmptyLedgers.)
    const std::string header = "DEEPSEA-STATE 4";
    ASSERT_EQ(state.rfind(header, 0), 0u);
    for (const char* other : {"DEEPSEA-STATE 1", "DEEPSEA-STATE 2",
                              "DEEPSEA-STATE 5"}) {
      corrupted.push_back(other + state.substr(header.size()));
    }
    {
      // Ledger lines: version 3 has none, a view has at most one, and
      // each has four fields, the last a flag.
      const size_t pos = state.find("\nLEDGER ");
      ASSERT_NE(pos, std::string::npos);
      const size_t eol = state.find('\n', pos + 1);
      const std::string line = state.substr(pos + 1, eol - pos);
      corrupted.push_back("DEEPSEA-STATE 3" + state.substr(header.size()));
      corrupted.push_back(state.substr(0, eol + 1) + line +
                          state.substr(eol + 1));
      corrupted.push_back(state.substr(0, eol - 1) + "7" + state.substr(eol));
      corrupted.push_back(state.substr(0, state.rfind(' ', eol)) +
                          state.substr(eol));
    }
    {
      // Field-mangled number: atof would quietly read this as 0.
      std::string mangled = state;
      const size_t pos = mangled.find("STATS ");
      ASSERT_NE(pos, std::string::npos);
      mangled[pos + 6] = 'x';
      corrupted.push_back(mangled);
    }
    {
      // Field-mangled flag: only "0"/"1" are valid.
      std::string badflag = state;
      const size_t pos = badflag.find("FRAGMENT ");
      ASSERT_NE(pos, std::string::npos);
      const size_t eol = badflag.find('\n', pos);
      ASSERT_NE(eol, std::string::npos);
      badflag[eol - 1] = '7';
      corrupted.push_back(badflag);
    }
    {
      // Non-finite numbers: strtod reads "nan" and "inf", and a saved
      // state holds neither. Each replaces one number of the first line
      // with `keyword`, where the blob has such a line.
      struct NonFinite {
        const char* keyword;
        size_t field;  ///< space-separated field after the keyword
        const char* value;
      };
      for (const NonFinite& nf : std::vector<NonFinite>{
               {"CLOCK", 0, "nan"},
               {"STATS", 0, "nan"},
               {"STATS", 1, "inf"},
               {"LEDGER", 0, "nan"},
               {"LEDGER", 1, "inf"},
               {"LEDGER", 2, "-inf"},
               {"EVENT", 0, "nan"},
               {"EVENT", 1, "-inf"},
               {"PARTITION", 1, "nan"},
               {"PENDING", 1, "inf"},
               {"FRAGMENT", 0, "nan"},
               {"FRAGMENT", 4, "nan"},
               {"HIT", 0, "nan"},
               {"HIT", 2, "nan"}}) {
        const std::string prefix = std::string("\n") + nf.keyword + " ";
        size_t pos = state.find(prefix);
        if (pos == std::string::npos) continue;
        pos += prefix.size();
        for (size_t f = 0; f < nf.field; ++f) pos = state.find(' ', pos) + 1;
        const size_t end = state.find_first_of(" \n", pos);
        corrupted.push_back(state.substr(0, pos) + nf.value +
                            state.substr(end));
      }
    }
    // A structurally valid blob whose plan references an unknown table
    // fails signature resolution (inside the commit section) — that
    // exit path must be just as clean.
    corrupted.push_back(
        "DEEPSEA-STATE 3\nCLOCK 99\nVIEW\nPLAN 1\nSCAN no_such_table\n"
        "STATS 1 1 1\nENDVIEW\n");
    // A view over another view's read, after the valid views: stored
    // plans read base tables only, so the plan parser rejects the line
    // and with it the whole blob.
    corrupted.push_back(state +
                        "VIEW\nPLAN 1\n"
                        "VIEWREF v1 attr=store_sales.item_sk frags=0:100:1:1\n"
                        "STATS 1 1 1\nENDVIEW\n");

    for (const std::string& blob : corrupted) {
      Catalog catalog2 = pristine;
      DeepSeaEngine cold(&catalog2, opts);
      const int64_t clock_before = cold.now();
      EXPECT_FALSE(cold.LoadState(blob).ok());
      expect_untouched(cold, clock_before, blob.substr(0, 40));
      // A good blob still loads afterwards (rejection is stateless).
      EXPECT_TRUE(cold.LoadState(state).ok());
      EXPECT_NEAR(cold.PoolBytes(), source.pool_bytes,
                  source.pool_bytes * 1e-9);
    }

    // Seeded mutation sweep: overwrite a byte, truncate, delete a short
    // run, or swap a digit. A mutated blob may still be valid and load;
    // otherwise it must be rejected with the engine untouched — and no
    // blob may crash the engine.
    Rng rng(12345);
    for (int m = 0; m < 200; ++m) {
      std::string blob = state;
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
}

TEST_F(EngineStateTest, Version3BlobLoadsWithEmptyLedgers) {
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  SourceBlob source;
  ASSERT_NO_FATAL_FAILURE(SaveSingleTenantBlob(DataOptions(), opts, &source));
  // The source pool created views, so some ledger is not empty.
  const std::vector<std::string> lines = Split(source.state, '\n');
  std::string v3 = "DEEPSEA-STATE 3";
  std::string emptied = "DEEPSEA-STATE 4";
  bool created = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("LEDGER ", 0) == 0) {
      created |= lines[i].back() == '1';
      emptied += "\nLEDGER 0 0 0 0";
      continue;
    }
    v3 += "\n" + lines[i];
    emptied += "\n" + lines[i];
  }
  ASSERT_TRUE(created);

  // A version 3 blob (the same pool, no ledgers) loads the same pool
  // with every ledger empty, and saves as version 4.
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
  DeepSeaEngine cold(&catalog, opts);
  ASSERT_TRUE(cold.LoadState(v3).ok());
  EXPECT_NEAR(cold.PoolBytes(), source.pool_bytes, source.pool_bytes * 1e-9);
  EXPECT_EQ(PoolViewIds(cold.views()), source.pool_ids);
  for (const ViewInfo* v : cold.views().AllViews()) {
    EXPECT_EQ(v->ledger, ViewLedger()) << v->id;
  }
  auto resaved = cold.SaveState();
  ASSERT_TRUE(resaved.ok());
  EXPECT_EQ(*resaved, emptied);
}

/// `state` with each fragment's HIT lines in another order: the runs of
/// equal time in reverse, each run's own lines kept in order, so a
/// stable sort by time gives back `state`'s order. Counts the fragments
/// whose order changed in `*moved`.
std::string WithShuffledHits(const std::string& state, int* moved) {
  const std::vector<std::string> lines = Split(state, '\n');
  auto time_of = [](const std::string& hit) {
    return std::stod(Split(hit, ' ')[1]);
  };
  std::string out;
  *moved = 0;
  for (size_t i = 0; i < lines.size();) {
    if (lines[i].rfind("HIT ", 0) != 0) {
      out += lines[i] + (i + 1 < lines.size() ? "\n" : "");
      ++i;
      continue;
    }
    std::vector<std::vector<std::string>> runs;
    for (; i < lines.size() && lines[i].rfind("HIT ", 0) == 0; ++i) {
      if (runs.empty() || time_of(runs.back().front()) != time_of(lines[i])) {
        runs.emplace_back();
      }
      runs.back().push_back(lines[i]);
    }
    if (runs.size() > 1) ++*moved;
    for (auto run = runs.rbegin(); run != runs.rend(); ++run) {
      for (const std::string& hit : *run) out += hit + "\n";
    }
  }
  return out;
}

/// `state` at version 3: the header rewritten and every LEDGER line
/// dropped.
std::string AsVersion3(const std::string& state) {
  const std::vector<std::string> lines = Split(state, '\n');
  std::string out = "DEEPSEA-STATE 3";
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].rfind("LEDGER ", 0) != 0) out += "\n" + lines[i];
  }
  return out;
}

TEST_F(EngineStateTest, ShuffledHitLinesLoadAsTheirSortedTwin) {
  // SaveState writes each fragment's hits in time order; a blob that
  // lists them in another order (hand-edited, or saved by an older
  // build) loads to the same statistics and saves sorted. The state
  // format stays 4, and version 3 blobs load the same way.
  EngineOptions opts;
  opts.benefit_cost_threshold = 0.05;
  SourceBlob source;
  ASSERT_NO_FATAL_FAILURE(SaveSingleTenantBlob(DataOptions(), opts, &source));
  ASSERT_EQ(source.state.rfind("DEEPSEA-STATE 4\n", 0), 0u);
  int moved = 0;
  const std::string shuffled = WithShuffledHits(source.state, &moved);
  ASSERT_GT(moved, 0) << "no fragment has hits at two times";
  const DecayFunction dec(opts.decay);
  for (const bool v3 : {false, true}) {
    const std::string sorted_blob = v3 ? AsVersion3(source.state) : source.state;
    const std::string shuffled_blob = v3 ? AsVersion3(shuffled) : shuffled;
    ASSERT_NE(sorted_blob, shuffled_blob);
    Catalog catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(DataOptions(), &catalog).ok());
    DeepSeaEngine sorted(&catalog, opts);
    DeepSeaEngine unsorted(&catalog, opts);
    ASSERT_TRUE(sorted.LoadState(sorted_blob).ok());
    ASSERT_TRUE(unsorted.LoadState(shuffled_blob).ok());
    EXPECT_TRUE(HitListsInTimeOrder(unsorted.pool())) << "v3=" << v3;
    EXPECT_TRUE(PartMassMatchesRebuild(unsorted.pool())) << "v3=" << v3;
    const auto a = sorted.views().AllViews();
    const auto b = unsorted.views().AllViews();
    ASSERT_EQ(a.size(), b.size());
    for (size_t v = 0; v < a.size(); ++v) {
      ASSERT_EQ(a[v]->id, b[v]->id);
      for (const auto& [attr, part] : a[v]->partitions) {
        const PartitionState& twin = b[v]->partitions.at(attr);
        ASSERT_EQ(part.fragments().size(), twin.fragments().size());
        for (const double t_now : {static_cast<double>(sorted.now()),
                                   sorted.now() + 3.5, sorted.now() + 600.0}) {
          for (size_t i = 0; i < part.fragments().size(); ++i) {
            EXPECT_EQ(part.fragments()[i].DecayedHits(t_now, dec),
                      twin.fragments()[i].DecayedHits(t_now, dec))
                << a[v]->id << "/" << attr << " fragment " << i;
          }
          const auto fit = MleFragmentModel::Adjust(part, t_now, dec);
          const auto twin_fit = MleFragmentModel::Adjust(twin, t_now, dec);
          EXPECT_EQ(fit.raw, twin_fit.raw) << a[v]->id << "/" << attr;
          EXPECT_EQ(fit.total, twin_fit.total) << a[v]->id << "/" << attr;
          EXPECT_EQ(fit.fit.valid, twin_fit.fit.valid);
          EXPECT_EQ(fit.fit.mean, twin_fit.fit.mean);
          EXPECT_EQ(fit.fit.stddev, twin_fit.fit.stddev);
        }
      }
    }
    // Both save as version 4 with the hits in time order.
    auto resaved = unsorted.SaveState();
    auto twin_resaved = sorted.SaveState();
    ASSERT_TRUE(resaved.ok() && twin_resaved.ok());
    EXPECT_EQ(*resaved, *twin_resaved) << "v3=" << v3;
    if (!v3) {
      EXPECT_EQ(*resaved, source.state);
    }
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
