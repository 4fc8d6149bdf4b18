#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/view_catalog.h"
#include "rewrite/filter_tree.h"
#include "rewrite/matcher.h"
#include "sim/cost_model.h"

namespace deepsea {
namespace {

class RewriteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fact = std::make_shared<Table>(
        "fact", Schema({{"fact.k", DataType::kInt64},
                        {"fact.v", DataType::kDouble}}));
    fact->set_logical_row_count(10000000);
    fact->set_avg_row_bytes(100);
    AttributeHistogram hist(Interval(0, 1000), 100);
    hist.AddRange(Interval(0, 1000), 10000000);
    fact->SetHistogram("fact.k", hist);
    catalog_.Put(fact);
    auto dim = std::make_shared<Table>(
        "dim", Schema({{"dim.k", DataType::kInt64},
                       {"dim.g", DataType::kInt64}}));
    dim->set_logical_row_count(1000);
    dim->set_avg_row_bytes(50);
    catalog_.Put(dim);
  }

  PlanPtr JoinPlan() {
    return Join(Scan("fact"), Scan("dim"),
                Cmp(CompareOp::kEq, Col("fact.k"), Col("dim.k")));
  }

  // Registers the join as a tracked view with a materialized partition.
  ViewInfo* TrackJoinView(bool materialize) {
    auto sig = ComputeSignature(JoinPlan(), catalog_);
    EXPECT_TRUE(sig.ok());
    ViewInfo* view = views_.Track(JoinPlan(), *sig);
    index_.Insert(view->signature, view->id);
    // Register the view's table for the estimator.
    auto schema = view->plan->OutputSchema(catalog_);
    auto table = std::make_shared<Table>(view->id, *schema);
    table->set_logical_row_count(10000000);
    table->set_avg_row_bytes(150);
    AttributeHistogram hist(Interval(0, 1000), 100);
    hist.AddRange(Interval(0, 1000), 10000000);
    table->SetHistogram("fact.k", hist);
    catalog_.Put(table);
    view->stats.size_bytes = 10000000.0 * 150;
    view->stats.creation_cost = 500;
    PartitionState* part = view->EnsurePartition("fact.k", Interval(0, 1000));
    for (const Interval& iv :
         {Interval::ClosedOpen(0, 250), Interval::ClosedOpen(250, 500),
          Interval::ClosedOpen(500, 750), Interval(750, 1000)}) {
      FragmentStats* f = part->Track(iv, view->stats.size_bytes / 4).first;
      f->materialized = materialize;
    }
    return view;
  }

  Catalog catalog_;
  ViewCatalog views_;
  FilterTree index_;
  ClusterModel cluster_;
};

TEST_F(RewriteTest, FilterTreeExactLookup) {
  auto sig = ComputeSignature(JoinPlan(), catalog_);
  ASSERT_TRUE(sig.ok());
  FilterTree tree;
  tree.Insert(*sig, "v1");
  EXPECT_EQ(tree.Lookup(*sig), (std::vector<std::string>{"v1"}));
  EXPECT_EQ(tree.size(), 1u);
  tree.Insert(*sig, "v1");
  EXPECT_EQ(tree.size(), 1u);
  tree.Remove(*sig, "v1");
  EXPECT_TRUE(tree.Lookup(*sig).empty());
  EXPECT_EQ(tree.size(), 0u);
}

TEST_F(RewriteTest, FilterTreePrunesByRelations) {
  auto join_sig = ComputeSignature(JoinPlan(), catalog_);
  auto scan_sig = ComputeSignature(Scan("fact"), catalog_);
  ASSERT_TRUE(join_sig.ok());
  ASSERT_TRUE(scan_sig.ok());
  FilterTree tree;
  tree.Insert(*join_sig, "vjoin");
  EXPECT_TRUE(tree.Lookup(*scan_sig).empty());
}

TEST_F(RewriteTest, FilterTreeSeparatesAggregates) {
  auto join_sig = ComputeSignature(JoinPlan(), catalog_);
  auto agg_sig = ComputeSignature(
      Aggregate(JoinPlan(), {"dim.g"}, {{AggFunc::kCount, "", "n"}}), catalog_);
  // The same group-by with another aggregate, and the same aggregate
  // with another group-by: each is a bucket of its own.
  auto sum_sig = ComputeSignature(
      Aggregate(JoinPlan(), {"dim.g"}, {{AggFunc::kSum, "fact.v", "n"}}),
      catalog_);
  auto by_k_sig = ComputeSignature(
      Aggregate(JoinPlan(), {"fact.k"}, {{AggFunc::kCount, "", "n"}}),
      catalog_);
  ASSERT_TRUE(agg_sig.ok());
  ASSERT_TRUE(sum_sig.ok());
  ASSERT_TRUE(by_k_sig.ok());
  FilterTree tree;
  tree.Insert(*join_sig, "vjoin");
  tree.Insert(*agg_sig, "vagg");
  tree.Insert(*sum_sig, "vsum");
  tree.Insert(*by_k_sig, "vbyk");
  EXPECT_EQ(tree.Lookup(*join_sig), (std::vector<std::string>{"vjoin"}));
  EXPECT_EQ(tree.Lookup(*agg_sig), (std::vector<std::string>{"vagg"}));
  EXPECT_EQ(tree.Lookup(*sum_sig), (std::vector<std::string>{"vsum"}));
  EXPECT_EQ(tree.Lookup(*by_k_sig), (std::vector<std::string>{"vbyk"}));
  EXPECT_EQ(tree.size(), 4u);
}

// Level 3 against its oracle: the unfiltered (relation, aggregation)
// bucket plus SignatureSubsumes. Signatures are drawn over three columns
// with endpoints that tie, sit at -0.0/+0.0, are infinite, open or
// closed, and columns left unconstrained; a few views carry a residual
// the queries lack, so SignatureSubsumes also rejects on condition 4.
// Every seventh view is removed again before the queries run.
TEST(FilterTreeRangeTest, LookupKeepsEverySubsumingViewInIdOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> points = {-inf, -10.0, -0.0, 0.0, 5.0,
                                      std::nextafter(5.0, inf), 10.0, inf};
  const std::vector<std::string> columns = {"fact.a", "fact.b", "fact.c"};
  Rng rng(2201);
  auto random_signature = [&](bool aggregate, double constrain_p) {
    PlanSignature sig;
    sig.relations = {"fact"};
    sig.output_columns = {columns.begin(), columns.end()};
    if (aggregate) {
      sig.has_aggregate = true;
      sig.group_by = {"fact.a"};
      sig.agg_specs = {"count(*) AS n"};
    }
    for (const std::string& col : columns) {
      if (rng.NextDouble() >= constrain_p) continue;
      ColumnRange r;
      r.column = col;
      double lo = points[rng.UniformInt(0, points.size() - 1)];
      double hi = points[rng.UniformInt(0, points.size() - 1)];
      if (lo > hi) std::swap(lo, hi);
      r.lo = lo;
      r.hi = hi;
      r.lo_inclusive = rng.NextDouble() < 0.5;
      r.hi_inclusive = rng.NextDouble() < 0.5;
      sig.ranges[col] = r;
    }
    return sig;
  };
  // Each view in its bucket, under an id whose string order differs
  // from its insertion order.
  std::vector<std::pair<std::string, PlanSignature>> views;
  FilterTree tree;
  for (int i = 0; i < 300; ++i) {
    PlanSignature sig = random_signature(/*aggregate=*/i % 5 == 0, 0.6);
    if (rng.NextDouble() < 0.1) sig.residuals = {"f(fact.a)"};
    std::string id = "v";
    id += std::to_string(rng.UniformInt(1, 100000));
    if (std::any_of(views.begin(), views.end(),
                    [&](const auto& v) { return v.first == id; })) {
      continue;
    }
    tree.Insert(sig, id);
    views.emplace_back(id, std::move(sig));
  }
  EXPECT_EQ(tree.size(), views.size());
  for (size_t i = 0; i < views.size(); i += 6) {
    tree.Remove(views[i].second, views[i].first);
    views.erase(views.begin() + static_cast<std::ptrdiff_t>(i));
  }
  EXPECT_EQ(tree.size(), views.size());
  int accepted = 0;
  int pruned = 0;
  for (int q = 0; q < 400; ++q) {
    const bool aggregate = q % 5 == 0;
    PlanSignature query = random_signature(aggregate, 0.8);
    query.output_columns = {"fact.a"};
    const std::vector<std::string> found = tree.Lookup(query);
    EXPECT_TRUE(std::is_sorted(found.begin(), found.end())) << "query " << q;
    std::set<std::string> bucket;
    std::set<std::string> subsuming;
    for (const auto& [id, sig] : views) {
      if (sig.has_aggregate != aggregate) continue;
      bucket.insert(id);
      if (SignatureSubsumes(sig, query)) subsuming.insert(id);
    }
    const std::set<std::string> found_set(found.begin(), found.end());
    EXPECT_EQ(found_set.size(), found.size()) << "query " << q;
    EXPECT_TRUE(std::includes(bucket.begin(), bucket.end(), found_set.begin(),
                              found_set.end()))
        << "query " << q;
    EXPECT_TRUE(std::includes(found_set.begin(), found_set.end(),
                              subsuming.begin(), subsuming.end()))
        << "query " << q << " dropped a subsuming view";
    accepted += static_cast<int>(subsuming.size());
    pruned += static_cast<int>(bucket.size() - found_set.size());
  }
  // Both outcomes occur, or the draw proves nothing.
  EXPECT_GT(accepted, 1000) << accepted;
  EXPECT_GT(pruned, 10000) << pruned;
}

TEST_F(RewriteTest, CompensationRebuildsQueryRanges) {
  auto vsig = ComputeSignature(JoinPlan(), catalog_);
  auto qsig = ComputeSignature(
      Select(JoinPlan(), RangePredicate("fact.k", 10, 20)), catalog_);
  ASSERT_TRUE(vsig.ok());
  ASSERT_TRUE(qsig.ok());
  const ExprPtr comp = ViewMatcher::BuildCompensation(*vsig, *qsig);
  ASSERT_NE(comp, nullptr);
  const std::string s = comp->ToString();
  EXPECT_NE(s.find("fact.k >= 10"), std::string::npos);
  EXPECT_NE(s.find("fact.k <= 20"), std::string::npos);
}

TEST_F(RewriteTest, NoCompensationForIdenticalSignatures) {
  auto sig = ComputeSignature(Select(JoinPlan(), RangePredicate("fact.k", 1, 2)),
                              catalog_);
  ASSERT_TRUE(sig.ok());
  // Join equalities are enforced by the view itself.
  EXPECT_EQ(ViewMatcher::BuildCompensation(*sig, *sig), nullptr);
}

TEST_F(RewriteTest, MatcherFindsExecutableRewriting) {
  TrackJoinView(/*materialize=*/true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &catalog_, &estimator);
  const PlanPtr query = Aggregate(
      Select(JoinPlan(), RangePredicate("fact.k", 100, 200)), {"dim.g"},
      {{AggFunc::kCount, "", "n"}});
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_FALSE(rewritings->empty());
  const Rewriting& best = (*rewritings)[0];
  EXPECT_TRUE(best.executable);
  EXPECT_EQ(best.partition_attr, "fact.k");
  ASSERT_EQ(best.fragments.size(), 1u);  // [0,250) covers [100,200]
  EXPECT_EQ(best.fragments[0], Interval::ClosedOpen(0, 250));
  EXPECT_TRUE(best.has_query_range);
  EXPECT_EQ(best.query_range, Interval(100, 200));
}

TEST_F(RewriteTest, MatcherSpansMultipleFragments) {
  TrackJoinView(true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &catalog_, &estimator);
  const PlanPtr query =
      Select(JoinPlan(), RangePredicate("fact.k", 100, 600));
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_FALSE(rewritings->empty());
  // Among the rewritings (the bare-join subplan yields a whole-view
  // read; the selection subplan yields a fragment cover), the fragment
  // cover of [100, 600] spans three of the four quarter fragments.
  const Rewriting* frag_rw = nullptr;
  for (const Rewriting& rw : *rewritings) {
    if (!rw.fragments.empty()) frag_rw = &rw;
  }
  ASSERT_NE(frag_rw, nullptr);
  EXPECT_EQ(frag_rw->fragments.size(), 3u);
}

TEST_F(RewriteTest, UnmaterializedViewYieldsTrackedOnlyRewriting) {
  TrackJoinView(/*materialize=*/false);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &catalog_, &estimator);
  const PlanPtr query = Select(JoinPlan(), RangePredicate("fact.k", 100, 200));
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_FALSE(rewritings->empty());
  EXPECT_FALSE((*rewritings)[0].executable);
}

TEST_F(RewriteTest, RewritingCheaperThanBase) {
  TrackJoinView(true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &catalog_, &estimator);
  const PlanPtr query = Select(JoinPlan(), RangePredicate("fact.k", 100, 200));
  auto base = estimator.Estimate(query);
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(rewritings.ok());
  ASSERT_FALSE(rewritings->empty());
  EXPECT_LT((*rewritings)[0].est_seconds, base->seconds);
}

TEST_F(RewriteTest, NoMatchForDifferentJoin) {
  TrackJoinView(true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &catalog_, &estimator);
  // A self-join of fact has different relation classes.
  const PlanPtr query = Join(Scan("fact"), Scan("fact"),
                             Cmp(CompareOp::kEq, Col("fact.k"), Col("fact.k")));
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_TRUE(rewritings->empty());
}

}  // namespace
}  // namespace deepsea
