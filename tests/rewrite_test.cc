#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <set>

#include "common/rng.h"
#include "core/engine.h"
#include "core/view_catalog.h"
#include "rewrite/filter_tree.h"
#include "rewrite/matcher.h"
#include "sim/cost_model.h"
#include "workload/bigbench.h"
#include "workload/sdss.h"

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
    return TrackView(JoinPlan(), materialize);
  }

  // Registers `plan`, a plan over the join, as a tracked view with a
  // partition on fact.k, materialized or tracked only.
  ViewInfo* TrackView(const PlanPtr& plan, bool materialize) {
    auto sig = ComputeSignature(plan, catalog_);
    EXPECT_TRUE(sig.ok());
    ViewInfo* view = views_.Track(plan, *sig);
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

// Which shapes the rewriting oracle below has checked.
struct OracleCounts {
  int checked = 0;
  int executable = 0;
  int tracked_only = 0;
  int fragment_reads = 0;
  int whole_view_reads = 0;
  int uncompensated = 0;
  int compensated = 0;
  int residual_or_equality = 0;
  int at_root = 0;
  int in_middle = 0;
  int under_join = 0;
};

enum class Position { kAbsent, kRoot, kMiddle, kUnderJoin };

// Where `target` sits in the tree rooted at `node`: the root, inside a
// join input, or elsewhere below the root.
Position PositionOf(const PlanPtr& node, const PlanNode* target,
                    bool is_root = true, bool under_join = false) {
  if (node.get() == target) {
    return is_root ? Position::kRoot
                   : under_join ? Position::kUnderJoin : Position::kMiddle;
  }
  for (const PlanPtr& child : node->children()) {
    const Position p =
        PositionOf(child, target, false,
                   under_join || node->kind() == PlanKind::kJoin);
    if (p != Position::kAbsent) return p;
  }
  return Position::kAbsent;
}

// The oracle: every rewriting of `query` is priced exactly as the
// estimator prices the plan BuildPlan builds for it, bit for bit.
void CheckAgainstBuiltPlans(ViewMatcher* matcher,
                            const PlanCostEstimator& estimator,
                            const Catalog& catalog, const PlanPtr& query,
                            OracleCounts* counts) {
  SignatureTable signatures(&catalog);
  auto rewritings = matcher->ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  for (const Rewriting& rw : *rewritings) {
    auto built = estimator.Estimate(rw.BuildPlan(query));
    ASSERT_TRUE(built.ok()) << rw.ToString();
    EXPECT_EQ(rw.est_seconds, built->seconds) << rw.ToString();
    EXPECT_EQ(rw.map_tasks, built->map_tasks) << rw.ToString();
    ++counts->checked;
    ++(rw.executable ? counts->executable : counts->tracked_only);
    ++(rw.fragments.empty() ? counts->whole_view_reads : counts->fragment_reads);
    const RangeExtraction comp =
        ViewMatcher::CompensationOf(rw.view->signature, *rw.replaced_sig);
    const bool residual_or_equality =
        !comp.residuals.empty() || !comp.column_equalities.empty();
    ++(comp.ranges.empty() && !residual_or_equality ? counts->uncompensated
                                                    : counts->compensated);
    if (residual_or_equality) ++counts->residual_or_equality;
    switch (PositionOf(query, rw.replaced)) {
      case Position::kRoot:
        ++counts->at_root;
        break;
      case Position::kMiddle:
        ++counts->in_middle;
        break;
      case Position::kUnderJoin:
        ++counts->under_join;
        break;
      case Position::kAbsent:
        ADD_FAILURE() << "replaced node not in the query: " << rw.ToString();
        break;
    }
  }
}

// Every shape occurred, or the check proves nothing about it.
void ExpectEveryShape(const OracleCounts& c, bool residual_or_equality) {
  EXPECT_GT(c.executable, 0);
  EXPECT_GT(c.tracked_only, 0);
  EXPECT_GT(c.fragment_reads, 0);
  EXPECT_GT(c.whole_view_reads, 0);
  EXPECT_GT(c.uncompensated, 0);
  EXPECT_GT(c.compensated, 0);
  if (residual_or_equality) {
    EXPECT_GT(c.residual_or_equality, 0);
  }
  EXPECT_GT(c.at_root, 0);
  EXPECT_GT(c.in_middle, 0);
  EXPECT_GT(c.under_join, 0);
}

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

// The compensation has one definition: the predicate BuildCompensation
// renders extracts back to CompensationOf — the same ranges in the same
// (query signature) order with equal bounds and flags, the same
// residuals and the same equalities. Seeded random signature pairs draw
// infinite and finite bounds, open and closed ends, ranges the view
// enforces identically, residuals the view has or lacks, and several
// equivalence classes the view enforces in part.
TEST(CompensationTest, RenderedCompensationExtractsToCompensationOf) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> points = {-inf, -7.5, -0.0, 0.0, 3.0, 12.25, inf};
  const std::vector<std::string> columns = {"t.a", "t.b", "t.c", "t.d"};
  const std::vector<ExprPtr> residuals = {
      Cmp(CompareOp::kNe, Col("t.a"), LitD(2)),
      Cmp(CompareOp::kEq, Col("t.s"), LitS("x")),
      Cmp(CompareOp::kLt, Arith(ArithOp::kAdd, Col("t.b"), Col("t.c")),
          LitD(9))};
  const std::vector<std::vector<std::string>> class_columns = {
      {"t.e", "t.f", "t.g"}, {"t.h", "t.i"}, {"t.j", "t.k", "t.l", "t.m"}};
  Rng rng(2405);
  auto coin = [&](double p) { return rng.NextDouble() < p; };
  int identical = 0;
  int unbounded = 0;
  int half_bounded = 0;
  int open_ends = 0;
  int closed_ends = 0;
  int kept_residuals = 0;
  int equalities = 0;
  int multi_class = 0;
  for (int i = 0; i < 20000; ++i) {
    PlanSignature query;
    PlanSignature view;
    for (const std::string& col : columns) {
      if (!coin(0.7)) continue;
      ColumnRange q;
      q.column = col;
      double lo = points[rng.UniformInt(0, points.size() - 1)];
      double hi = points[rng.UniformInt(0, points.size() - 1)];
      if (lo > hi) std::swap(lo, hi);
      q.lo = lo;
      q.hi = hi;
      q.lo_inclusive = coin(0.5);
      q.hi_inclusive = coin(0.5);
      query.ranges[col] = q;
      if (coin(0.3)) {
        view.ranges[col] = q;
      } else if (coin(0.4)) {
        ColumnRange v = q;
        v.lo = -inf;
        view.ranges[col] = v;
      }
    }
    for (const ExprPtr& res : residuals) {
      if (!coin(0.5)) continue;
      query.residuals.insert(res->ToString());
      query.residual_exprs.push_back(res);
      if (coin(0.5)) view.residuals.insert(res->ToString());
    }
    for (const auto& cls : class_columns) {
      std::set<std::string> qcls;
      for (const std::string& col : cls) {
        if (coin(0.7)) qcls.insert(col);
      }
      if (qcls.size() < 2) continue;
      query.equiv_classes.push_back(qcls);
      // The view enforces a random part of the class.
      std::set<std::string> vcls;
      for (const std::string& col : qcls) {
        if (coin(0.5)) vcls.insert(col);
      }
      if (vcls.size() >= 2) view.equiv_classes.push_back(vcls);
    }
    if (query.equiv_classes.size() > 1) ++multi_class;

    const RangeExtraction comp = ViewMatcher::CompensationOf(view, query);
    const RangeExtraction back =
        ExtractRanges(ViewMatcher::BuildCompensation(view, query));
    ASSERT_EQ(back.ranges.size(), comp.ranges.size()) << "pair " << i;
    for (size_t j = 0; j < comp.ranges.size(); ++j) {
      const ColumnRange& a = comp.ranges[j];
      const ColumnRange& b = back.ranges[j];
      EXPECT_EQ(a.column, b.column) << "pair " << i;
      EXPECT_EQ(a.lo, b.lo) << "pair " << i;
      EXPECT_EQ(a.hi, b.hi) << "pair " << i;
      EXPECT_EQ(a.lo_inclusive, b.lo_inclusive) << "pair " << i;
      EXPECT_EQ(a.hi_inclusive, b.hi_inclusive) << "pair " << i;
      // In the query signature's (column) order.
      if (j > 0) {
        EXPECT_LT(comp.ranges[j - 1].column, a.column);
      }
      if (std::isinf(a.lo) != std::isinf(a.hi)) ++half_bounded;
      if (!std::isinf(a.lo)) ++(a.lo_inclusive ? closed_ends : open_ends);
      if (!std::isinf(a.hi)) ++(a.hi_inclusive ? closed_ends : open_ends);
    }
    EXPECT_EQ(back.residuals.size(), comp.residuals.size()) << "pair " << i;
    EXPECT_EQ(back.column_equalities, comp.column_equalities) << "pair " << i;
    kept_residuals += static_cast<int>(comp.residuals.size());
    equalities += static_cast<int>(comp.column_equalities.size());
    for (const auto& [col, q] : query.ranges) {
      const auto vit = view.ranges.find(col);
      if (vit != view.ranges.end() && vit->second.lo == q.lo &&
          vit->second.hi == q.hi && vit->second.lo_inclusive == q.lo_inclusive &&
          vit->second.hi_inclusive == q.hi_inclusive) {
        ++identical;
      } else if (std::isinf(q.lo) && std::isinf(q.hi)) {
        ++unbounded;
      }
    }
  }
  // Every kind of input occurs, or the draw proves nothing.
  EXPECT_GT(identical, 1000) << identical;
  EXPECT_GT(unbounded, 1000) << unbounded;
  EXPECT_GT(half_bounded, 1000) << half_bounded;
  EXPECT_GT(open_ends, 1000) << open_ends;
  EXPECT_GT(closed_ends, 1000) << closed_ends;
  EXPECT_GT(kept_residuals, 1000) << kept_residuals;
  EXPECT_GT(equalities, 1000) << equalities;
  EXPECT_GT(multi_class, 1000) << multi_class;
}

TEST_F(RewriteTest, MatcherFindsExecutableRewriting) {
  TrackJoinView(/*materialize=*/true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &estimator);
  const PlanPtr query = Aggregate(
      Select(JoinPlan(), RangePredicate("fact.k", 100, 200)), {"dim.g"},
      {{AggFunc::kCount, "", "n"}});
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  ASSERT_FALSE(rewritings->empty());
  const Rewriting& best = (*rewritings)[0];
  EXPECT_TRUE(best.executable);
  ASSERT_NE(best.partition, nullptr);
  EXPECT_EQ(best.partition->attr, "fact.k");
  ASSERT_EQ(best.fragments.size(), 1u);  // [0,250) covers [100,200]
  EXPECT_EQ(best.fragments[0], Interval::ClosedOpen(0, 250));
  EXPECT_EQ(best.query_range, Interval(100, 200));
}

TEST_F(RewriteTest, MatcherSpansMultipleFragments) {
  TrackJoinView(true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &estimator);
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
  ViewMatcher matcher(&views_, &index_, &estimator);
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
  ViewMatcher matcher(&views_, &index_, &estimator);
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
  ViewMatcher matcher(&views_, &index_, &estimator);
  // A self-join of fact has different relation classes.
  const PlanPtr query = Join(Scan("fact"), Scan("fact"),
                             Cmp(CompareOp::kEq, Col("fact.k"), Col("fact.k")));
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  EXPECT_TRUE(rewritings->empty());
}


// The oracle on the fixture's shapes, over a materialized view and a
// tracked-only one. On the default cluster a compensation's
// selectivity reaches the estimate's seconds only through the shuffle
// of a job above it, far below their last bit; on a shuffle-bound
// cluster the bits carry it, so there multi-range compensations under
// an aggregate show the order of their factors.
TEST_F(RewriteTest, PricedRewritingsEqualEstimatesOfBuiltPlans) {
  auto fact = *catalog_.Get("fact");
  AttributeHistogram v_hist(Interval(0, 1000), 100);
  v_hist.AddRange(Interval(0, 300), 7000000);
  v_hist.AddRange(Interval(300, 1000), 3000000);
  fact->SetHistogram("fact.v", v_hist);
  auto dim = *catalog_.Get("dim");
  AttributeHistogram g_hist(Interval(0, 90), 9);
  g_hist.AddRange(Interval(0, 20), 700);
  g_hist.AddRange(Interval(20, 90), 300);
  dim->SetHistogram("dim.g", g_hist);
  auto ext = std::make_shared<Table>(
      "ext", Schema({{"ext.k", DataType::kInt64}, {"ext.w", DataType::kDouble}}));
  ext->set_logical_row_count(50000);
  ext->set_avg_row_bytes(40);
  catalog_.Put(ext);

  const AggregateSpec count{AggFunc::kCount, "", "n"};
  const PlanPtr narrow =
      Project(JoinPlan(), {Col("fact.k"), Col("dim.g")}, {"fact.k", "dim.g"});
  std::vector<PlanPtr> queries = {
      JoinPlan(),
      Select(JoinPlan(), RangePredicate("fact.k", 100, 600)),
      Aggregate(Select(JoinPlan(), RangePredicate("fact.k", 100, 200)),
                {"dim.g"}, {count}),
      // A residual and an equality the view lacks.
      Select(JoinPlan(), AndAll({RangePredicate("fact.k", 300, 900),
                                 Cmp(CompareOp::kNe, Col("dim.g"), LitD(4)),
                                 Cmp(CompareOp::kEq, Col("fact.v"),
                                     Col("dim.g"))})),
      // The matched subplan as a join input.
      Join(Select(JoinPlan(), RangePredicate("fact.k", 10, 700)), Scan("ext"),
           Cmp(CompareOp::kEq, Col("fact.k"), Col("ext.k"))),
      // A projection over a read of the wider view table, under an
      // aggregate whose shuffle prices the projected bytes.
      Aggregate(Project(Select(narrow, RangePredicate("fact.k", 100, 200)),
                        {Col("dim.g")}, {"dim.g"}),
                {"dim.g"}, {count}),
  };
  for (int x = 0; x < 40; ++x) {
    const ExprPtr three_ranges =
        AndAll({RangePredicate("fact.k", 120 + 7 * x, 480 - 3 * x),
                Cmp(CompareOp::kGt, Col("fact.v"), LitD(37.5 + 1.1 * x)),
                Cmp(CompareOp::kLt, Col("dim.g"), LitD(13 + 0.2 * x))});
    queries.push_back(
        Aggregate(Select(JoinPlan(), three_ranges), {"dim.g"}, {count}));
  }
  // A materialized view and a tracked-only one whose range is wider
  // than most queries' (an identical range is no compensation).
  TrackJoinView(/*materialize=*/true);
  TrackView(Select(JoinPlan(), RangePredicate("fact.k", 0, 900)),
            /*materialize=*/false);
  ClusterConfig shuffle_bound;
  shuffle_bound.task_startup_seconds = 0.0;
  shuffle_bound.file_open_seconds = 0.0;
  shuffle_bound.job_startup_seconds = 0.0;
  shuffle_bound.read_bytes_per_second = 1e15;
  shuffle_bound.worker_read_bytes_per_second = 1e15;
  shuffle_bound.temp_write_bytes_per_second = 1e15;
  shuffle_bound.shuffle_bytes_per_second = 1e3;
  ClusterModel shuffle_cluster(shuffle_bound);
  OracleCounts counts;
  for (const ClusterModel* cluster : {&cluster_, &shuffle_cluster}) {
    PlanCostEstimator estimator(cluster, &catalog_);
    ViewMatcher matcher(&views_, &index_, &estimator);
    for (const PlanPtr& q : queries) {
      CheckAgainstBuiltPlans(&matcher, estimator, catalog_, q, &counts);
    }
  }
  EXPECT_GE(counts.checked, 100) << counts.checked;
  ExpectEveryShape(counts, /*residual_or_equality=*/true);
}

// A projection above the view read divides by the view table's column
// count, not by the replaced subplan's: the fold counts columns as
// OutputSchema does on the built plan.
TEST_F(RewriteTest, ProjectOverWiderViewReadCountsViewColumns) {
  TrackJoinView(/*materialize=*/true);
  PlanCostEstimator estimator(&cluster_, &catalog_);
  ViewMatcher matcher(&views_, &index_, &estimator);
  const PlanPtr narrow =
      Project(JoinPlan(), {Col("fact.k"), Col("dim.g")}, {"fact.k", "dim.g"});
  const PlanPtr selected = Select(narrow, RangePredicate("fact.k", 100, 200));
  const PlanPtr query =
      Aggregate(Project(selected, {Col("dim.g")}, {"dim.g"}), {"dim.g"},
                {{AggFunc::kCount, "", "n"}});
  SignatureTable signatures(&catalog_);
  auto rewritings = matcher.ComputeRewritings(query, &signatures);
  ASSERT_TRUE(rewritings.ok());
  const Rewriting* rw = nullptr;
  for (const Rewriting& r : *rewritings) {
    if (r.replaced == selected.get()) rw = &r;
  }
  ASSERT_NE(rw, nullptr);
  const PlanPtr built = rw->BuildPlan(query);
  const PlanPtr read = built->child(0)->child(0);  // the compensated read
  ASSERT_EQ(read->kind(), PlanKind::kSelect);
  ASSERT_EQ(read->child(0)->kind(), PlanKind::kViewRef);
  auto read_est = estimator.EstimateNode(read);
  ASSERT_TRUE(read_est.ok());
  EXPECT_EQ(read_est->out_columns, 4u);
  EXPECT_LT(selected->OutputSchema(catalog_)->num_columns(),
            read_est->out_columns);
  std::vector<PlanPtr> nodes;
  CollectSubplans(built, &nodes);
  for (const PlanPtr& node : nodes) {
    auto est = estimator.EstimateNode(node);
    auto schema = node->OutputSchema(catalog_);
    ASSERT_TRUE(est.ok());
    ASSERT_TRUE(schema.ok());
    EXPECT_EQ(est->out_columns, schema->num_columns()) << node->ToString();
  }
  auto built_est = estimator.Estimate(built);
  ASSERT_TRUE(built_est.ok());
  EXPECT_EQ(rw->est_seconds, built_est->seconds);
  EXPECT_EQ(rw->map_tasks, built_est->map_tasks);
}

// The oracle on the states a seeded bounded-pool stream leaves: after
// every 20 queries of a §10.1-shaped stream over all ten templates, the
// rewritings of those 20 queries are checked against their built plans.
TEST(RewritingOracleStreamTest, PricedRewritingsEqualBuiltPlansAlongAStream) {
  constexpr uint64_t kSeed = 2404;
  constexpr int kQueries = 400;
  SdssTraceModel sdss(SdssTraceModel::Config{}, kSeed);
  BigBenchDataset::Options data;
  data.total_bytes = 100e9;
  data.sample_rows_per_fact = 256;
  data.sample_rows_per_dim = 64;
  data.seed = 7;
  data.item_sk_distribution = sdss.AccessDensity(420);
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(data, &catalog).ok());
  EngineOptions options;
  options.benefit_cost_threshold = 0.02;
  options.enforce_block_lower_bound = true;
  options.max_fragment_fraction = 0.1;
  options.pool_limit_bytes = 10e9;  // 10% of the base data
  DeepSeaEngine engine(&catalog, options);

  const auto names = BigBenchTemplates::Names();
  ASSERT_EQ(names.size(), 10u);
  const auto trace = sdss.GenerateTrace(kQueries);
  const Interval ra(-20.0, 400.0);
  const Interval item_sk(0.0, 400000.0);
  Rng rng(kSeed + 1);
  OracleCounts counts;
  std::set<std::string> templates;
  std::vector<PlanPtr> recent;
  for (int i = 0; i < kQueries; ++i) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    templates.insert(name);
    const Interval range = SdssTraceModel::MapRange(trace[i], ra, item_sk);
    auto plan = BigBenchTemplates::Build(name, range.lo, range.hi);
    ASSERT_TRUE(plan.ok());
    ASSERT_TRUE(engine.ProcessQuery(*plan).ok());
    recent.push_back(*plan);
    if (recent.size() < 20) continue;
    PoolManager* pool = engine.mutable_pool();
    CommitGuard commit = pool->BeginCommit();
    ViewMatcher matcher(pool->stat(commit), pool->rewrite_index(commit),
                        &engine.estimator());
    for (const PlanPtr& q : recent) {
      CheckAgainstBuiltPlans(&matcher, engine.estimator(), *engine.catalog(),
                             q, &counts);
    }
    recent.clear();
  }
  EXPECT_EQ(templates.size(), names.size());
  EXPECT_GE(counts.checked, 1000) << counts.checked;
  // The templates carry no residual conjunct, and a view over a query's
  // joins enforces all of their equalities: the fixture test above
  // covers those compensations.
  ExpectEveryShape(counts, /*residual_or_equality=*/false);
}

}  // namespace
}  // namespace deepsea
