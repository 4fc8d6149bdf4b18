#include <cmath>
#include "core/candidates.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace deepsea {
namespace {

bool HasInterval(const std::vector<Interval>& list, const Interval& iv) {
  return std::find(list.begin(), list.end(), iv) != list.end();
}

// Paper Example 3: partition {[0,10], (10,20], (20,30]}, query [5,25].
TEST(PartitionCandidatesTest, PaperExampleThree) {
  const std::vector<Interval> existing = {Interval(0, 10),
                                          Interval::OpenClosed(10, 20),
                                          Interval::OpenClosed(20, 30)};
  const auto cands = GeneratePartitionCandidates(existing, Interval(5, 25));
  // Case 4 on [0,10]: [0,5) and [5,10]. Case 2 on (10,20]: nothing.
  // Case 3 on (20,30]: (20,25] and (25,30].
  EXPECT_TRUE(HasInterval(cands, Interval::ClosedOpen(0, 5)));
  EXPECT_TRUE(HasInterval(cands, Interval(5, 10)));
  EXPECT_TRUE(HasInterval(cands, Interval::OpenClosed(20, 25)));
  EXPECT_TRUE(HasInterval(cands, Interval::OpenClosed(25, 30)));
  EXPECT_EQ(cands.size(), 4u);
}

TEST(PartitionCandidatesTest, DisjointProducesNothing) {
  const auto cands =
      GeneratePartitionCandidates({Interval(0, 10)}, Interval(20, 30));
  EXPECT_TRUE(cands.empty());
}

TEST(PartitionCandidatesTest, ContainedFragmentProducesNothing) {
  // Query covers the fragment entirely (case 2).
  const auto cands =
      GeneratePartitionCandidates({Interval(5, 10)}, Interval(0, 20));
  EXPECT_TRUE(cands.empty());
}

TEST(PartitionCandidatesTest, QueryInsideFragmentThreePieces) {
  // Case 5: [l', l), [l, u], (u, u'].
  const auto cands =
      GeneratePartitionCandidates({Interval(0, 100)}, Interval(40, 60));
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_TRUE(HasInterval(cands, Interval::ClosedOpen(0, 40)));
  EXPECT_TRUE(HasInterval(cands, Interval(40, 60)));
  EXPECT_TRUE(HasInterval(cands, Interval::OpenClosed(60, 100)));
}

TEST(PartitionCandidatesTest, SharedLeftEdgeDegeneratesGracefully) {
  // Query [0, 60] inside [0, 100]: the left remainder is empty.
  const auto cands =
      GeneratePartitionCandidates({Interval(0, 100)}, Interval(0, 60));
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_TRUE(HasInterval(cands, Interval(0, 60)));
  EXPECT_TRUE(HasInterval(cands, Interval::OpenClosed(60, 100)));
}

TEST(PartitionCandidatesTest, ExistingIntervalsExcluded) {
  // The middle piece [40,60] already exists -> only remainders new.
  const auto cands = GeneratePartitionCandidates(
      {Interval(0, 100), Interval(40, 60)}, Interval(40, 60));
  EXPECT_FALSE(HasInterval(cands, Interval(40, 60)));
  EXPECT_TRUE(HasInterval(cands, Interval::ClosedOpen(0, 40)));
}

TEST(PartitionCandidatesTest, PiecesCoverSplitFragments) {
  // Every generated piece set, together with case-2 fragments, covers
  // the original fragments (no data loss on split).
  const std::vector<Interval> existing = {Interval(0, 50),
                                          Interval::OpenClosed(50, 100)};
  const Interval query(25, 75);
  const auto cands = GeneratePartitionCandidates(existing, query);
  Fragmentation all(cands);
  EXPECT_TRUE(all.Covers(Interval(0, 100)));
}

TEST(PartitionCandidatesTest, EmptyQueryNothing) {
  EXPECT_TRUE(GeneratePartitionCandidates({Interval(0, 10)}, Interval(5, 3)).empty());
}

TEST(ViewCandidatesTest, JoinAggProjectEnumerated) {
  auto join = Join(Scan("a"), Scan("b"), Cmp(CompareOp::kEq, Col("a.x"), Col("b.x")));
  auto proj = Project(join, {Col("a.x")}, {"a.x"});
  auto agg = Aggregate(Select(proj, RangePredicate("a.x", 0, 1)), {"a.x"},
                       {{AggFunc::kCount, "", "n"}});
  const auto cands = EnumerateViewCandidates(agg);
  ASSERT_EQ(cands.size(), 3u);  // aggregate, project, join; not select/scan
  EXPECT_EQ(cands[0]->kind(), PlanKind::kAggregate);
  EXPECT_EQ(cands[1]->kind(), PlanKind::kProject);
  EXPECT_EQ(cands[2]->kind(), PlanKind::kJoin);
}

TEST(ViewCandidatesTest, SelectionsAndScansExcluded) {
  auto plan = Select(Scan("a"), RangePredicate("a.x", 0, 1));
  EXPECT_TRUE(EnumerateViewCandidates(plan).empty());
}

TEST(ViewCandidatesTest, SubplansOverAViewRefExcluded) {
  // As in a rewritten plan: the join's left input is a view read. The
  // join and the aggregate read it; the base-table projection does not.
  auto right = Project(Join(Scan("b"), Scan("c"),
                            Cmp(CompareOp::kEq, Col("b.y"), Col("c.y"))),
                       {Col("b.x")}, {"b.x"});
  auto join = Join(Select(ViewRef("v1", "a.x", {Interval(0, 1)}),
                          RangePredicate("a.x", 0, 1)),
                   right, Cmp(CompareOp::kEq, Col("a.x"), Col("b.x")));
  auto agg = Aggregate(join, {"a.x"}, {{AggFunc::kCount, "", "n"}});
  const auto cands = EnumerateViewCandidates(agg);
  ASSERT_EQ(cands.size(), 2u);  // pre-order: project, then its join
  EXPECT_EQ(cands[0].get(), right.get());
  EXPECT_EQ(cands[1].get(), right->child(0).get());
}

TEST(SelectionContextsTest, ExtractsRangeAndChild) {
  auto join = Join(Scan("a"), Scan("b"), Cmp(CompareOp::kEq, Col("a.x"), Col("b.x")));
  auto sel = Select(join, RangePredicate("a.x", 10, 20));
  const auto ctxs = ExtractSelectionContexts(sel);
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].column, "a.x");
  EXPECT_EQ(ctxs[0].range, Interval(10, 20));
  EXPECT_EQ(ctxs[0].selected_input.get(), join.get());
}

TEST(SelectionContextsTest, MultipleRangesMultipleContexts) {
  auto plan = Select(Scan("a"), And(RangePredicate("a.x", 0, 1),
                                    RangePredicate("a.y", 5, 6)));
  EXPECT_EQ(ExtractSelectionContexts(plan).size(), 2u);
}

TEST(SelectionContextsTest, UnboundedRangeSkipped) {
  auto plan = Select(Scan("a"), Cmp(CompareOp::kNe, Col("a.x"), LitD(1)));
  EXPECT_TRUE(ExtractSelectionContexts(plan).empty());
}

TEST(SelectionContextsTest, HalfBoundedRangeKept) {
  auto plan = Select(Scan("a"), Cmp(CompareOp::kGe, Col("a.x"), LitD(10)));
  const auto ctxs = ExtractSelectionContexts(plan);
  ASSERT_EQ(ctxs.size(), 1u);
  EXPECT_EQ(ctxs[0].range.lo, 10.0);
  EXPECT_TRUE(std::isinf(ctxs[0].range.hi));
}

}  // namespace
}  // namespace deepsea
