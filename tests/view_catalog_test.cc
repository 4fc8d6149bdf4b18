#include "core/view_catalog.h"

#include <gtest/gtest.h>

namespace deepsea {
namespace {

PlanSignature SigNamed(const std::string& relation) {
  PlanSignature sig;
  sig.relations = {relation};
  return sig;
}

TEST(ViewCatalogTest, TrackAssignsStableIds) {
  ViewCatalog views;
  ViewInfo* a = views.Track(Scan("a"), SigNamed("a"));
  ViewInfo* b = views.Track(Scan("b"), SigNamed("b"));
  EXPECT_EQ(a->id, "v1");
  EXPECT_EQ(b->id, "v2");
  EXPECT_EQ(views.size(), 2u);
}

TEST(ViewCatalogTest, TrackDedupesBySignature) {
  ViewCatalog views;
  ViewInfo* first = views.Track(Scan("a"), SigNamed("a"));
  ViewInfo* second = views.Track(Scan("a"), SigNamed("a"));
  EXPECT_EQ(first, second);
  EXPECT_EQ(views.size(), 1u);
}

TEST(ViewCatalogTest, LookupBySignatureAndId) {
  ViewCatalog views;
  ViewInfo* a = views.Track(Scan("a"), SigNamed("a"));
  EXPECT_EQ(views.FindBySignature(SigNamed("a").ToString()), a);
  EXPECT_EQ(views.FindBySignature(SigNamed("zzz").ToString()), nullptr);
  EXPECT_EQ(views.Get("v1"), a);
  EXPECT_EQ(views.Get("v999"), nullptr);
}

TEST(ViewCatalogTest, PoolBytesSumsAcrossViews) {
  ViewCatalog views;
  ViewInfo* a = views.Track(Scan("a"), SigNamed("a"));
  a->stats.size_bytes = 100.0;
  a->whole_materialized = true;
  ViewInfo* b = views.Track(Scan("b"), SigNamed("b"));
  PartitionState* part = b->EnsurePartition("b.x", Interval(0, 10));
  FragmentStats* f1 = part->Track(Interval(0, 5), 40.0);
  f1->materialized = true;
  part->Track(Interval(5, 10), 60.0);  // tracked but not materialized
  // PoolBytes sums the pool-content index (the pool primitives refresh
  // it after every mutation; direct mutation must too).
  EXPECT_DOUBLE_EQ(views.PoolBytes(), 0.0);
  EXPECT_TRUE(views.PoolViews().empty());
  views.RefreshPoolContent(b);
  views.RefreshPoolContent(a);
  EXPECT_DOUBLE_EQ(views.PoolBytes(), 140.0);
  EXPECT_DOUBLE_EQ(views.PoolBytesExact(), 140.0);
}

TEST(ViewCatalogTest, PoolViewsFollowMembershipInTrackOrder) {
  ViewCatalog views;
  ViewInfo* a = views.Track(Scan("a"), SigNamed("a"));
  ViewInfo* b = views.Track(Scan("b"), SigNamed("b"));
  ViewInfo* c = views.Track(Scan("c"), SigNamed("c"));
  PartitionState* part = b->EnsurePartition("b.x", Interval(0, 10));
  FragmentStats* f = part->Track(Interval(0, 5), 40.0);

  // Refreshing a view without content leaves it out of the index.
  views.RefreshPoolContent(b);
  EXPECT_TRUE(views.PoolViews().empty());

  // Members enter in track order whatever the refresh order.
  c->whole_materialized = true;
  c->stats.size_bytes = 7.0;
  views.RefreshPoolContent(c);
  f->materialized = true;
  views.RefreshPoolContent(b);
  a->whole_materialized = true;
  views.RefreshPoolContent(a);
  EXPECT_EQ(views.PoolViews(), (std::vector<ViewInfo*>{a, b, c}));
  EXPECT_EQ(views.PoolBytes(), views.PoolBytesExact());

  // Losing the last piece drops the view; its bytes leave the sum.
  f->materialized = false;
  views.RefreshPoolContent(b);
  EXPECT_EQ(views.PoolViews(), (std::vector<ViewInfo*>{a, c}));
  EXPECT_EQ(views.PoolBytes(), views.PoolBytesExact());
  EXPECT_DOUBLE_EQ(views.PoolBytes(), 7.0);
}

TEST(PartitionStateTest, TrackIsIdempotent) {
  PartitionState part;
  part.attr = "t.a";
  part.domain = Interval(0, 100);
  FragmentStats* first = part.Track(Interval(0, 50), 10.0);
  first->RecordHit(1.0);
  FragmentStats* second = part.Track(Interval(0, 50), 99.0);
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->hits().size(), 1u);
  EXPECT_DOUBLE_EQ(second->size_bytes, 10.0);  // original estimate kept
  EXPECT_EQ(part.fragments.size(), 1u);
}

TEST(PartitionStateTest, FindDistinguishesOpenness) {
  PartitionState part;
  part.Track(Interval::ClosedOpen(0, 50), 1.0);
  EXPECT_NE(part.Find(Interval::ClosedOpen(0, 50)), nullptr);
  EXPECT_EQ(part.Find(Interval(0, 50)), nullptr);  // different bounds
}

TEST(PartitionStateTest, MaterializedViewsAndBytes) {
  PartitionState part;
  part.Track(Interval(0, 5), 10.0);
  part.Track(Interval(5, 9), 20.0);
  EXPECT_FALSE(part.AnyMaterialized());
  EXPECT_TRUE(part.MaterializedIntervals().empty());
  // NOTE: Track() may reallocate the fragment vector, so pointers from
  // earlier Track() calls must be re-resolved with Find().
  part.Find(Interval(0, 5))->materialized = true;
  part.Find(Interval(5, 9))->materialized = true;
  EXPECT_TRUE(part.AnyMaterialized());
  EXPECT_EQ(part.MaterializedIntervals().size(), 2u);
  EXPECT_DOUBLE_EQ(part.MaterializedBytes(), 30.0);
  EXPECT_EQ(part.TrackedIntervals().size(), 2u);
}

TEST(ViewInfoTest, InPoolViaWholeOrFragment) {
  ViewInfo view;
  EXPECT_FALSE(view.InPool());
  view.whole_materialized = true;
  EXPECT_TRUE(view.InPool());
  view.whole_materialized = false;
  PartitionState* part = view.EnsurePartition("t.a", Interval(0, 1));
  EXPECT_FALSE(view.InPool());
  part->Track(Interval(0, 1), 5.0)->materialized = true;
  EXPECT_TRUE(view.InPool());
}

TEST(ViewInfoTest, EnsurePartitionIdempotent) {
  ViewInfo view;
  PartitionState* a = view.EnsurePartition("t.a", Interval(0, 1));
  PartitionState* b = view.EnsurePartition("t.a", Interval(5, 9));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->domain, Interval(0, 1));  // first domain wins
  EXPECT_EQ(view.partitions.size(), 1u);
  view.EnsurePartition("t.b", Interval(0, 1));
  EXPECT_EQ(view.partitions.size(), 2u);
}

TEST(ViewInfoTest, GetPartitionConstAndMutable) {
  ViewInfo view;
  view.EnsurePartition("t.a", Interval(0, 1));
  EXPECT_NE(view.GetPartition("t.a"), nullptr);
  EXPECT_EQ(view.GetPartition("t.z"), nullptr);
  const ViewInfo& cview = view;
  EXPECT_NE(cview.GetPartition("t.a"), nullptr);
}

}  // namespace
}  // namespace deepsea
