#include "core/view_catalog.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/planning_delta.h"
#include "pool_index.h"

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
  FragmentStats* f1 = part->Track(Interval(0, 5), 40.0).first;
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
  FragmentStats* f = part->Track(Interval(0, 5), 40.0).first;

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
  const auto [first, added] = part.Track(Interval(0, 50), 10.0);
  EXPECT_TRUE(added);
  first->RecordHit(1.0);
  const auto [second, added_again] = part.Track(Interval(0, 50), 99.0);
  EXPECT_FALSE(added_again);
  EXPECT_EQ(first, second);
  EXPECT_EQ(second->hits().size(), 1u);
  EXPECT_DOUBLE_EQ(second->size_bytes, 10.0);  // original estimate kept
  EXPECT_EQ(part.fragments().size(), 1u);
}

TEST(PartitionStateTest, FindDistinguishesOpenness) {
  PartitionState part;
  part.Track(Interval::ClosedOpen(0, 50), 1.0);
  EXPECT_NE(part.Find(Interval::ClosedOpen(0, 50)), nullptr);
  EXPECT_EQ(part.Find(Interval(0, 50)), nullptr);  // different bounds
}

// Find against a linear scan, over random Track sequences whose
// intervals tie, differ by one ulp or only in openness, or sit at -0.0
// and +0.0; over copies that diverge from their original, hit-less
// copies, and planning shadows with planner-added fragments.
TEST(PartitionStateTest, FindEqualsLinearScan) {
  const std::vector<double> points = {-0.0,
                                      0.0,
                                      1.0,
                                      std::nextafter(1.0, 0.0),
                                      std::nextafter(1.0, 2.0),
                                      2.0,
                                      1e9};
  Rng rng(2203);
  auto random_interval = [&] {
    double lo = points[rng.UniformInt(0, points.size() - 1)];
    double hi = points[rng.UniformInt(0, points.size() - 1)];
    if (hi < lo) std::swap(lo, hi);
    return Interval(lo, hi, rng.NextDouble() < 0.5, rng.NextDouble() < 0.5);
  };
  auto check = [&](const PartitionState& part, const std::string& what) {
    EXPECT_TRUE(PartitionIndexMatchesScan(part)) << what;
    for (int p = 0; p < 16; ++p) {
      EXPECT_TRUE(FindMatchesScan(part, random_interval())) << what;
    }
  };
  std::atomic<int64_t> placeholders{0};
  ViewIdReservation reservation(&placeholders);
  const Catalog catalog;
  for (int trial = 0; trial < 40; ++trial) {
    ViewCatalog views;
    ViewInfo* v = views.Track(Scan("t"), SigNamed("t"));
    PartitionState* part = v->EnsurePartition("t.a", Interval(-1.0, 1e9));
    const int tracks = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < tracks; ++i) {
      const Interval iv = random_interval();
      const bool absent = ScanForFragment(*part, iv) == nullptr;
      EXPECT_EQ(part->Track(iv, 1.0).second, absent) << iv.ToString();
      check(*part, "tracked");
    }
    PartitionState copy = *part;
    PartitionState bare = part->CopyWithoutHits();
    for (int i = 0; i < 8; ++i) {
      copy.Track(random_interval(), 2.0);
      bare.Track(random_interval(), 3.0);
    }
    check(copy, "copy");
    check(bare, "copy without hits");
    check(*part, "original after its copies grew");

    PlanningDelta delta(catalog, &views, /*t_now=*/1.0, &reservation);
    PartitionState* shadow = delta.Partition(v, "t.a");
    ASSERT_NE(shadow, part);
    for (int i = 0; i < 8; ++i) {
      const Interval iv = random_interval();
      const bool absent = ScanForFragment(*shadow, iv) == nullptr;
      EXPECT_EQ(delta.TrackFragment(shadow, iv, 0.0).second, absent)
          << iv.ToString();
    }
    check(*shadow, "shadow with planner-added fragments");
    for (const FragmentStats& f : part->fragments()) {
      ASSERT_NE(shadow->Find(f.interval), nullptr) << f.interval.ToString();
    }
  }
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
  part->Track(Interval(0, 1), 5.0).first->materialized = true;
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
