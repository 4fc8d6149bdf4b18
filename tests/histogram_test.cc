#include "catalog/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "catalog/table.h"
#include "common/rng.h"

namespace deepsea {
namespace {

TEST(HistogramTest, AddAndTotal) {
  AttributeHistogram h(Interval(0, 100), 10);
  h.Add(5);
  h.Add(15);
  h.Add(15);
  EXPECT_DOUBLE_EQ(h.total_count(), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_count(1), 2.0);
}

TEST(HistogramTest, OutOfDomainClampsToEdges) {
  AttributeHistogram h(Interval(0, 100), 10);
  h.Add(-5);
  h.Add(200);
  EXPECT_DOUBLE_EQ(h.bin_count(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_count(9), 1.0);
  // Far outside the domain the bin position overflows int; it must
  // still clamp to the edge bins.
  h.Add(1e300);
  h.Add(-1e300);
  h.Add(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(h.bin_count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_count(9), 3.0);
}

// --- bit-identity of the bin-span loops -------------------------------
//
// FractionInRange and AddRange visit only the bins an interval can
// overlap. The references below scan every bin; every comparison is
// EXPECT_EQ on doubles.

double FullScanFraction(const AttributeHistogram& h, const Interval& iv) {
  if (h.total_count() <= 0.0) return 0.0;
  const auto inter = iv.Intersect(h.domain());
  if (!inter.has_value()) return 0.0;
  double mass = 0.0;
  for (int i = 0; i < h.num_bins(); ++i) {
    const Interval bi = h.bin_interval(i);
    const double bw = bi.Width();
    if (bw <= 0.0) continue;
    const double ow = bi.OverlapWidth(*inter);
    if (ow > 0.0) mass += h.bin_count(i) * (ow / bw);
  }
  return mass / h.total_count();
}

/// The full-scan AddRange applied to a copy of `h`.
std::vector<double> FullScanAddRange(const AttributeHistogram& h,
                                     const Interval& iv, double weight) {
  std::vector<double> counts;
  for (int i = 0; i < h.num_bins(); ++i) counts.push_back(h.bin_count(i));
  const auto inter = iv.Intersect(h.domain());
  if (!inter.has_value()) return counts;
  if (inter->Width() <= 0.0) {
    AttributeHistogram point = h;
    point.Add(inter->lo, weight);
    for (int i = 0; i < h.num_bins(); ++i) counts[i] = point.bin_count(i);
    return counts;
  }
  const double total_w = inter->Width();
  for (int i = 0; i < h.num_bins(); ++i) {
    const double ow = h.bin_interval(i).OverlapWidth(*inter);
    if (ow > 0.0) counts[i] += weight * ow / total_w;
  }
  return counts;
}

/// A random interval of one of the shapes the span must get right:
/// inside one bin, straddling bins, on or one ulp off bin boundaries,
/// outside or across the domain edges, a point, or reaching the
/// inclusive last bin.
Interval RandomProbe(const AttributeHistogram& h, Rng* rng) {
  const Interval& d = h.domain();
  const double w = d.Width();
  const int bin = static_cast<int>(rng->UniformInt(0, h.num_bins() - 1));
  const Interval bi = h.bin_interval(bin);
  const bool lo_inc = rng->NextDouble() < 0.5;
  const bool hi_inc = rng->NextDouble() < 0.5;
  switch (rng->UniformInt(0, 6)) {
    case 0: {  // inside one bin
      const double a = rng->Uniform(bi.lo, bi.hi);
      return Interval(a, rng->Uniform(a, bi.hi), lo_inc, hi_inc);
    }
    case 1: {  // straddling any number of bins
      const double a = rng->Uniform(d.lo, d.hi);
      return Interval(a, rng->Uniform(a, d.hi), lo_inc, hi_inc);
    }
    case 2: {  // on bin boundaries, or one ulp to either side
      const int last = static_cast<int>(rng->UniformInt(bin, h.num_bins() - 1));
      auto nudge = [rng](double x) {
        const double r = rng->NextDouble();
        if (r < 1.0 / 3) return x;
        return std::nextafter(x, r < 2.0 / 3 ? -HUGE_VAL : HUGE_VAL);
      };
      const double a = nudge(bi.lo);
      return Interval(a, std::max(a, nudge(h.bin_interval(last).hi)), lo_inc,
                      hi_inc);
    }
    case 3: {  // entirely outside the domain
      const double off = rng->Uniform(0.0, w);
      return rng->NextDouble() < 0.5
                 ? Interval(d.lo - w - off, d.lo - off, lo_inc, hi_inc)
                 : Interval(d.hi + off, d.hi + w + off, lo_inc, hi_inc);
    }
    case 4: {  // across a domain edge (or both)
      const double a = rng->Uniform(d.lo - w, d.hi);
      return Interval(a, rng->Uniform(std::max(a, d.lo), d.hi + w), lo_inc,
                      hi_inc);
    }
    case 5: {  // a point, in a bin or on a bin boundary
      const double x = rng->NextDouble() < 0.5 ? rng->Uniform(bi.lo, bi.hi)
                                               : bi.lo;
      return Interval(x, x);
    }
    default: {  // reaching the inclusive last bin
      const double a = rng->NextDouble() < 0.25 ? d.hi : rng->Uniform(d.lo, d.hi);
      return Interval(a, d.hi, lo_inc, /*hi_inc=*/true);
    }
  }
}

TEST(HistogramTest, BinSpanLoopsMatchFullScan) {
  struct Shape {
    Interval domain;
    int bins;
  };
  // The last shape's bins are narrower than one ulp of its domain, so
  // most of them are empty.
  const Shape shapes[] = {{Interval(0, 100), 1},
                          {Interval(-3.5, 17.25), 7},
                          {Interval(0, 1.8e6), 430},
                          {Interval(-1e6, 2.5e6), 4096},
                          {Interval(1e15, 1e15 + 1), 4096}};
  Rng rng(20240917);
  for (const Shape& shape : shapes) {
    AttributeHistogram h(shape.domain, shape.bins);
    // The last bin ends at the domain's end, not at lo + step * bins
    // (one ulp past it for 430 bins over [0, 1.8e6]).
    EXPECT_EQ(h.bin_interval(shape.bins - 1).hi, shape.domain.hi);
    for (int i = 0; i < 200; ++i) {
      h.Add(rng.Uniform(shape.domain.lo, shape.domain.hi), rng.Uniform(0, 5));
    }
    for (int i = 0; i < 400; ++i) {
      const Interval iv = RandomProbe(h, &rng);
      const double weight = rng.Uniform(0.5, 50);
      EXPECT_EQ(h.FractionInRange(iv), FullScanFraction(h, iv))
          << shape.bins << " bins, " << iv.ToString();
      const std::vector<double> expected = FullScanAddRange(h, iv, weight);
      h.AddRange(iv, weight);
      for (int b = 0; b < shape.bins; ++b) {
        ASSERT_EQ(h.bin_count(b), expected[static_cast<size_t>(b)])
            << shape.bins << " bins, bin " << b << ", " << iv.ToString();
      }
    }
  }
}

TEST(HistogramTest, FractionInRangeUniform) {
  AttributeHistogram h(Interval(0, 100), 100);
  h.AddRange(Interval(0, 100), 1000);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 50)), 0.5, 1e-9);
  EXPECT_NEAR(h.FractionInRange(Interval(25, 75)), 0.5, 1e-9);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 100)), 1.0, 1e-9);
  EXPECT_NEAR(h.FractionInRange(Interval(-50, 0)), 0.0, 1e-6);
}

TEST(HistogramTest, FractionInterpolatesPartialBins) {
  AttributeHistogram h(Interval(0, 10), 1);  // one bin
  h.AddRange(Interval(0, 10), 100);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 2.5)), 0.25, 1e-9);
}

TEST(HistogramTest, SkewedMass) {
  AttributeHistogram h(Interval(0, 100), 10);
  h.AddRange(Interval(0, 10), 900);   // hot first bin
  h.AddRange(Interval(10, 100), 100);  // cold tail
  EXPECT_NEAR(h.FractionInRange(Interval(0, 10)), 0.9, 1e-9);
  EXPECT_GT(h.MassInRange(Interval(0, 10)), h.MassInRange(Interval(10, 100)) * 8);
}

TEST(HistogramTest, EquiDepthBoundariesUniform) {
  AttributeHistogram h(Interval(0, 100), 100);
  h.AddRange(Interval(0, 100), 1000);
  const auto bounds = h.EquiDepthBoundaries(4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds.front(), 0.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 100.0);
  EXPECT_NEAR(bounds[1], 25.0, 1.5);
  EXPECT_NEAR(bounds[2], 50.0, 1.5);
  EXPECT_NEAR(bounds[3], 75.0, 1.5);
}

TEST(HistogramTest, EquiDepthBoundariesSkewed) {
  AttributeHistogram h(Interval(0, 100), 100);
  h.AddRange(Interval(0, 10), 900);
  h.AddRange(Interval(10, 100), 100);
  const auto bounds = h.EquiDepthBoundaries(2);
  ASSERT_EQ(bounds.size(), 3u);
  // Half the mass sits well inside [0, 10].
  EXPECT_LT(bounds[1], 10.0);
}

TEST(HistogramTest, EquiDepthSpansHaveEqualMass) {
  Rng rng(3);
  AttributeHistogram h(Interval(0, 1000), 200);
  for (int i = 0; i < 20000; ++i) h.Add(rng.Gaussian(300, 80));
  const int k = 8;
  const auto bounds = h.EquiDepthBoundaries(k);
  ASSERT_EQ(bounds.size(), static_cast<size_t>(k + 1));
  for (int i = 0; i < k; ++i) {
    const double mass = h.FractionInRange(Interval(bounds[i], bounds[i + 1]));
    EXPECT_NEAR(mass, 1.0 / k, 0.02) << "span " << i;
  }
}

TEST(HistogramTest, NormalizePreservesShape) {
  AttributeHistogram h(Interval(0, 10), 2);
  h.AddRange(Interval(0, 5), 30);
  h.AddRange(Interval(5, 10), 10);
  h.NormalizeTo(100);
  EXPECT_DOUBLE_EQ(h.total_count(), 100.0);
  EXPECT_NEAR(h.FractionInRange(Interval(0, 5)), 0.75, 1e-9);
}

TEST(HistogramTest, EmptyHistogramFractionZero) {
  AttributeHistogram h(Interval(0, 10), 4);
  EXPECT_EQ(h.FractionInRange(Interval(0, 10)), 0.0);
  EXPECT_TRUE(h.empty());
}

TEST(TableTest, RegisterAndLookup) {
  Catalog catalog;
  auto t = std::make_shared<Table>(
      "t", Schema({{"t.a", DataType::kInt64}}));
  ASSERT_TRUE(catalog.Register(t).ok());
  EXPECT_TRUE(catalog.Contains("t"));
  EXPECT_FALSE(catalog.Register(t).ok());  // duplicate
  auto got = catalog.Get("t");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "t");
  EXPECT_FALSE(catalog.Get("zzz").ok());
}

TEST(TableTest, DropAndList) {
  Catalog catalog;
  catalog.Put(std::make_shared<Table>("b", Schema{}));
  catalog.Put(std::make_shared<Table>("a", Schema{}));
  EXPECT_EQ(catalog.TableNames(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(catalog.Drop("a").ok());
  EXPECT_FALSE(catalog.Drop("a").ok());
}

TEST(TableTest, LogicalBytes) {
  Table t("t", Schema{});
  t.set_logical_row_count(1000);
  t.set_avg_row_bytes(50);
  EXPECT_DOUBLE_EQ(t.logical_bytes(), 50000.0);
}

TEST(TableTest, BuildHistogramFromSample) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  for (int i = 0; i < 100; ++i) t.AddRow({Value(static_cast<int64_t>(i))});
  t.set_logical_row_count(10000);
  ASSERT_TRUE(t.BuildHistogram("t.a", 10).ok());
  const AttributeHistogram* h = t.GetHistogram("t.a");
  ASSERT_NE(h, nullptr);
  // Scaled to logical rows.
  EXPECT_NEAR(h->total_count(), 10000.0, 1e-6);
  EXPECT_NEAR(h->FractionInRange(Interval(0, 49.5)), 0.5, 0.02);
}

TEST(TableTest, HistogramLookupByShortName) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  t.SetHistogram("t.a", AttributeHistogram(Interval(0, 1), 1));
  EXPECT_NE(t.GetHistogram("a"), nullptr);
  EXPECT_NE(t.GetHistogram("t.a"), nullptr);
  EXPECT_EQ(t.GetHistogram("b"), nullptr);
}

TEST(TableTest, SampleMinMax) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  t.AddRow({Value(int64_t{5})});
  t.AddRow({Value(int64_t{-2})});
  t.AddRow({Value(int64_t{9})});
  auto mm = t.SampleMinMax("t.a");
  ASSERT_TRUE(mm.ok());
  EXPECT_EQ(mm->lo, -2.0);
  EXPECT_EQ(mm->hi, 9.0);
  EXPECT_FALSE(t.SampleMinMax("t.zzz").ok());
}

TEST(TableTest, NdvStorage) {
  Table t("t", Schema({{"t.a", DataType::kInt64}}));
  EXPECT_EQ(t.ndv("t.a"), 0.0);
  t.set_ndv("a", 42.0);  // short name resolves
  EXPECT_EQ(t.ndv("t.a"), 42.0);
  EXPECT_EQ(t.ndv("a"), 42.0);
}

TEST(TableTest, TotalLogicalBytes) {
  Catalog catalog;
  auto a = std::make_shared<Table>("a", Schema{});
  a->set_logical_row_count(10);
  a->set_avg_row_bytes(10);
  auto b = std::make_shared<Table>("b", Schema{});
  b->set_logical_row_count(5);
  b->set_avg_row_bytes(100);
  catalog.Put(a);
  catalog.Put(b);
  EXPECT_DOUBLE_EQ(catalog.TotalLogicalBytes(), 600.0);
}

TablePtr SizedTable(const std::string& name, uint64_t rows) {
  auto t = std::make_shared<Table>(name, Schema{});
  t->set_logical_row_count(rows);
  t->set_avg_row_bytes(1);
  return t;
}

TEST(TableTest, OverlayReadsThroughToParent) {
  Catalog parent;
  const TablePtr a = SizedTable("a", 1);
  parent.Put(a);
  const Catalog overlay(&parent);
  EXPECT_TRUE(overlay.Contains("a"));
  auto got = overlay.Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, a);  // the parent's table itself, not a copy
  EXPECT_FALSE(overlay.Contains("zzz"));
  EXPECT_FALSE(overlay.Get("zzz").ok());
  // A table the parent gains later is visible too (read-through, not a
  // snapshot).
  parent.Put(SizedTable("b", 2));
  EXPECT_TRUE(overlay.Contains("b"));
}

TEST(TableTest, OverlayPutShadowsParentWithoutChangingIt) {
  Catalog parent;
  const TablePtr a = SizedTable("a", 1);
  parent.Put(a);
  Catalog overlay(&parent);
  const TablePtr a2 = SizedTable("a", 2);
  overlay.Put(a2);
  overlay.Put(SizedTable("n", 3));
  EXPECT_EQ(*overlay.Get("a"), a2);
  EXPECT_EQ(*parent.Get("a"), a);
  EXPECT_TRUE(overlay.Contains("n"));
  EXPECT_FALSE(parent.Contains("n"));
  EXPECT_EQ(parent.TableNames(), (std::vector<std::string>{"a"}));
  // A visible parent name cannot be registered again.
  EXPECT_FALSE(Catalog(&parent).Register(SizedTable("a", 4)).ok());
}

TEST(TableTest, OverlayDropOfParentOnlyNameLeavesParentIntact) {
  Catalog parent;
  const TablePtr a = SizedTable("a", 1);
  parent.Put(a);
  Catalog overlay(&parent);
  EXPECT_FALSE(overlay.Drop("a").ok());  // not local: nothing to drop
  EXPECT_TRUE(parent.Contains("a"));
  EXPECT_EQ(*overlay.Get("a"), a);
  // Dropping a local shadow uncovers the parent's table again.
  overlay.Put(SizedTable("a", 2));
  EXPECT_TRUE(overlay.Drop("a").ok());
  EXPECT_EQ(*overlay.Get("a"), a);
  EXPECT_EQ(*parent.Get("a"), a);
}

TEST(TableTest, OverlayListsAndSumsParentTables) {
  Catalog parent;
  parent.Put(SizedTable("a", 10));
  parent.Put(SizedTable("b", 20));
  Catalog overlay(&parent);
  overlay.Put(SizedTable("b", 200));  // shadows the parent's "b"
  overlay.Put(SizedTable("c", 1000));
  EXPECT_EQ(overlay.TableNames(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_DOUBLE_EQ(overlay.TotalLogicalBytes(), 10.0 + 200.0 + 1000.0);
  EXPECT_DOUBLE_EQ(parent.TotalLogicalBytes(), 30.0);
}

}  // namespace
}  // namespace deepsea
