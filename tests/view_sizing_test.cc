#include "core/view_sizing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace deepsea {
namespace {

// The sizing and bounding functions as they were before pieces carried
// their sizes: every check re-sizes its interval from the catalog.
double TwoPassFragmentBytes(const Catalog& catalog, const ViewInfo& view,
                            const std::string& attr, const Interval& iv,
                            const PartitionState* part) {
  auto view_table = catalog.Get(view.id);
  if (!view_table.ok()) return 0.0;
  const AttributeHistogram* hist = (*view_table)->GetHistogram(attr);
  const double total = view.stats.size_bytes;
  if (hist != nullptr && !hist->empty()) {
    return hist->FractionInRange(iv) * total;
  }
  if (part != nullptr && part->domain.Width() > 0.0) {
    return iv.OverlapWidth(part->domain) / part->domain.Width() * total;
  }
  return total;
}

std::vector<Interval> TwoPassApplyFragmentBounds(
    const Catalog& catalog, const EngineOptions& options, const ViewInfo& view,
    const std::string& attr, const PartitionState* part,
    std::vector<Interval> frags) {
  if (options.max_fragment_fraction > 0.0) {
    const double limit = options.max_fragment_fraction * view.stats.size_bytes;
    std::vector<Interval> split;
    for (const Interval& f : frags) {
      const double bytes = TwoPassFragmentBytes(catalog, view, attr, f, part);
      if (bytes > limit && limit > 0.0) {
        const int pieces = static_cast<int>(std::ceil(bytes / limit));
        for (const Interval& p : f.SplitEqual(pieces)) split.push_back(p);
      } else {
        split.push_back(f);
      }
    }
    frags = std::move(split);
  }
  if (options.enforce_block_lower_bound && frags.size() > 1) {
    std::sort(frags.begin(), frags.end(), IntervalLess);
    std::vector<Interval> merged;
    for (const Interval& f : frags) {
      if (!merged.empty() &&
          TwoPassFragmentBytes(catalog, view, attr, merged.back(), part) <
              options.cluster.block_bytes) {
        Interval& prev = merged.back();
        prev = Interval(prev.lo, f.hi, prev.lo_inclusive, f.hi_inclusive);
      } else {
        merged.push_back(f);
      }
    }
    frags = std::move(merged);
  }
  return frags;
}

// Random fragmentations of the domain: adjacent pieces at random cuts,
// shuffled (the bounds sort only when they merge), sometimes with an
// overlapping extra piece.
std::vector<Interval> RandomFragmentation(Rng* rng, const Interval& domain) {
  std::vector<double> cuts = {domain.lo, domain.hi};
  const int n = static_cast<int>(rng->UniformInt(0, 40));
  for (int i = 0; i < n; ++i) {
    cuts.push_back(rng->Uniform(domain.lo, domain.hi));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<Interval> frags;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    frags.push_back(Interval(cuts[i], cuts[i + 1], true, i + 2 == cuts.size()));
  }
  if (rng->NextDouble() < 0.3) {
    const double lo = rng->Uniform(domain.lo, domain.hi);
    frags.push_back(Interval(lo, rng->Uniform(lo, domain.hi)));
  }
  for (size_t i = frags.size(); i > 1; --i) {
    std::swap(frags[i - 1], frags[rng->UniformInt(0, i - 1)]);
  }
  return frags;
}

TEST(ViewSizingTest, BoundedPiecesAndSizesEqualTheTwoPassBounds) {
  const Interval domain(0.0, 400000.0);
  const std::string attr = "v1.x";
  Rng rng(2204);
  int splits = 0;
  int merges = 0;
  for (const bool with_histogram : {true, false}) {
    Catalog catalog;
    auto table =
        std::make_shared<Table>("v1", Schema({{attr, DataType::kDouble}}));
    if (with_histogram) {
      // Skewed: a hot band holds most of the rows.
      AttributeHistogram hist(domain, 420);
      hist.AddRange(domain, 1e6);
      hist.AddRange(Interval(150000.0, 170000.0), 9e6);
      table->SetHistogram(attr, hist);
    }
    catalog.Put(table);
    ViewInfo view;
    view.id = "v1";
    view.stats.size_bytes = 40e9;
    PartitionState part;
    part.attr = attr;
    part.domain = domain;
    const FragmentSizer sizer(catalog, view, attr, &part);
    for (const double phi : {0.0, 0.02}) {
      for (const bool block_bound : {false, true}) {
        EngineOptions options;
        options.max_fragment_fraction = phi;
        options.enforce_block_lower_bound = block_bound;
        options.cluster.block_bytes = 1e9;
        for (int trial = 0; trial < 50; ++trial) {
          const std::vector<Interval> frags = RandomFragmentation(&rng, domain);
          const std::vector<Interval> expected = TwoPassApplyFragmentBounds(
              catalog, options, view, attr, &part, frags);
          const std::vector<SizedInterval> sized =
              ApplyFragmentBounds(options, sizer, frags);
          ASSERT_EQ(sized.size(), expected.size())
              << "histogram " << with_histogram << " phi " << phi
              << " block bound " << block_bound << " trial " << trial;
          for (size_t i = 0; i < sized.size(); ++i) {
            EXPECT_EQ(sized[i].interval, expected[i]) << "piece " << i;
            // Bit for bit: the size the old code would compute afresh.
            EXPECT_EQ(sized[i].bytes, TwoPassFragmentBytes(catalog, view, attr,
                                                           expected[i], &part))
                << "piece " << i;
          }
          if (expected.size() > frags.size()) ++splits;
          if (expected.size() < frags.size()) ++merges;
        }
      }
    }
  }
  // Both bounds acted, or the draw proves nothing.
  EXPECT_GT(splits, 20);
  EXPECT_GT(merges, 20);

  // Without a view table every piece sizes to 0 and nothing splits.
  const Catalog empty;
  ViewInfo view;
  view.id = "v1";
  view.stats.size_bytes = 40e9;
  EngineOptions options;
  options.max_fragment_fraction = 0.02;
  const std::vector<Interval> frags = RandomFragmentation(&rng, domain);
  const std::vector<SizedInterval> sized =
      ApplyFragmentBounds(options, FragmentSizer(empty, view, attr, nullptr),
                          frags);
  const std::vector<Interval> expected =
      TwoPassApplyFragmentBounds(empty, options, view, attr, nullptr, frags);
  ASSERT_EQ(sized.size(), expected.size());
  for (size_t i = 0; i < sized.size(); ++i) {
    EXPECT_EQ(sized[i].interval, expected[i]);
    EXPECT_EQ(sized[i].bytes, 0.0);
  }
}

}  // namespace
}  // namespace deepsea
