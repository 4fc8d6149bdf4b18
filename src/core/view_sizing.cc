#include "core/view_sizing.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"

namespace deepsea {

namespace {

/// Bins of a view histogram derived without a base-table histogram.
constexpr int kViewHistogramBins = 256;

}  // namespace

Result<Interval> ColumnDomain(const Catalog& catalog,
                              const std::string& column) {
  const size_t pos = column.rfind('.');
  if (pos == std::string::npos) {
    return Status::InvalidArgument("unqualified partition column: " + column);
  }
  const std::string table_name = column.substr(0, pos);
  DEEPSEA_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(table_name));
  const AttributeHistogram* hist = table->GetHistogram(column);
  if (hist != nullptr) return hist->domain();
  return table->SampleMinMax(column);
}

double RangeFractionOfBaseColumn(const Catalog& catalog,
                                 const std::string& column,
                                 const Interval& iv) {
  const size_t pos = column.rfind('.');
  if (pos == std::string::npos) return 1.0;
  auto table = catalog.Get(column.substr(0, pos));
  if (!table.ok()) return 1.0;
  const AttributeHistogram* hist = (*table)->GetHistogram(column);
  if (hist == nullptr || hist->empty()) return 1.0;
  return hist->FractionInRange(iv);
}

Result<AttributeHistogram> DeriveViewHistogram(const Catalog& catalog,
                                               const ViewInfo& view,
                                               const std::string& attr) {
  const size_t pos = attr.rfind('.');
  if (pos == std::string::npos) {
    return Status::InvalidArgument("unqualified partition column: " + attr);
  }
  const std::string table_name = attr.substr(0, pos);
  DEEPSEA_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(table_name));
  auto view_table = catalog.Get(view.id);
  const double view_rows =
      view_table.ok() ? static_cast<double>((*view_table)->logical_row_count())
                      : 0.0;
  const AttributeHistogram* hist = table->GetHistogram(attr);
  if (hist != nullptr && !hist->empty()) {
    AttributeHistogram out = *hist;
    if (view_rows > 0.0) out.NormalizeTo(view_rows);
    return out;
  }
  // Fall back to a uniform distribution over the sample domain.
  DEEPSEA_ASSIGN_OR_RETURN(Interval domain, table->SampleMinMax(attr));
  AttributeHistogram out(domain, kViewHistogramBins);
  out.AddRange(domain, std::max(view_rows, 1.0));
  return out;
}

FragmentSizer::FragmentSizer(const Catalog& catalog, const ViewInfo& view,
                             const std::string& attr,
                             const PartitionState* part)
    : view_bytes_(view.stats.size_bytes), part_(part) {
  auto view_table = catalog.Get(view.id);
  if (!view_table.ok()) return;
  table_ = *view_table;
  hist_ = table_->GetHistogram(attr);
}

double FragmentSizer::Bytes(const Interval& iv) const {
  if (table_ == nullptr) return 0.0;
  if (hist_ != nullptr && !hist_->empty()) {
    return hist_->FractionInRange(iv) * view_bytes_;
  }
  if (part_ != nullptr && part_->domain.Width() > 0.0) {
    return iv.OverlapWidth(part_->domain) / part_->domain.Width() * view_bytes_;
  }
  return view_bytes_;
}

double EstimateCandidateBytes(const PartitionState& part, const Interval& iv) {
  // Paper Section 7.2: assume uniformity within each overlapping
  // fragment and sum relative overlaps.
  double est = 0.0;
  for (const FragmentStats& f : part.fragments()) {
    if (!f.materialized) continue;
    const double w = f.interval.Width();
    if (w <= 0.0) continue;
    est += f.interval.OverlapWidth(iv) / w * f.size_bytes;
  }
  return est;
}

std::string FragmentPath(const ViewInfo& view, const std::string& attr,
                         const Interval& iv) {
  return StrFormat("pool/%s/%s/%s", view.id.c_str(), attr.c_str(),
                   iv.ToString().c_str());
}

std::vector<Interval> InitialFragmentation(const EngineOptions& options,
                                           const FragmentSizer& sizer,
                                           const PartitionState& part) {
  if (options.strategy == StrategyKind::kEquiDepth) {
    std::vector<double> bounds;
    if (sizer.histogram() != nullptr) {
      bounds =
          sizer.histogram()->EquiDepthBoundaries(options.equi_depth_fragments);
    }
    if (bounds.size() < 2) {
      const auto pieces = part.domain.SplitEqual(options.equi_depth_fragments);
      return pieces;
    }
    std::vector<Interval> out;
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      const bool last = i + 2 == bounds.size();
      out.push_back(Interval(bounds[i], bounds[i + 1], /*lo_inc=*/true,
                             /*hi_inc=*/last));
    }
    return out;
  }
  if (options.strategy == StrategyKind::kNoPartition) {
    return {part.domain};
  }
  // DeepSea / NoRefine: the workload-aware pending fragmentation.
  if (part.pending.empty()) return {part.domain};
  std::vector<Interval> out = part.pending;
  std::sort(out.begin(), out.end(), IntervalLess);
  return out;
}

std::vector<SizedInterval> ApplyFragmentBounds(const EngineOptions& options,
                                               const FragmentSizer& sizer,
                                               std::vector<Interval> frags) {
  std::vector<SizedInterval> sized;
  sized.reserve(frags.size());
  // Upper bound phi: split oversized fragments into equi-size pieces.
  const double limit = options.max_fragment_fraction * sizer.view_bytes();
  for (const Interval& f : frags) {
    const double bytes = sizer.Bytes(f);
    if (options.max_fragment_fraction > 0.0 && bytes > limit && limit > 0.0) {
      const int pieces = static_cast<int>(std::ceil(bytes / limit));
      for (const Interval& p : f.SplitEqual(pieces)) {
        sized.push_back({p, sizer.Bytes(p)});
      }
    } else {
      sized.push_back({f, bytes});
    }
  }
  // Lower bound: merge adjacent fragments smaller than a block; only a
  // merged piece is sized again.
  if (options.enforce_block_lower_bound && sized.size() > 1) {
    std::sort(sized.begin(), sized.end(),
              [](const SizedInterval& a, const SizedInterval& b) {
                return IntervalLess(a.interval, b.interval);
              });
    std::vector<SizedInterval> merged;
    for (const SizedInterval& f : sized) {
      if (!merged.empty() &&
          merged.back().bytes < options.cluster.block_bytes) {
        Interval& prev = merged.back().interval;
        prev = Interval(prev.lo, f.interval.hi, prev.lo_inclusive,
                        f.interval.hi_inclusive);
        merged.back().bytes = sizer.Bytes(prev);
      } else {
        merged.push_back(f);
      }
    }
    sized = std::move(merged);
  }
  return sized;
}

}  // namespace deepsea
