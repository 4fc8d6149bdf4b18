#ifndef DEEPSEA_CORE_VIEW_SIZING_H_
#define DEEPSEA_CORE_VIEW_SIZING_H_

#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "core/engine_options.h"
#include "core/interval.h"
#include "core/view_catalog.h"

namespace deepsea {

// Size / distribution estimation helpers shared by the pipeline stages
// (CandidateGenerator, SelectionPlanner, PoolManager). These were
// private methods of the monolithic DeepSeaEngine; they are pure
// functions of catalog + options + view state, so they live here where
// every stage (and test) can call them directly.

/// Domain of `column` from its base table histogram/sample.
Result<Interval> ColumnDomain(const Catalog& catalog, const std::string& column);

/// Fraction of the base table's rows whose `column` value lies in `iv`
/// (1.0 when no statistics exist).
double RangeFractionOfBaseColumn(const Catalog& catalog,
                                 const std::string& column, const Interval& iv);

/// Histogram for a view's partition attribute, derived from the base
/// table's distribution scaled to the view's cardinality.
Result<AttributeHistogram> DeriveViewHistogram(const Catalog& catalog,
                                               const ViewInfo& view,
                                               const std::string& attr);

/// The size formula of the fragments of `view` partitioned on `attr`:
/// the view table's histogram is resolved once, on construction, and
/// each Bytes call is one histogram range query. Planning code passes
/// its PlanningDelta shadow partition as `part` (nullable), which may
/// not exist on `view` itself yet. The view table and S(V) are read
/// when the sizer is built, so build one per (view, attr) where neither
/// changes: per planning pass or per materialization.
class FragmentSizer {
 public:
  FragmentSizer(const Catalog& catalog, const ViewInfo& view,
                const std::string& attr, const PartitionState* part);

  /// Estimated bytes of fragment `iv`: from the view table's histogram;
  /// without one, by the partition's domain; 0 without a view table.
  double Bytes(const Interval& iv) const;

  /// The view table's histogram on the attribute (nullptr when absent).
  const AttributeHistogram* histogram() const { return hist_; }
  /// S(V), the view's estimated size.
  double view_bytes() const { return view_bytes_; }

 private:
  TablePtr table_;  ///< keeps `hist_` alive; null without a view table
  const AttributeHistogram* hist_ = nullptr;
  double view_bytes_ = 0.0;
  const PartitionState* part_ = nullptr;
};

/// Paper's uniform-within-fragment size estimate for a candidate
/// (Section 7.2) over the currently tracked fragments.
double EstimateCandidateBytes(const PartitionState& part, const Interval& iv);

/// SimFs path of one materialized fragment file.
std::string FragmentPath(const ViewInfo& view, const std::string& attr,
                         const Interval& iv);

/// The initial fragmentation of a view partition (shadow or real)
/// under the configured strategy: the fragments the planner offers
/// when the view is first materialized. Equi-depth reads the sizer's
/// histogram.
std::vector<Interval> InitialFragmentation(const EngineOptions& options,
                                           const FragmentSizer& sizer,
                                           const PartitionState& part);

/// One planned piece and its estimated bytes (FragmentSizer::Bytes).
struct SizedInterval {
  Interval interval;
  double bytes = 0.0;
};

/// Applies the fragment size bounds (Section 9): splits any interval
/// whose estimated size exceeds max_fragment_fraction * S(V), then
/// merges adjacent fragments smaller than one FS block. A piece is
/// sized once, when the split sees it, and a merged piece again after
/// each merge; each returned size is `sizer.Bytes` of its interval.
std::vector<SizedInterval> ApplyFragmentBounds(const EngineOptions& options,
                                               const FragmentSizer& sizer,
                                               std::vector<Interval> frags);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_VIEW_SIZING_H_
