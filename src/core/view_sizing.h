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

/// Estimated bytes of fragment `iv` of `view` partitioned on `attr`,
/// from the view table's histogram; without one, by `part`'s domain
/// (nullable). Planning code passes its PlanningDelta shadow partition
/// here, which may not exist on `view` itself yet.
double FragmentBytes(const Catalog& catalog, const ViewInfo& view,
                     const std::string& attr, const Interval& iv,
                     const PartitionState* part);

/// Paper's uniform-within-fragment size estimate for a candidate
/// (Section 7.2) over the currently tracked fragments.
double EstimateCandidateBytes(const PartitionState& part, const Interval& iv);

/// SimFs path of one materialized fragment file.
std::string FragmentPath(const ViewInfo& view, const std::string& attr,
                         const Interval& iv);

/// The initial fragmentation of a view partition (shadow or real)
/// under the configured strategy: the fragments the planner offers
/// when the view is first materialized.
std::vector<Interval> InitialFragmentation(const Catalog& catalog,
                                           const EngineOptions& options,
                                           const ViewInfo& view,
                                           const std::string& attr,
                                           const PartitionState& part);

/// Applies the fragment size bounds (Section 9): splits any interval
/// whose estimated size exceeds max_fragment_fraction * S(V), then
/// merges adjacent fragments smaller than one FS block. `part` sizes
/// the fragments as in FragmentBytes.
std::vector<Interval> ApplyFragmentBounds(const Catalog& catalog,
                                          const EngineOptions& options,
                                          const ViewInfo& view,
                                          const std::string& attr,
                                          const PartitionState* part,
                                          std::vector<Interval> frags);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_VIEW_SIZING_H_
