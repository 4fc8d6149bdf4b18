#ifndef DEEPSEA_CORE_MERGE_H_
#define DEEPSEA_CORE_MERGE_H_

#include <optional>
#include <vector>

#include "core/decay.h"
#include "core/view_catalog.h"

namespace deepsea {

/// Configuration of the fragment-merging extension (the paper's
/// short-term future work, Section 11: "merge consecutive fragments
/// that are mostly accessed together"). Two adjacent materialized
/// fragments are merged when the same queries keep reading both: the
/// merged fragment is read as one file (fewer per-file overheads,
/// simpler covers) at the cost of one read+write pass.
struct MergeConfig {
  bool enabled = false;
  /// Minimum co-access correlation: |T(a) ∩ T(b)| / max(|T(a)|, |T(b)|)
  /// over the decayed-hit window. Timestamps are query indices, so the
  /// intersection is exact co-access.
  double min_co_access = 0.8;
  /// Both fragments need at least this many (raw) hits to be judged.
  int min_hits = 3;
  /// Only merge when the merged fragment stays below this fraction of
  /// the view size (don't rebuild cold giants).
  double max_merged_fraction = 0.2;
};

/// A merge opportunity found by FindMergeCandidates.
struct MergeCandidate {
  ViewInfo* view = nullptr;
  PartitionState* part = nullptr;
  /// Indices into part->fragments of the two adjacent fragments.
  size_t left_index = 0;
  size_t right_index = 0;
  /// The merged interval and its co-access score.
  Interval merged;
  double co_access = 0.0;
  double combined_bytes = 0.0;
};

/// Scans all materialized partitions for adjacent fragment pairs whose
/// hit sets are strongly correlated per `config`. Results are sorted by
/// descending co-access. `t_now`/`dec` define the decayed-hit window:
/// hits older than the decay horizon do not count as evidence.
std::vector<MergeCandidate> FindMergeCandidates(ViewCatalog* views,
                                                const MergeConfig& config,
                                                double t_now,
                                                const DecayFunction& dec);

/// True when fragments `a` and `b` are adjacent (share exactly one
/// boundary point with compatible openness, in either order) so their
/// union is a single interval.
bool AreAdjacent(const Interval& a, const Interval& b);

/// Co-access correlation of two fragments: the fraction of the busier
/// fragment's (decay-weighted) hits whose timestamps also appear in the
/// other fragment's hit list.
double CoAccess(const FragmentStats& a, const FragmentStats& b, double t_now,
                const DecayFunction& dec);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_MERGE_H_
