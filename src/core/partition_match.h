#ifndef DEEPSEA_CORE_PARTITION_MATCH_H_
#define DEEPSEA_CORE_PARTITION_MATCH_H_

#include <optional>
#include <vector>

#include "core/interval.h"

namespace deepsea {

/// The paper's Algorithm 2 (Section 8.2): greedily selects a subset of
/// (possibly overlapping) fragments whose union covers the query's
/// selection range theta. Because fragments may overlap, exact minimum
/// cover is set-cover-hard; the greedy rule — among fragments covering
/// the current frontier from the left, take the one with the largest
/// lower bound — yields the classic optimal interval-cover when one
/// exists.
///
/// Returns the indices (into `fragments`) of the chosen cover in
/// left-to-right order, or nullopt when a gap prevents covering
/// `range`. A gap is an answer, not an error: V_sel asks once per
/// planned piece, and most pieces are uncovered. An empty `range` yields
/// an empty cover.
std::optional<std::vector<size_t>> PartitionMatch(
    const std::vector<Interval>& fragments, const Interval& range);

/// Convenience: returns the chosen intervals instead of indices.
std::optional<std::vector<Interval>> PartitionMatchIntervals(
    const std::vector<Interval>& fragments, const Interval& range);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_PARTITION_MATCH_H_
