#ifndef DEEPSEA_CORE_CANDIDATES_H_
#define DEEPSEA_CORE_CANDIDATES_H_

#include <string>
#include <vector>

#include "core/interval.h"
#include "plan/plan.h"

namespace deepsea {

/// Partition candidate generation, paper Definition 7: given the
/// tracked fragment intervals of a partition and the query's selection
/// interval I = [l, u], every tracked interval I' is split at the
/// endpoints of I that fall inside it:
///   - no overlap, or I' contained in I         -> no candidates;
///   - I overlaps I' from the left  (case 3)    -> [l', u], (u, u'];
///   - I overlaps I' from the right (case 4)    -> [l', l), [l, u'];
///   - I strictly inside I'         (case 5)    -> [l', l), [l, u], (u, u'].
/// Endpoint coincidences degenerate gracefully (empty pieces dropped).
/// The returned list is deduplicated and excludes intervals already in
/// `existing`.
std::vector<Interval> GeneratePartitionCandidates(
    const std::vector<Interval>& existing, const Interval& query);

/// View candidate enumeration, paper Definition 6: all subqueries of
/// `query` of the form gamma(Q1) (aggregate), Q1 join Q2, or pi(Q1)
/// (projection) that read base tables only. A subquery over a ViewRef
/// (a rewritten plan's view read) is skipped: view matching looks up
/// subplans of submitted queries, which never read a view, so no
/// lookup could return a view defined over one (DESIGN.md §7,
/// deviation 6). The caller filters out subqueries already tracked /
/// materialized. Returned in pre-order (outermost first).
std::vector<PlanPtr> EnumerateViewCandidates(const PlanPtr& query);

/// Selection contexts: for every Select subplan with a numeric range
/// constraint, the pair (child subplan, column, interval). These drive
/// partition-candidate generation (Section 6.2): the child subquery is
/// the view to partition and the interval supplies the split points.
struct SelectionContext {
  PlanPtr selected_input;  ///< Q' under the selection
  std::string column;      ///< selection attribute A
  Interval range;          ///< [l, u] clamped by the caller to D(A)
};

std::vector<SelectionContext> ExtractSelectionContexts(const PlanPtr& query);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_CANDIDATES_H_
