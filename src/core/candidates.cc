#include "core/candidates.h"

#include <algorithm>
#include <cmath>

namespace deepsea {

std::vector<Interval> GeneratePartitionCandidates(
    const std::vector<Interval>& existing, const Interval& query) {
  std::vector<Interval> out;
  if (query.IsEmpty()) return out;
  auto add_unique = [&](const Interval& iv) {
    if (iv.IsEmpty() || iv.Width() <= 0.0) return;
    if (std::find(existing.begin(), existing.end(), iv) != existing.end()) return;
    if (std::find(out.begin(), out.end(), iv) != out.end()) return;
    out.push_back(iv);
  };
  for (const Interval& frag : existing) {
    const auto inter = frag.Intersect(query);
    if (!inter.has_value()) continue;       // case 1: disjoint
    if (query.Contains(frag)) continue;     // case 2: I' subset of I
    // Cases 3-5: split the fragment at the query endpoints inside it.
    // Left remainder [l', l): exists when query.lo is strictly inside.
    if (query.lo > frag.lo ||
        (query.lo == frag.lo && frag.lo_inclusive && !query.lo_inclusive)) {
      auto [left, rest] = frag.SplitBefore(query.lo);
      add_unique(left);
      (void)rest;
    }
    // Right remainder (u, u']: exists when query.hi is strictly inside.
    if (query.hi < frag.hi ||
        (query.hi == frag.hi && frag.hi_inclusive && !query.hi_inclusive)) {
      auto [rest, right] = frag.SplitAfter(query.hi);
      add_unique(right);
      (void)rest;
    }
    // The covered middle piece I' intersect I.
    add_unique(*inter);
  }
  return out;
}

namespace {

// Appends the candidates of `plan` in pre-order and returns whether
// `plan` reads a ViewRef; such a subplan is no candidate.
bool Enumerate(const PlanPtr& plan, std::vector<PlanPtr>* out) {
  const PlanKind kind = plan->kind();
  const size_t at = out->size();
  bool reads_view = kind == PlanKind::kViewRef;
  for (const PlanPtr& c : plan->children()) reads_view |= Enumerate(c, out);
  if (!reads_view && (kind == PlanKind::kJoin || kind == PlanKind::kAggregate ||
                      kind == PlanKind::kProject)) {
    out->insert(out->begin() + static_cast<std::ptrdiff_t>(at), plan);
  }
  return reads_view;
}

void ExtractSelections(const PlanPtr& plan, std::vector<SelectionContext>* out) {
  if (!plan) return;
  if (plan->kind() == PlanKind::kSelect && plan->predicate()) {
    const RangeExtraction ex = ExtractRanges(plan->predicate());
    for (const ColumnRange& r : ex.ranges) {
      if (!std::isfinite(r.lo) && !std::isfinite(r.hi)) continue;
      SelectionContext ctx;
      ctx.selected_input = plan->child(0);
      ctx.column = r.column;
      ctx.range = Interval(r.lo, r.hi, r.lo_inclusive, r.hi_inclusive);
      out->push_back(std::move(ctx));
    }
  }
  for (const PlanPtr& c : plan->children()) ExtractSelections(c, out);
}

}  // namespace

std::vector<PlanPtr> EnumerateViewCandidates(const PlanPtr& query) {
  std::vector<PlanPtr> out;
  if (query) Enumerate(query, &out);
  return out;
}

std::vector<SelectionContext> ExtractSelectionContexts(const PlanPtr& query) {
  std::vector<SelectionContext> out;
  ExtractSelections(query, &out);
  return out;
}

}  // namespace deepsea
