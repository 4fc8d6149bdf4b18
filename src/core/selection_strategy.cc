#include "core/selection_strategy.h"

#include <algorithm>

namespace deepsea {

namespace {

using CandKind = SelectionCandidate::Kind;

/// Emits the declarative decision from the admitted flags: rejected
/// pool content becomes evictions first, then admitted new content
/// becomes materializations, both in sorted order.
SelectionDecision BuildDecision(const std::vector<SelectionCandidate>& sorted,
                                const std::vector<char>& admitted) {
  SelectionDecision decision;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (admitted[i]) continue;
    const SelectionCandidate& it = sorted[i];
    if (it.kind == CandKind::kPoolWhole) {
      SelectionAction a;
      a.kind = SelectionAction::Kind::kEvictWholeView;
      a.view = it.view;
      a.size_bytes = it.size;
      decision.actions.push_back(a);
    } else if (it.kind == CandKind::kPoolFragment) {
      SelectionAction a;
      a.kind = SelectionAction::Kind::kEvictFragment;
      a.view = it.view;
      a.part = it.part;
      a.interval = it.interval;
      a.size_bytes = it.size;
      decision.actions.push_back(a);
    }
  }
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (!admitted[i]) continue;
    const SelectionCandidate& it = sorted[i];
    SelectionAction a;
    a.view = it.view;
    a.part = it.part;
    a.interval = it.interval;
    a.size_bytes = it.size;
    switch (it.kind) {
      case CandKind::kNewView:
        a.kind = SelectionAction::Kind::kMaterializeView;
        break;
      case CandKind::kNewViewFragment:
        a.kind = SelectionAction::Kind::kMaterializeViewFragment;
        break;
      case CandKind::kNewFragment:
        a.kind = SelectionAction::Kind::kMaterializeRefinement;
        break;
      default:
        continue;  // pool content that stays: nothing to do
    }
    decision.actions.push_back(a);
  }
  return decision;
}

}  // namespace

SelectionResolution ResolveGreedy(const SelectionInput& input) {
  SelectionResolution res;
  res.items_considered = static_cast<int>(input.items.size());
  // Value-descending stable order — ties keep the planner's
  // construction order, which is what pins the goldens.
  std::vector<SelectionCandidate> sorted = input.items;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const SelectionCandidate& a, const SelectionCandidate& b) {
                     return a.value > b.value;
                   });
  std::vector<char> admitted(sorted.size(), 0);
  double budget = input.budget_bytes;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i].size <= budget) {
      admitted[i] = 1;
      budget -= sorted[i].size;
      res.objective_value += sorted[i].value;
    } else {
      res.contended = true;
    }
  }
  res.decision = BuildDecision(sorted, admitted);
  return res;
}

}  // namespace deepsea
