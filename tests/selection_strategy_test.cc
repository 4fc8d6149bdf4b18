// Tests for the §7.3 greedy knapsack, ResolveGreedy
// (core/selection_strategy.h): it reproduces the historical inline
// scan exactly — action by action, including the float accumulation
// order of the objective (the golden trace tests pin the end-to-end
// bit-identity) — flags contention, and emits evictions before
// materializations.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/selection_strategy.h"

namespace deepsea {
namespace {

using CandKind = SelectionCandidate::Kind;
using ActKind = SelectionAction::Kind;

// --- equivalence with the historical inline scan ---

SelectionCandidate Item(CandKind kind, double value, double size,
                        double lo = 0.0, double hi = 0.0) {
  SelectionCandidate c;
  c.kind = kind;
  c.value = value;
  c.size = size;
  c.interval = Interval(lo, hi);
  return c;
}

/// The historical inline implementation, verbatim: stable sort by
/// value descending, admit while it fits, evict rejected pool content
/// first, then materialize admitted new content. `objective` receives
/// the admitted values summed in scan order.
SelectionDecision HistoricalGreedy(std::vector<SelectionCandidate> items,
                                   double budget, double* objective) {
  std::stable_sort(items.begin(), items.end(),
                   [](const SelectionCandidate& a, const SelectionCandidate& b) {
                     return a.value > b.value;
                   });
  std::vector<const SelectionCandidate*> admit;
  std::vector<const SelectionCandidate*> reject;
  for (const SelectionCandidate& it : items) {
    if (it.size <= budget) {
      admit.push_back(&it);
      budget -= it.size;
      *objective += it.value;
    } else {
      reject.push_back(&it);
    }
  }
  SelectionDecision decision;
  for (const SelectionCandidate* it : reject) {
    if (it->kind == CandKind::kPoolWhole) {
      SelectionAction a;
      a.kind = ActKind::kEvictWholeView;
      a.view = it->view;
      a.size_bytes = it->size;
      decision.actions.push_back(a);
    } else if (it->kind == CandKind::kPoolFragment) {
      SelectionAction a;
      a.kind = ActKind::kEvictFragment;
      a.view = it->view;
      a.part = it->part;
      a.interval = it->interval;
      a.size_bytes = it->size;
      decision.actions.push_back(a);
    }
  }
  for (const SelectionCandidate* it : admit) {
    SelectionAction a;
    a.view = it->view;
    a.part = it->part;
    a.interval = it->interval;
    a.size_bytes = it->size;
    switch (it->kind) {
      case CandKind::kNewView:
        a.kind = ActKind::kMaterializeView;
        break;
      case CandKind::kNewViewFragment:
        a.kind = ActKind::kMaterializeViewFragment;
        break;
      case CandKind::kNewFragment:
        a.kind = ActKind::kMaterializeRefinement;
        break;
      default:
        continue;
    }
    decision.actions.push_back(a);
  }
  return decision;
}

SelectionInput RandomInstance(uint64_t seed, int items,
                              double budget_fraction) {
  Rng rng(seed);
  SelectionInput in;
  double total = 0.0;
  for (int i = 0; i < items; ++i) {
    SelectionCandidate c;
    c.kind = static_cast<CandKind>(rng.UniformInt(0, 4));
    c.value = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(0.1, 100.0);
    c.size = rng.Uniform(1e6, 5e8);
    if (c.kind == CandKind::kNewFragment ||
        c.kind == CandKind::kNewViewFragment) {
      const double lo = rng.Uniform(0.0, 350000.0);
      c.interval = Interval(lo, lo + rng.Uniform(1000.0, 50000.0));
    }
    total += c.size;
    in.items.push_back(c);
  }
  in.budget_bytes = budget_fraction * total;
  return in;
}

TEST(GreedyStrategyTest, BitIdenticalToHistoricalInlineScan) {
  for (uint64_t seed : {1u, 2u, 3u, 40u, 500u}) {
    SelectionInput in = RandomInstance(seed, 64, 0.4);
    double objective = 0.0;
    const SelectionDecision expected =
        HistoricalGreedy(in.items, in.budget_bytes, &objective);
    const SelectionResolution res = ResolveGreedy(in);
    // Exact equality, including the float accumulation order — this is
    // the resolver-level half of the golden-trace bit-identity pin.
    EXPECT_EQ(res.objective_value, objective);
    ASSERT_EQ(res.decision.actions.size(), expected.actions.size());
    for (size_t i = 0; i < expected.actions.size(); ++i) {
      EXPECT_EQ(res.decision.actions[i].kind, expected.actions[i].kind) << i;
      EXPECT_EQ(res.decision.actions[i].interval, expected.actions[i].interval)
          << i;
      EXPECT_EQ(res.decision.actions[i].size_bytes,
                expected.actions[i].size_bytes)
          << i;
    }
    EXPECT_EQ(res.items_considered, static_cast<int>(in.items.size()));
  }
}

TEST(GreedyStrategyTest, UncontendedKnapsackAdmitsEverythingUnflagged) {
  SelectionInput in;
  in.items.push_back(Item(CandKind::kNewFragment, 5.0, 100.0));
  in.items.push_back(Item(CandKind::kPoolFragment, 1.0, 100.0));
  in.budget_bytes = 1000.0;
  const SelectionResolution res = ResolveGreedy(in);
  EXPECT_FALSE(res.contended);
  // Admitted pool content needs no action; the new fragment is the
  // only materialization.
  ASSERT_EQ(res.decision.actions.size(), 1u);
  EXPECT_EQ(res.decision.actions[0].kind, ActKind::kMaterializeRefinement);
  EXPECT_EQ(res.objective_value, 6.0);
}

TEST(GreedyStrategyTest, EvictionsPrecedeMaterializations) {
  SelectionInput in;
  in.items.push_back(Item(CandKind::kPoolWhole, 1.0, 600.0));
  in.items.push_back(Item(CandKind::kNewView, 9.0, 500.0));
  in.items.push_back(Item(CandKind::kPoolFragment, 0.5, 300.0, 10.0, 20.0));
  in.budget_bytes = 800.0;
  const SelectionResolution res = ResolveGreedy(in);
  EXPECT_TRUE(res.contended);
  // Value order: new view (9) admitted, pool whole (1) no longer fits,
  // pool fragment (0.5) fits the residual. Evictions come first.
  ASSERT_EQ(res.decision.actions.size(), 2u);
  EXPECT_EQ(res.decision.actions[0].kind, ActKind::kEvictWholeView);
  EXPECT_EQ(res.decision.actions[1].kind, ActKind::kMaterializeView);
  EXPECT_EQ(res.objective_value, 9.5);
}

}  // namespace
}  // namespace deepsea
