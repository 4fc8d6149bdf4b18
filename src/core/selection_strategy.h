#ifndef DEEPSEA_CORE_SELECTION_STRATEGY_H_
#define DEEPSEA_CORE_SELECTION_STRATEGY_H_

#include <array>
#include <vector>

#include "core/engine_options.h"
#include "core/interval.h"

namespace deepsea {

struct ViewInfo;
struct PartitionState;

/// One pool mutation chosen by selection. View pointers are stable
/// (ViewCatalog stores views behind unique_ptr, and delta-owned views
/// keep their address across the fold). Partition pointers may
/// reference the query's PlanningDelta shadows — PoolManager::Apply
/// remaps them onto the real partitions after folding the delta —
/// and fragment entries are re-resolved by interval at apply time
/// because applying earlier actions may grow the fragment vectors.
struct SelectionAction {
  enum class Kind {
    kEvictWholeView,           ///< drop an NP-style whole view
    kEvictFragment,            ///< drop one materialized fragment
    kMaterializeView,          ///< whole-view creation (unpartitioned)
    kMaterializeViewFragment,  ///< one fragment of a view's initial partitioning
    kMaterializeRefinement,    ///< refinement of an existing partition
  };
  Kind kind;
  ViewInfo* view = nullptr;
  PartitionState* part = nullptr;  ///< null for whole-view actions
  Interval interval;               ///< unused for whole-view actions
  /// Estimated bytes: the pool growth of a materialize action, or the
  /// pool bytes an evict action releases (its tracked size).
  double size_bytes = 0.0;
};

/// The declarative outcome of one selection round (Section 7.3): the
/// actions are ordered for application — evictions first (freeing the
/// simulated FS), then materializations in value order.
/// PoolManager::Apply executes them; nothing is mutated in the pool
/// until then.
struct SelectionDecision {
  std::vector<SelectionAction> actions;

  bool empty() const { return actions.empty(); }
};

/// One knapsack item: a candidate pool mutation (new view / fragment)
/// or a piece of existing pool content re-bidding for its spot
/// (Section 7.3's ALLCAND). Built by SelectionPlanner. The knapsack
/// reads only the plain fields; `view`/`part` are opaque handles the
/// resulting actions carry through to Apply.
struct SelectionCandidate {
  enum class Kind {
    kPoolFragment,     ///< materialized fragment already in the pool
    kPoolWhole,        ///< whole view already in the pool
    kNewView,          ///< whole-view creation (unpartitioned)
    kNewViewFragment,  ///< one fragment of a view's initial partitioning
    kNewFragment,      ///< refinement of an existing partition
  };
  Kind kind;
  double value = 0.0;  ///< Φ ranking value (model-dependent)
  double size = 0.0;   ///< pool bytes the item occupies if admitted
  ViewInfo* view = nullptr;
  PartitionState* part = nullptr;
  Interval interval;
};

/// The knapsack's input: the candidate items in the planner's
/// deterministic construction order and the byte budget (S_max).
struct SelectionInput {
  std::vector<SelectionCandidate> items;
  double budget_bytes = 0.0;
};

/// The knapsack's result: the declarative decision plus the telemetry
/// the engine surfaces through QueryReport.
struct SelectionResolution {
  SelectionDecision decision;
  /// True when the knapsack was contended — at least one item was
  /// rejected. The planner promotes the pool sweep's soft reads into
  /// the validated read footprint exactly in this case (an uncontended
  /// knapsack admits everything regardless of the swept values).
  bool contended = false;
  /// Summed Φ of every admitted item, pool content included.
  double objective_value = 0.0;
  /// Items the scan ranked.
  int items_considered = 0;
  /// View candidates the planner's realized-return gate withheld, by
  /// the kind of repeat creation each would have been (set by
  /// SelectionPlanner, not by the knapsack; `first` stays 0).
  std::array<int, kCreationKindCount> creations_withheld_by_kind{};
};

/// The paper's §7.3 greedy knapsack as a pure, deterministic function:
/// items are ranked by value (stable — ties keep construction order)
/// and admitted while they fit the budget. Rejected pool content
/// becomes evictions, emitted first; admitted new content becomes
/// materializations, in rank order. No pool, STAT or catalog access,
/// no clock, no RNG, and nothing ordered by pointer value, so equal
/// inputs always give equal decisions (the golden traces pin it).
SelectionResolution ResolveGreedy(const SelectionInput& input);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_SELECTION_STRATEGY_H_
