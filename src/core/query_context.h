#ifndef DEEPSEA_CORE_QUERY_CONTEXT_H_
#define DEEPSEA_CORE_QUERY_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/interval.h"
#include "core/planning_delta.h"
#include "core/view_catalog.h"
#include "plan/plan.h"

namespace deepsea {

/// A view candidate of the current query (V_cand member, Definition 6).
/// `under_select` is true when the view's subplan feeds a selection of
/// this query — materializing such a view requires executing the query
/// without pushing that selection down (Section 10.2).
struct ViewCandidate {
  ViewInfo* view;
  bool under_select;
};

/// A fragment refinement candidate of the current query (P_cand,
/// Definition 7).
struct FragmentCandidate {
  ViewInfo* view;
  std::string attr;
  Interval interval;
  double est_bytes;
  double est_cost_seconds;
  /// Seconds saved per hit by reading this fragment instead of the
  /// current materialized cover of its interval. The admission filter
  /// uses this *marginal* saving (hits * per_hit_saving >= cost) rather
  /// than the paper's absolute fragment benefit, which would keep
  /// re-creating near-duplicates of already well-covered hot ranges;
  /// ranking/eviction still uses the paper's Phi.
  double per_hit_saving_seconds;
};

/// All per-query state of one ProcessQuery invocation, threaded through
/// the pipeline stages (RewritePlanner -> CandidateGenerator ->
/// SelectionPlanner -> PoolManager). Nothing here outlives the query:
/// constructing a fresh QueryContext per call is what makes
/// DeepSeaEngine::ProcessQuery re-entrant by construction.
class QueryContext {
 public:
  QueryContext(PlanPtr query_in, int64_t clock, std::string tenant = "",
               int32_t tenant_ord = 0)
      : query(std::move(query_in)),
        clock_(clock),
        tenant_(std::move(tenant)),
        tenant_ord_(tenant_ord) {}

  /// The logical timestamp of this query. With a shared pool this is
  /// the pool's global commit clock (the position of this query in the
  /// total commit order across all tenants), so decayed benefits age
  /// consistently no matter which tenant recorded them.
  int64_t clock() const { return clock_; }
  double t_now() const { return static_cast<double>(clock_); }

  /// Creates this query's PlanningDelta over an overlay of the shared
  /// catalog and the shared view registry. Must be called (under the
  /// pool's shared or exclusive commit lock) before the pipeline stages
  /// run: the stages buffer every statistics/catalog write here instead
  /// of mutating shared state, and PoolManager::Apply folds the buffer
  /// into the pool inside the commit section. With a `reservation`
  /// (the engine's lease on the pool's placeholder-id counter),
  /// TrackView names new candidate views without reading the shared
  /// view-id counter, so creating plans can commit sharded.
  void InitPlanning(const Catalog& catalog, ViewCatalog* views,
                    ViewIdReservation* reservation = nullptr) {
    delta_ = std::make_unique<PlanningDelta>(catalog, views, t_now(),
                                             reservation);
  }
  PlanningDelta* delta() const { return delta_.get(); }

  /// The tenant issuing this query ("" for a single-tenant engine) and
  /// its interned ordinal in the pool's tenant registry. Stage code
  /// stamps recorded benefit events and fragment hits with the ordinal.
  const std::string& tenant() const { return tenant_; }
  int32_t tenant_ord() const { return tenant_ord_; }

  /// The fragment cover read by this query's chosen rewriting.
  /// Repartitioning is "a by-product of query answering" (Section 2):
  /// refinement fragments extracted from parents the query read anyway
  /// are not charged a second read. The cover is kept sorted so the
  /// per-parent membership probe during repartitioning is O(log n)
  /// instead of a linear scan per pool fragment.
  void SetCover(const std::string& view_id, const std::string& attr,
                std::vector<Interval> cover) {
    cover_view_ = view_id;
    cover_attr_ = attr;
    cover_ = std::move(cover);
    std::sort(cover_.begin(), cover_.end(), CoverLess);
  }
  void ClearCover() {
    cover_view_.clear();
    cover_attr_.clear();
    cover_.clear();
  }
  const std::string& cover_view() const { return cover_view_; }
  const std::string& cover_attr() const { return cover_attr_; }
  const std::vector<Interval>& cover() const { return cover_; }

  /// True when `iv` is one of the cover's intervals (exact endpoint and
  /// openness match). O(log n) binary search over the sorted cover.
  bool CoverContains(const Interval& iv) const {
    auto it = std::lower_bound(cover_.begin(), cover_.end(), iv, CoverLess);
    return it != cover_.end() && *it == iv;
  }

  // --- per-query pipeline state (owned by the stages) ---

  PlanPtr query;                ///< the query as submitted
  PlanPtr base_plan;            ///< selection-pushed conventional plan
  PlanPtr executed_plan;        ///< plan actually "executed" (base or rewrite)

  std::vector<ViewCandidate> view_candidates;       ///< V_cand
  std::vector<FragmentCandidate> fragment_candidates;  ///< P_cand

 private:
  /// Total order on intervals (all four fields) so equal intervals — and
  /// only equal intervals — are neighbours under lower_bound.
  static bool CoverLess(const Interval& a, const Interval& b) {
    return std::tie(a.lo, a.lo_inclusive, a.hi, a.hi_inclusive) <
           std::tie(b.lo, b.lo_inclusive, b.hi, b.hi_inclusive);
  }

  int64_t clock_ = 0;
  std::string tenant_;
  int32_t tenant_ord_ = 0;
  std::unique_ptr<PlanningDelta> delta_;
  std::string cover_view_;
  std::string cover_attr_;
  std::vector<Interval> cover_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_QUERY_CONTEXT_H_
