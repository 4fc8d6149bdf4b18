#ifndef DEEPSEA_CORE_VIEW_STATS_H_
#define DEEPSEA_CORE_VIEW_STATS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/decay.h"
#include "core/interval.h"

namespace deepsea {

/// One "this view could have answered query Q at time t, saving s
/// seconds" observation (an element of the paper's B / T lists).
/// `tenant` attributes the observation to the workload that produced it
/// (an ordinal interned by PoolManager; 0 is the default tenant), so a
/// shared pool can report which tenant's queries earned a view its
/// place — and who loses when it is evicted.
struct BenefitEvent {
  double time = 0.0;    ///< logical timestamp (query index)
  double saving = 0.0;  ///< COST(Q) - COST(Q/V), in simulated seconds
  int32_t tenant = 0;   ///< interned tenant ordinal (0 = default)
};

/// Statistics kept per view (candidate or materialized): the tuple
/// (S, COST, T, B) of Definition 5 plus bookkeeping flags.
///
/// The event list is append-only through the mutators below, which
/// maintain three incremental caches so the Φ hot path need not replay
/// history (see DESIGN.md, "Statistics hot path and locking
/// discipline"):
///  * `undecayed_sum_` — running sum of savings in append order, so the
///    decay-off evaluation is O(1) and bit-identical to the naive loop
///    (same additions, same order);
///  * `last_use_` — running max of event times (O(1) LastUse);
///  * a timed-out-prefix cursor {win_begin_, win_t_, win_tmax_}:
///    entries [0, win_begin_) are known to satisfy
///    t_now - time > t_max for every t_now >= win_t_ under t_max ==
///    win_tmax_, so evaluations may start summing at win_begin_.
///    Skipping the prefix is bit-identical to naive replay: each
///    skipped term contributes saving * 0.0 == +0.0 to a +0.0
///    accumulator. The cursor only advances inside the pool's
///    exclusive commit section (AdvanceWindow); evaluation under the
///    shared lock is strictly const.
struct ViewStats {
  /// S(V): storage size in bytes. Estimated until first materialization.
  double size_bytes = 0.0;
  /// COST(V): creation cost in simulated seconds (estimate replaced by
  /// the actual cost after the first instrumented execution).
  double creation_cost = 0.0;
  bool size_is_actual = false;
  bool cost_is_actual = false;

  /// Timestamped potential savings (the paper's T and B lists).
  const std::vector<BenefitEvent>& events() const { return events_; }

  /// Appends one observation. Engine paths append in commit-clock
  /// order; the debug assert documents (and enforces) that invariant.
  void RecordUse(double time, double saving, int32_t tenant = 0) {
    assert(time >= last_use_ && "benefit events must be appended in time order");
    AppendEvent({time, saving, tenant});
  }

  /// Appends one observation without the time-order assert. State
  /// restore may merge a snapshot into a view that already has newer
  /// events; the caches stay exact either way (running max / running
  /// sum do not require order).
  void AppendEvent(const BenefitEvent& e) {
    events_.push_back(e);
    undecayed_sum_ += e.saving;
    if (e.time > last_use_) last_use_ = e.time;
  }

  /// Accumulated decayed benefit B(V, t_now) = sum of saving * DEC.
  /// Phi(V) always credits the whole benefit regardless of which tenant
  /// earned it — the pool optimizes aggregate workload cost.
  double AccumulatedBenefit(double t_now, const DecayFunction& dec) const;

  /// B(V, t_now) restricted to one tenant's events.
  double AccumulatedBenefitForTenant(double t_now, const DecayFunction& dec,
                                     int32_t tenant) const;

  /// Attribution breakdown of AccumulatedBenefit by tenant ordinal.
  /// Values sum to AccumulatedBenefit (same summation order per tenant,
  /// so the per-tenant parts are exact, not re-derived estimates).
  std::map<int32_t, double> AccumulatedBenefitByTenant(
      double t_now, const DecayFunction& dec) const;

  /// Undecayed accumulated benefit N(V) (used by Nectar+, Section 10.1).
  double UndecayedBenefit() const { return undecayed_sum_; }

  /// Timestamp of the most recent use, or 0 when never used. O(1):
  /// maintained as a running max by the mutators.
  double LastUse() const { return last_use_; }

  /// The paper's view value Phi(V, t_now) = COST * B / S. Views with
  /// zero size rank highest among equal-benefit views (guarded division).
  double Value(double t_now, const DecayFunction& dec) const;

  /// Advances the timed-out-prefix cursor to `t_now`. Must only be
  /// called while holding the pool's exclusive commit lock (the cursor
  /// is read concurrently by planners under the shared lock).
  void AdvanceWindow(double t_now, const DecayFunction& dec);

  // --- naive-replay reference implementations -----------------------
  // Retained verbatim from the pre-incremental code as the oracle for
  // the bit-identity tests (tests/view_stats_test.cc). Not used on any
  // hot path.
  double AccumulatedBenefitNaive(double t_now, const DecayFunction& dec) const;
  double UndecayedBenefitNaive() const;
  double LastUseNaive() const;

 private:
  std::vector<BenefitEvent> events_;
  double undecayed_sum_ = 0.0;
  double last_use_ = 0.0;
  size_t win_begin_ = 0;    ///< entries [0, win_begin_) expired at win_t_
  double win_t_ = 0.0;      ///< time the cursor was last advanced to
  double win_tmax_ = -1.0;  ///< t_max the cursor was computed under
};

/// One recorded access to a fragment: the timestamp (an element of the
/// paper's T(I)) plus, when known, the part of the fragment the query
/// actually touched. The paper records timestamps only and spreads a
/// fragment's hits evenly over its extent when fitting the access
/// distribution; keeping the accessed sub-range (information the
/// matcher has anyway) makes the fitted distribution reflect the true
/// access pattern even when a query merely grazes a huge cold fragment.
struct FragmentHit {
  double time = 0.0;
  Interval range;
  bool has_range = false;
  int32_t tenant = 0;  ///< interned tenant ordinal (0 = default)
};

/// Statistics kept per fragment interval of a tracked partition: the
/// (S, T) pair of Definition 5. Benefit and cost are derived from the
/// owning view's stats (Section 7.1, "Fragment Statistics").
///
/// Hits carry the same incremental caches as ViewStats events: a
/// running last-hit max, and a timed-out-prefix cursor so H(I) sums
/// only the in-window suffix (bit-identical to naive replay — skipped
/// terms are exact zeros). Merge passes and state restore splice
/// arbitrary hit vectors via AdoptHits/AppendHit, which rebuild or
/// extend the caches without assuming time order.
struct FragmentStats {
  Interval interval;
  /// S(I) in bytes; estimated for candidates, actual once materialized.
  double size_bytes = 0.0;
  bool materialized = false;

  /// Hits T(I): the fragment was or could have been used.
  const std::vector<FragmentHit>& hits() const { return hits_; }

  void RecordHit(double time, int32_t tenant = 0) {
    assert(time >= last_hit_ && "fragment hits must be appended in time order");
    AppendHit({time, Interval(), false, tenant});
  }
  void RecordHit(double time, const Interval& range, int32_t tenant = 0) {
    assert(time >= last_hit_ && "fragment hits must be appended in time order");
    AppendHit({time, range, true, tenant});
  }

  /// Appends one hit without the time-order assert (state restore,
  /// planning-delta folds).
  void AppendHit(const FragmentHit& h) {
    hits_.push_back(h);
    if (h.time > last_hit_) last_hit_ = h.time;
  }

  /// Replaces the whole hit list (merge passes concatenate the merged
  /// children's hits; new-view fragments inherit their parents' hits)
  /// and rebuilds the caches. The replacement need not be time-ordered.
  void AdoptHits(std::vector<FragmentHit> hits) {
    hits_ = std::move(hits);
    last_hit_ = 0.0;
    for (const FragmentHit& h : hits_) {
      if (h.time > last_hit_) last_hit_ = h.time;
    }
    win_begin_ = 0;
    win_t_ = 0.0;
    win_tmax_ = -1.0;
  }

  void ResetHits() { AdoptHits({}); }

  /// Decayed hit count H(I) = sum over hits of DEC(t_now, t).
  double DecayedHits(double t_now, const DecayFunction& dec) const;

  /// Index of the first hit an evaluation at (t_now, dec) must visit:
  /// the end of the certified timed-out prefix when the cursor is valid
  /// for that evaluation, else 0. Every hit before it weighs exactly
  /// DEC(t_now, t) == 0.0, so replays (DecayedHits, the MLE spread)
  /// may start here and stay bit-identical to a full replay.
  size_t LiveHitsBegin(double t_now, const DecayFunction& dec) const;

  /// H(I) restricted to one tenant's hits.
  double DecayedHitsForTenant(double t_now, const DecayFunction& dec,
                              int32_t tenant) const;

  /// Attribution breakdown of DecayedHits by tenant ordinal; values sum
  /// to DecayedHits.
  std::map<int32_t, double> DecayedHitsByTenant(double t_now,
                                                const DecayFunction& dec) const;

  /// Undecayed hit count |T(I)|.
  double RawHits() const { return static_cast<double>(hits_.size()); }

  /// Timestamp of the most recent hit, or 0 when never hit. O(1):
  /// maintained as a running max by the mutators.
  double LastHit() const { return last_hit_; }

  /// Fragment benefit per the paper:
  ///   B(I, t_now) = sum_hits (S(I)/S(V)) * COST(V) * DEC(t_now, t)
  /// where `hits` may be replaced by MLE-adjusted hits by the caller
  /// (pass `adjusted_hits` >= 0 to override the decayed hit count).
  double Benefit(double t_now, const DecayFunction& dec, double view_size,
                 double view_cost, double adjusted_hits = -1.0) const;

  /// Fragment value Phi(I, t_now) = COST(V) * B(I, t_now) / S(I).
  double Value(double t_now, const DecayFunction& dec, double view_size,
               double view_cost, double adjusted_hits = -1.0) const;

  /// Advances the timed-out-prefix cursor to `t_now`. Exclusive commit
  /// section only (see ViewStats::AdvanceWindow).
  void AdvanceWindow(double t_now, const DecayFunction& dec);

  // --- naive-replay reference implementations (test oracle) ---------
  double DecayedHitsNaive(double t_now, const DecayFunction& dec) const;
  double LastHitNaive() const;

 private:
  std::vector<FragmentHit> hits_;
  double last_hit_ = 0.0;
  size_t win_begin_ = 0;
  double win_t_ = 0.0;
  double win_tmax_ = -1.0;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_VIEW_STATS_H_
