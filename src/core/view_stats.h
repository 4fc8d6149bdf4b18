#ifndef DEEPSEA_CORE_VIEW_STATS_H_
#define DEEPSEA_CORE_VIEW_STATS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/decay.h"
#include "core/interval.h"

namespace deepsea {

/// One "this view could have answered query Q at time t, saving s
/// seconds" observation (an element of the paper's B / T lists).
/// Observations name no tenant: Φ(V) credits B(V, t) whichever
/// tenant's queries earned it (Def. 5).
struct BenefitEvent {
  double time = 0.0;    ///< logical timestamp (query index)
  double saving = 0.0;  ///< COST(Q) - COST(Q/V), in simulated seconds
};

/// Statistics kept per view (candidate or materialized): the tuple
/// (S, COST, T, B) of Definition 5. The value
/// model over them is PlanningDelta::ViewValue.
///
/// The event list is kept in time order at every write, as a
/// fragment's hits are (DESIGN.md §9, "Incremental decayed
/// statistics"), so the Φ hot path need not replay history:
///  * `undecayed_sum_` is the sum of savings in list order, so the
///    decay-off evaluation is O(1) and bit-identical to the naive loop
///    (same additions, same order);
///  * the events DEC weighs 0.0 at t_now (t_now - time > t_max) are a
///    prefix of the list, so AccumulatedBenefit binary-searches the
///    first live event and sums from there. Skipping the prefix is
///    bit-identical to naive replay: each skipped term contributes
///    saving * 0.0 == +0.0 to a +0.0 accumulator.
/// Readers keep no position, so every read is strictly const.
struct ViewStats {
  /// S(V): storage size in bytes. Estimated until first materialization.
  double size_bytes = 0.0;
  /// COST(V): creation cost in simulated seconds (estimate replaced by
  /// the actual cost after the first instrumented execution).
  double creation_cost = 0.0;

  /// Timestamped potential savings (the paper's T and B lists).
  const std::vector<BenefitEvent>& events() const { return events_; }

  /// Appends one observation. Engine paths append in commit-clock
  /// order; the debug assert documents (and enforces) that invariant.
  void RecordUse(double time, double saving) {
    assert(time >= LastUse() &&
           "benefit events must be appended in time order");
    AppendEvent({time, saving});
  }

  /// Appends one observation without the time-order assert (state
  /// restore, planning-delta folds). An event earlier than the last one
  /// is inserted after every event of its time or earlier, and the
  /// undecayed sum is rebuilt in the new order; only a LoadState merge
  /// into a view that already has newer events appends one.
  void AppendEvent(const BenefitEvent& e) {
    if (!events_.empty() && e.time < events_.back().time) {
      InsertLateEvent(e);
      return;
    }
    events_.push_back(e);
    undecayed_sum_ += e.saving;
  }

  /// Accumulated decayed benefit B(V, t_now) = sum of saving * DEC.
  double AccumulatedBenefit(double t_now, const DecayFunction& dec) const;

  /// Undecayed accumulated benefit N(V) (used by Nectar+, Section 10.1).
  double UndecayedBenefit() const { return undecayed_sum_; }

  /// Timestamp of the most recent use, or 0 when never used (or when
  /// every use is at a negative time). O(1): the list is in time order.
  double LastUse() const {
    return events_.empty() ? 0.0 : std::max(0.0, events_.back().time);
  }

  // --- naive-replay reference implementations -----------------------
  // Retained verbatim from the pre-incremental code as the oracle for
  // the bit-identity tests (tests/view_stats_test.cc). Not used on any
  // hot path.
  double AccumulatedBenefitNaive(double t_now, const DecayFunction& dec) const;
  double UndecayedBenefitNaive() const;
  double LastUseNaive() const;

 private:
  void InsertLateEvent(const BenefitEvent& e);

  std::vector<BenefitEvent> events_;
  double undecayed_sum_ = 0.0;
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
};

/// Statistics kept per fragment interval of a tracked partition: the
/// (S, T) pair of Definition 5. Benefit and cost are derived from the
/// owning view's stats (Section 7.1, "Fragment Statistics";
/// PlanningDelta::FragmentValue).
///
/// The hit list is kept in time order at every write (a late hit, or an
/// adopted history, goes through AdoptHits' stable sort). DEC(t_now, t)
/// > 0 is monotone in t, so the hits a read at t_now weighs are a
/// suffix of the list, whatever t_now and t_max are. H(I) is one
/// division of an exact sum (DESIGN.md §9, "Incremental decayed
/// statistics"): inside the window DEC(t_now, t_k) = t_k / t_now, so
/// H(I) = (Σ_k Q(t_k)) / t_now over that suffix, where Q is
/// FixedPoint::Quantize. The fragment keeps one position, `win_begin_`
/// (moved by AdvanceWindow to the first hit live at the commit's time),
/// and `live_sum_`, the exact sum of Q(t_k) over hits [win_begin_, end)
/// with t_k >= 0. A read walks from win_begin_ to its own first live
/// hit, forward or back, subtracting or adding the hits it passes:
/// O(hits whose liveness changed since the position last moved). Every
/// read equals DecayedHitsNaive bit for bit.
struct FragmentStats {
  Interval interval;
  /// S(I) in bytes; estimated for candidates, actual once materialized.
  double size_bytes = 0.0;
  bool materialized = false;

  /// Hits T(I), in time order: the fragment was or could have been used.
  const std::vector<FragmentHit>& hits() const { return hits_; }

  void RecordHit(double time) {
    assert(time >= LastHit() && "fragment hits must be appended in time order");
    AppendHit({time, Interval(), false});
  }
  void RecordHit(double time, const Interval& range) {
    assert(time >= LastHit() && "fragment hits must be appended in time order");
    AppendHit({time, range, true});
  }

  /// Appends one hit without the time-order assert (state restore,
  /// planning-delta folds). A hit earlier than the last one is sorted
  /// into place by AdoptHits; no engine path appends one, because a
  /// plan that appends to a fragment has also read its partition.
  void AppendHit(const FragmentHit& h) {
    if (!hits_.empty() && h.time < hits_.back().time) {
      std::vector<FragmentHit> hits = std::move(hits_);
      hits.push_back(h);
      AdoptHits(std::move(hits));
      return;
    }
    hits_.push_back(h);
    if (h.time >= 0.0) live_sum_ += FixedPoint::Quantize(h.time);
  }

  /// Replaces the whole hit list (merge passes concatenate the merged
  /// children's hits; new-view fragments inherit their parents' hits)
  /// and rebuilds the caches. An unsorted replacement is sorted by time,
  /// stably (hits of equal time keep their order).
  void AdoptHits(std::vector<FragmentHit> hits);

  void ResetHits() { AdoptHits({}); }

  /// Decayed hit count H(I) = Σ over hits of DEC(t_now, t): |T(I)| with
  /// decay off, the count of unexpired hits at t_now <= 0 (DEC is 1),
  /// else LiveTimeSum(t_now, dec) divided once by t_now.
  double DecayedHits(double t_now, const DecayFunction& dec) const;

  /// H(I) of the fragment whose hit list is `base`'s followed by
  /// `local`'s (a planning shadow over its base; `base` may be null),
  /// equal bit for bit to DecayedHits on that concatenation: the two
  /// time sums are added, then divided once.
  static double DecayedHitsOf(const FragmentStats* base,
                              const FragmentStats& local, double t_now,
                              const DecayFunction& dec);

  /// H(I)'s numerator at t_now > 0 with decay on: the exact sum of
  /// Q(t_k) over the hits with DEC(t_now, t_k) > 0.
  FixedPoint::Sum LiveTimeSum(double t_now, const DecayFunction& dec) const;

  /// Index of the first hit with DEC(t_now, t) > 0 (0 with decay off):
  /// the hits from it on are those an evaluation at (t_now, dec) weighs,
  /// and every hit before it weighs exactly 0.0.
  size_t LiveHitsBegin(double t_now, const DecayFunction& dec) const;

  /// Undecayed hit count |T(I)|.
  double RawHits() const { return static_cast<double>(hits_.size()); }

  /// Timestamp of the most recent hit, or 0 when never hit (or when
  /// every hit is at a negative time). O(1): the list is in time order.
  double LastHit() const {
    return hits_.empty() ? 0.0 : std::max(0.0, hits_.back().time);
  }

  /// Counts AdoptHits calls: a cache over the hit list (PartMass) tells
  /// appends from a wholesale replacement by comparing it.
  uint32_t hits_generation() const { return hits_generation_; }

  /// Moves `win_begin_` to the first hit live at `t_now`. Must only be
  /// called while holding the pool's exclusive commit lock (the position
  /// is read concurrently by planners under the shared lock).
  void AdvanceWindow(double t_now, const DecayFunction& dec);

  // --- naive-replay reference implementations (test oracle) ---------
  /// H(I) by its definition: every hit replayed, no position and no
  /// running sum.
  double DecayedHitsNaive(double t_now, const DecayFunction& dec) const;
  double LastHitNaive() const;

 private:
  /// The first hit live at t_now under `dec` (decay on), found by
  /// walking from win_begin_; turns `*sum`, Σ Q(t_k) over [win_begin_,
  /// end), into the sum over [result, end).
  size_t WalkToLive(double t_now, const DecayFunction& dec,
                    FixedPoint::Sum* sum) const;

  std::vector<FragmentHit> hits_;
  /// Σ Q(t_k) over hits [win_begin_, end) with t_k >= 0.
  FixedPoint::Sum live_sum_ = 0;
  uint32_t hits_generation_ = 0;
  uint32_t win_begin_ = 0;
  /// Time of hit win_begin_ - 1 (unread while win_begin_ is 0): a read
  /// decides from it alone whether it must walk back.
  double expired_t_ = 0.0;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_VIEW_STATS_H_
