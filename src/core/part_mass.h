#ifndef DEEPSEA_CORE_PART_MASS_H_
#define DEEPSEA_CORE_PART_MASS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/decay.h"
#include "core/interval.h"
#include "core/view_stats.h"

namespace deepsea {

/// The equi-size part grid the Section 7.1 fit spreads hits over.
struct PartGrid {
  Interval domain;
  int num_parts = 0;
  double part_width = 0.0;

  PartGrid() = default;
  PartGrid(const Interval& d, int n)
      : domain(d), num_parts(n), part_width(d.Width() / n) {}

  bool operator==(const PartGrid& other) const {
    return num_parts == other.num_parts && domain == other.domain;
  }
};

/// The time-weighted part mass of a partition in the pool (see
/// MleFragmentModel::RefreshPartMass): for every part p
/// of its MLE grid, the sum over the partition's in-window hits k of
/// t_k · spread_kp, where spread_kp is the share of hit k's region that
/// falls in part p. Inside the window DEC(t_now, t_k) = t_k / t_now
/// (Section 7.1), so a part's decayed mass at t_now is this sum divided
/// by t_now. With decay off every weight is 1 and the sum is Σ spread_kp.
///
/// Each term is rounded once to a FixedPoint integer and the sums are
/// kept in 128-bit integers, so appends, expiries, rebuilds and
/// rollbacks give the same bits in any order: a maintained sum equals a
/// rebuild from the hit lists exactly (tests/part_mass.h). A hit is in
/// the sum exactly when DEC(t(), t_k) > 0. Each fragment's hit list is
/// in time order and DEC(t, t_k) > 0 is monotone in t_k, so a
/// fragment's in-sum hits are the covered suffix from one index on
/// (`first_`), and expiry walks each fragment's list from there. A
/// fragment that enters with old hits (a V_sel piece inherits the
/// pieces it covers' histories) starts its suffix at its first live
/// one. While the oldest in-sum hit (`oldest_`) is in the window, every
/// in-sum hit is, so expiry walks the fragments only once it leaves.
///
/// Only PoolManager mutates a kept mass, inside commit sections; planners
/// read it under the shared lock (MleFragmentModel::Adjust).
class PartMass {
 public:
  using Sum = FixedPoint::Sum;

  /// Adds `sign` (+1 or -1) times the fixed-point terms of `hit`,
  /// recorded on a fragment spanning `iv` and weighted by `scale` (the
  /// hit's time when time-weighted, else 1), to `sums` (one entry per
  /// part of `grid`). The hit spreads over the region the
  /// query touched (hit.range clamped to the fragment) when recorded,
  /// else over the whole fragment; a region of zero width puts its whole
  /// weight on the part containing it. The one definition of a hit's
  /// terms: the maintained sum and the from-scratch build both use it.
  static void Spread(const PartGrid& grid, const Interval& iv,
                     const FragmentHit& hit, double scale, int sign,
                     Sum* sums);

  /// True when a mass is kept (a rebuild happened since the last Clear).
  bool kept() const { return grid_.num_parts > 0; }
  const PartGrid& grid() const { return grid_; }
  /// The time whose window the sums cover.
  double t() const { return t_; }
  const std::vector<Sum>& sums() const { return sums_; }

  void Clear() { *this = PartMass(); }

  /// Rebuilds the sums over `fragments`' hits on `grid` at time `t`.
  void Rebuild(const std::vector<FragmentStats>& fragments,
               const PartGrid& grid, const DecayFunction& dec, double t);

  /// Brings a kept mass to time `t` (never back): expires the hits with
  /// DEC(t, t_k) == 0, then adds the hits appended to `fragments` since
  /// the last update. Returns false, changing nothing, when the mass
  /// cannot be updated in place: a hit list was replaced (AdoptHits),
  /// the fragment list shrank, or `dec` differs from the decay the mass
  /// was built under. The caller then rebuilds.
  bool Update(const std::vector<FragmentStats>& fragments,
              const DecayFunction& dec, double t);

  /// True when the mass covers `fragments` as they are now (no hit
  /// appended or replaced since the last update) on `grid` under `dec`,
  /// so SumsAt can answer for any t_now >= t().
  bool Covers(const std::vector<FragmentStats>& fragments,
              const PartGrid& grid, const DecayFunction& dec) const;

  /// The sums at t_now >= t(): sums() minus the hits that expired in
  /// between. `fragments` is the list the mass covers. O(parts) when no
  /// hit expired, else O(parts + fragments + hits expired).
  void SumsAt(const std::vector<FragmentStats>& fragments,
              const DecayFunction& dec, double t_now,
              std::vector<Sum>* out) const;

  /// Same sums, window, grid, in-sum hits, oldest in-sum time and
  /// covered hit counts.
  bool operator==(const PartMass& other) const;

 private:
  /// Same decay as far as the sums go (t_max matters only with decay on).
  static bool SameDecay(const DecayConfig& a, const DecayConfig& b) {
    return a.enabled == b.enabled && (!a.enabled || a.t_max == b.t_max);
  }
  /// Adds fragment i's hits from index k on that are in the window at
  /// t_ to the sums, and covers its whole list.
  void AddHits(const std::vector<FragmentStats>& fragments, size_t i,
               size_t k, const DecayFunction& dec);
  /// Subtracts from `sums` fragment i's in-sum hits that are out of the
  /// window at `t`; returns the index of its first hit left in. With
  /// decay off DEC is 1 and nothing leaves, so every term subtracted is
  /// time-weighted.
  size_t Expire(const std::vector<FragmentStats>& fragments, size_t i,
                const DecayFunction& dec, double t, Sum* sums) const;

  PartGrid grid_;
  DecayConfig decay_;
  double t_ = 0.0;
  std::vector<Sum> sums_;
  /// Per fragment: its in-sum hits are [first_, covered_) of its list;
  /// the hit list's generation when covered.
  std::vector<uint32_t> first_;
  std::vector<uint32_t> covered_;
  std::vector<uint32_t> generation_;
  /// The time of the oldest in-sum hit (+inf when none): while it is in
  /// the window, every in-sum hit is, and expiry need not walk.
  double oldest_ = std::numeric_limits<double>::infinity();
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_PART_MASS_H_
