#ifndef DEEPSEA_CORE_PART_MASS_H_
#define DEEPSEA_CORE_PART_MASS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
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
/// the sum exactly when DEC(t(), t_k) > 0. The ledger lists those hits
/// by time, so expiry pops a prefix even when a fragment enters with
/// old hits (a V_sel piece inherits the pieces it covers' histories).
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
  /// between. `fragments` is the list the mass covers.
  void SumsAt(const std::vector<FragmentStats>& fragments,
              const DecayFunction& dec, double t_now,
              std::vector<Sum>* out) const;

  /// Same sums, window, grid, ledger and covered hit counts.
  bool operator==(const PartMass& other) const;

 private:
  /// One in-sum hit: fragments[frag].hits()[hit], recorded at `time`.
  struct Entry {
    double time;
    uint32_t frag;
    uint32_t hit;
    bool operator<(const Entry& o) const {
      if (time != o.time) return time < o.time;
      if (frag != o.frag) return frag < o.frag;
      return hit < o.hit;
    }
    bool operator==(const Entry& o) const {
      return time == o.time && frag == o.frag && hit == o.hit;
    }
  };

  /// Same decay as far as the sums go (t_max matters only with decay on).
  static bool SameDecay(const DecayConfig& a, const DecayConfig& b) {
    return a.enabled == b.enabled && (!a.enabled || a.t_max == b.t_max);
  }
  /// Adds hit k of fragment i to the sums (and the ledger) when it is in
  /// the window at t_. Rebuild sorts the ledger once; updates insert in
  /// place (`sorted_insert`).
  void AddHit(const std::vector<FragmentStats>& fragments, size_t i, size_t k,
              const DecayFunction& dec, bool sorted_insert);
  void AddSpread(const std::vector<FragmentStats>& fragments, const Entry& e,
                 int sign, Sum* sums) const;

  PartGrid grid_;
  DecayConfig decay_;
  double t_ = 0.0;
  std::vector<Sum> sums_;
  /// In-sum hits in (time, frag, hit) order from head_ on; entries
  /// before head_ have expired. Empty with decay off (nothing expires).
  std::vector<Entry> ledger_;
  size_t head_ = 0;
  /// Per fragment: hits covered, and the hit list's generation then.
  std::vector<uint32_t> covered_;
  std::vector<uint32_t> generation_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_PART_MASS_H_
