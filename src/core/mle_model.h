#ifndef DEEPSEA_CORE_MLE_MODEL_H_
#define DEEPSEA_CORE_MLE_MODEL_H_

#include <vector>

#include "common/math_util.h"
#include "core/decay.h"
#include "core/interval.h"
#include "core/part_mass.h"
#include "core/view_catalog.h"
#include "core/view_stats.h"

namespace deepsea {

/// Where a planning shadow partition's history lives (PlanningDelta):
/// the shared partition it shadows, and parallel to the shadow's
/// fragments each one's base fragment in it (nullptr for planner-added
/// fragments). Both are null for a partition read in place.
struct ShadowBases {
  const PartitionState* partition = nullptr;
  const std::vector<const FragmentStats*>* fragments = nullptr;
};

/// Implements the paper's fragment-correlation smoothing: treat decayed
/// hits on fragments as samples from a Normal access distribution over
/// the partition attribute's domain, fit N(mu, sigma) by maximum
/// likelihood (adjusted sample variance), and redistribute the total hit
/// mass across fragments through the fitted CDF:
///
///   H_A(I) = H_total * (P(x <= u) - P(x <= l))   for I = [l, u].
///
/// Fragments near hot spots thereby receive benefit even when their own
/// raw hit counts are low, which is what keeps "neighbors of hot
/// fragments" in the pool (Fig. 8a).
///
/// The model has no state: every member is static, and its parameters
/// are the constants below (Section 7.1, "Probabilistic Fragment
/// Benefit Model").
class MleFragmentModel {
 public:
  MleFragmentModel() = delete;

  /// Target number of equi-size "parts" the attribute domain is split
  /// into. The actual count is adjusted so no part is partially
  /// contained in a fragment (see ChoosePartCount).
  static constexpr int kTargetParts = 32;
  /// Hard upper bound on the number of parts (guards degenerate
  /// boundary layouts).
  static constexpr int kMaxParts = 4096;
  /// Robustness guard: when the fitted standard deviation exceeds this
  /// fraction of the domain width, the access pattern is too dispersed
  /// for a single Normal (e.g. Zipf-scattered hot spots, Fig. 8b) and
  /// Adjust falls back to the raw decayed hit counts, making the model
  /// degrade to Nectar-style counting instead of mispredicting.
  static constexpr double kMaxStddevFraction = 0.15;

  /// Result of one fit over a partition's fragments: the fitted Normal,
  /// H_total and each fragment's raw H(I). A fragment's H_A is computed
  /// when it is read (Of): the planner reads a few fragments per fit
  /// (the materialized ones and P_sel's candidates), not all of them.
  struct AdjustedHits {
    /// Decayed hits H(I) per input fragment, aligned with the input; all
    /// zero when the domain has no width.
    std::vector<double> raw;
    /// Total decayed hits across the partition (H_total).
    double total = 0.0;
    /// The fitted distribution (valid=false when there were no hits).
    NormalFit fit;
    /// True when H_A comes from the fit. False when there is nothing to
    /// smooth, or the fit is too dispersed (kMaxStddevFraction): H_A is
    /// then the raw H(I).
    bool smoothed = false;

    /// H_A of input fragment i, whose interval is `iv`:
    ///   H_total * max(0, P(x <= hi) - P(x <= lo))
    /// under the fit, or raw[i] when not smoothed.
    double Of(size_t i, const Interval& iv) const;
  };

  /// Fits the access distribution of `part` over its domain. `t_now`
  /// and `dec` define the decayed hit counts H(I).
  ///
  /// `bases` describes the PlanningDelta shadow-partition shape: a
  /// shadow fragment holds only the query-local hit suffix, and its base
  /// fragment in `bases.partition` holds the history. The fit equals the
  /// one run after the fold: H(I) and the part mass are exact integer
  /// sums (FixedPoint), so the order of base and local hits does not
  /// matter.
  ///
  /// H(I) is read from each fragment's running time sum
  /// (FragmentStats::DecayedHitsOf): O(hits whose liveness changed since
  /// the fragment's position last moved + local hits). The part mass comes from the
  /// partition's kept PartMass (the base partition's, for a shadow) when
  /// that mass covers the hit lists, the grid and `dec`, and t_now >= its
  /// time: it costs O(parts + fragments + hits expired since the mass's
  /// time + local hits). Otherwise every live hit is spread again
  /// (AdjustFromScratch). Both give the same bits.
  static AdjustedHits Adjust(const PartitionState& part, double t_now,
                             const DecayFunction& dec,
                             const ShadowBases& bases = ShadowBases());

  /// Adjust with the part mass built from every live hit, ignoring any
  /// kept mass: the fallback's arithmetic, and the oracle Adjust must
  /// equal bit for bit.
  static AdjustedHits AdjustFromScratch(
      const PartitionState& part, double t_now, const DecayFunction& dec,
      const ShadowBases& bases = ShadowBases());

  /// Brings the mass of `part`, when it holds pool content, up to time
  /// `t` under `dec`: in place when only appends and expiries happened,
  /// else by a rebuild (first pool entry, new grid, replaced hit list,
  /// changed decay). A partition out of the pool keeps its mass dormant
  /// (not advanced) until it re-enters. Commit sections only.
  static void RefreshPartMass(PartitionState* part, double t,
                              const DecayFunction& dec);

  /// The part grid of `part`: ChoosePartCount parts over its domain.
  static PartGrid GridOf(const PartitionState& part);

  /// Chooses an equi-size part width such that every fragment boundary
  /// (approximately) aligns with a part boundary: the greatest
  /// divisor-like grid no coarser than kTargetParts, capped at
  /// kMaxParts. Exposed for testing.
  static int ChoosePartCount(const std::vector<FragmentStats>& fragments,
                             const Interval& domain);

 private:
  static AdjustedHits Fit(const PartitionState& part, double t_now,
                          const DecayFunction& dec, const ShadowBases& bases,
                          bool use_kept_mass);
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_MLE_MODEL_H_
