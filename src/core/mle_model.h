#ifndef DEEPSEA_CORE_MLE_MODEL_H_
#define DEEPSEA_CORE_MLE_MODEL_H_

#include <vector>

#include "common/math_util.h"
#include "core/decay.h"
#include "core/interval.h"
#include "core/view_stats.h"

namespace deepsea {

/// Configuration of the probabilistic fragment benefit model (Section
/// 7.1, "Probabilistic Fragment Benefit Model").
struct MleConfig {
  /// Target number of equi-size "parts" the attribute domain is split
  /// into. The actual count is adjusted so no part is partially
  /// contained in a fragment (see ChoosePartCount).
  int target_parts = 32;
  /// Hard upper bound on the number of parts (guards degenerate
  /// boundary layouts).
  int max_parts = 4096;
  /// Robustness guard: when the fitted standard deviation exceeds this
  /// fraction of the domain width, the access pattern is too dispersed
  /// for a single Normal (e.g. Zipf-scattered hot spots, Fig. 8b) and
  /// Adjust falls back to the raw decayed hit counts, making the model
  /// degrade to Nectar-style counting instead of mispredicting.
  double max_stddev_fraction = 0.15;
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
class MleFragmentModel {
 public:
  explicit MleFragmentModel(MleConfig config = MleConfig()) : cfg_(config) {}

  /// Result of one smoothing pass over a partition's fragments.
  struct AdjustedHits {
    /// Adjusted hit count per input fragment, aligned with the input.
    std::vector<double> hits;
    /// Total decayed hits across the partition (H_total).
    double total = 0.0;
    /// The fitted distribution (valid=false when there were no hits, in
    /// which case `hits` are all zero).
    NormalFit fit;
  };

  /// Computes H_A for every fragment of a partition over `domain`.
  /// `t_now` and `dec` define the decayed hit counts H(I).
  ///
  /// `bases`, when non-null, is parallel to `fragments` and supplies
  /// each fragment's shared-pool base (nullptr entries for fragments
  /// without one). This is the PlanningDelta shadow-partition shape:
  /// a shadow fragment holds only the query-local hit suffix, and its
  /// base holds the history. Hits are then evaluated base-first, local
  /// second — the order a folded in-place fragment stores them — so the
  /// fit is bit-identical to running Adjust after the fold.
  ///
  /// Each hit list is replayed once, from FragmentStats::LiveHitsBegin:
  /// a fit visits each in-window hit one time, adding it to H(I) and
  /// spreading it over the parts, not every hit ever recorded.
  AdjustedHits Adjust(const std::vector<FragmentStats>& fragments,
                      const Interval& domain, double t_now,
                      const DecayFunction& dec,
                      const std::vector<const FragmentStats*>* bases =
                          nullptr) const;

  /// Chooses an equi-size part width such that every fragment boundary
  /// (approximately) aligns with a part boundary: the greatest
  /// divisor-like grid no coarser than cfg.target_parts, capped at
  /// cfg.max_parts. Exposed for testing.
  int ChoosePartCount(const std::vector<FragmentStats>& fragments,
                      const Interval& domain) const;

 private:
  MleConfig cfg_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_MLE_MODEL_H_
