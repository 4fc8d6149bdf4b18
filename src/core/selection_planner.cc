#include "core/selection_planner.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "core/partition_match.h"
#include "core/policy.h"
#include "core/view_sizing.h"

namespace deepsea {

SelectionResolution SelectionPlanner::PlanSelection(const QueryContext& ctx,
                                                    double base_seconds) {
  const double t_now = ctx.t_now();
  PlanningDelta* delta = ctx.delta();
  assert(delta != nullptr);
  Catalog* pcat = delta->planning_catalog();
  // Quarantined views (repeated permanent storage faults; see
  // DESIGN.md "Failure model and recovery") are skipped as *candidates*
  // until their cooldown expires, so the planner stops proposing work
  // that keeps failing. Their existing pool content still partakes in
  // the knapsack below: quarantine stops new writes, not reads.
  const int64_t clock_now = static_cast<int64_t>(t_now);

  using Item = SelectionCandidate;
  std::vector<Item> items;

  // --- V_sel: filter view candidates by benefit >= cost (Section 7.2).
  //     Partially materialized views stay eligible: their still-
  //     uncovered planned fragments are offered every query (top-up).
  for (const ViewCandidate& cand : ctx.view_candidates) {
    ViewInfo* v = cand.view;
    if (v->Quarantined(clock_now)) continue;
    if (v->stats.size_bytes <= 0.0) continue;
    const double benefit =
        delta->ViewBenefitForFilter(options_->value_model, v, *decay_);
    // Zero-benefit candidates (e.g. one-shot aggregate views that have
    // never matched another query) are never admitted, even when the
    // threshold is relaxed to force eager materialization.
    if (benefit <= 0.0 ||
        benefit < options_->benefit_cost_threshold * v->stats.creation_cost) {
      continue;
    }
    // With a partition, the view enters the selection as individual
    // fragments (the paper's "finer granularity of control", Section
    // 1): under a tight pool only the valuable (hot) fragments are
    // materialized. A view may carry partitions on several attributes
    // (Section 4 permits multiple partitions per view); each offers its
    // fragments independently.
    if (!delta->HasPartitions(v) ||
        options_->strategy == StrategyKind::kNoPartition) {
      if (v->whole_materialized) continue;
      Item it;
      it.kind = Item::Kind::kNewView;
      it.view = v;
      it.size = v->stats.size_bytes;
      it.value = delta->ViewValue(options_->value_model, v, *decay_);
      items.push_back(it);
      continue;
    }
    for (const std::string& attr : delta->PartitionAttrs(v)) {
      PartitionState* part = delta->Partition(v, attr);
      if (part == nullptr) continue;
      const std::vector<Interval> mats = part->MaterializedIntervals();
      const std::vector<Interval> planned = ApplyFragmentBounds(
          *pcat, *options_, *v, attr, part,
          InitialFragmentation(*pcat, *options_, *v, attr, *part));
      for (const Interval& iv : planned) {
        // Skip planned pieces whose extent the pool already covers
        // (exactly materialized, or covered by refinement fragments).
        if (!mats.empty() && PartitionMatch(mats, iv).ok()) continue;
        // Inherit hit history from tracked pieces the (possibly merged
        // or split) planned fragment covers, so hot planned fragments
        // carry their evidence into the ranking. EffectiveHits resolves
        // a shadow fragment's base history plus its local suffix.
        std::vector<FragmentHit> inherited;
        if (part->Find(iv) == nullptr) {
          for (const FragmentStats& p : part->fragments) {
            if (iv.Contains(p.interval)) {
              const std::vector<FragmentHit> eh = delta->EffectiveHits(part, &p);
              inherited.insert(inherited.end(), eh.begin(), eh.end());
            }
          }
        }
        const double bytes = FragmentBytes(*pcat, *v, attr, iv, part);
        FragmentStats* fstat = delta->TrackFragment(part, iv, bytes);
        if (fstat->hits().empty() && !inherited.empty()) {
          fstat->AdoptHits(std::move(inherited));
        }
        if (fstat->materialized) continue;
        fstat->size_bytes = bytes;
        // H(I) is computed once here and reused both by the top-up
        // filter and (through the adjusted-hits override) by the value
        // ranking below — FragmentValue would otherwise replay the same
        // hit list a second time.
        const double hits = delta->DecayedHits(part, fstat, *decay_);
        // Top-up filter: once the view is in the pool, adding a fragment
        // for a still-uncovered range requires recomputing the view's
        // query (Section 7.1: the cost of a fragment not in the pool is
        // the view's creation cost). Only top up when the accumulated
        // hits on the range amortize that (mirrors the P_sel filter);
        // initial creation admits the planned set as a unit.
        if (v->InPool()) {
          const double read_cost =
              cluster_->MapPhaseSeconds({fstat->size_bytes}) +
              2.0 * cluster_->config().job_startup_seconds;
          const double per_hit_saving =
              std::max(0.0, base_seconds - read_cost);
          if (hits * per_hit_saving <
              options_->fragment_benefit_threshold * v->stats.creation_cost) {
            continue;
          }
        }
        Item it;
        it.kind = Item::Kind::kNewViewFragment;
        it.view = v;
        it.part = part;
        it.interval = iv;
        it.size = fstat->size_bytes;
        it.value = delta->FragmentValue(options_->value_model, part, fstat,
                                        v->stats.size_bytes,
                                        v->stats.creation_cost, *decay_, hits);
        items.push_back(it);
      }
    }
  }

  // --- MLE smoothing per partition (computed once, reused below).
  const bool use_mle = options_->use_mle_smoothing &&
                       options_->value_model == ValueModel::kDeepSea;
  std::map<const PartitionState*, MleFragmentModel::AdjustedHits> adjusted;
  auto adjusted_hits_for = [&](const PartitionState* part,
                               const FragmentStats* frag) -> double {
    if (!use_mle) return -1.0;
    auto it = adjusted.find(part);
    if (it == adjusted.end()) {
      it = adjusted
               .emplace(part, mle_->Adjust(part->fragments, part->domain,
                                           t_now, *decay_,
                                           delta->BasesOf(part)))
               .first;
    }
    const auto& adj = it->second;
    for (size_t i = 0; i < part->fragments.size(); ++i) {
      if (&part->fragments[i] == frag) return adj.hits[i];
    }
    return -1.0;
  };

  // --- P_sel: filter refinement candidates by benefit >= cost.
  for (const FragmentCandidate& fc : ctx.fragment_candidates) {
    if (fc.view->Quarantined(clock_now)) continue;
    PartitionState* part = delta->Partition(fc.view, fc.attr);
    if (part == nullptr) continue;
    FragmentStats* fstat = part->Find(fc.interval);
    if (fstat == nullptr || fstat->materialized) continue;
    const double adj = adjusted_hits_for(part, fstat);
    const double hits =
        adj >= 0.0 ? adj : delta->DecayedHits(part, fstat, *decay_);
    // Marginal admission: expected read-time saving over the current
    // cover must amortize the creation cost (see FragmentCandidate doc).
    const double benefit = hits * fc.per_hit_saving_seconds;
    if (benefit < options_->fragment_benefit_threshold * fc.est_cost_seconds) {
      continue;
    }
    Item it;
    it.kind = Item::Kind::kNewFragment;
    it.view = fc.view;
    it.part = part;
    it.interval = fc.interval;
    it.size = fc.est_bytes;
    // `hits` already folds the MLE adjustment (or the plain decayed
    // count when MLE is off); passing it as the override avoids a
    // second DecayedHits replay inside FragmentValue.
    it.value = delta->FragmentValue(options_->value_model, part, fstat,
                                    fc.view->stats.size_bytes,
                                    fc.view->stats.creation_cost, *decay_,
                                    hits);
    items.push_back(it);
  }

  // --- Existing pool content: every materialized fragment / whole view
  //     partakes individually (Section 7.3).
  //
  // Soft-read window: a pool sweep touches EVERY view, which would give
  // every plan a read footprint conflicting with every commit. The
  // sweep's values only matter when the knapsack is contended — when
  // something gets rejected (evicted, or a new candidate squeezed out).
  // So the reads are buffered softly and promoted into the real read
  // footprint only in that case; an uncontended knapsack (pool fits)
  // admits everything regardless of the swept values, and the plan's
  // decision is insensitive to them.
  delta->BeginSoftReads();
  // The sweep's extent — which views occupy the pool at all — is itself
  // a (soft) read: when the budget binds, a foreign commit creating
  // views changes what this knapsack should have weighed. Creating
  // commits write the membership token (see
  // PlanningDelta::CollectWriteFootprint), so promoted plans conflict
  // with them; uncontended plans drop the read with the window.
  delta->NotePoolMembershipRead();
  for (ViewInfo* v : delta->AllViews()) {
    if (v->whole_materialized) {
      Item it;
      it.kind = Item::Kind::kPoolWhole;
      it.view = v;
      it.size = v->stats.size_bytes;
      it.value = delta->ViewValue(options_->value_model, v, *decay_);
      items.push_back(it);
    }
    for (const std::string& attr : delta->PartitionAttrs(v)) {
      PartitionState* part = delta->Partition(v, attr);
      if (part == nullptr) continue;
      for (const FragmentStats& f : part->fragments) {
        if (!f.materialized) continue;
        Item it;
        it.kind = Item::Kind::kPoolFragment;
        it.view = v;
        it.part = part;
        it.interval = f.interval;
        it.size = f.size_bytes;
        it.value = delta->FragmentValue(options_->value_model, part, &f,
                                        v->stats.size_bytes,
                                        v->stats.creation_cost, *decay_,
                                        adjusted_hits_for(part, &f));
        items.push_back(it);
      }
    }
  }
  delta->EndSoftReads();

  // --- Knapsack by value (Section 7.3).
  SelectionInput input;
  input.items = std::move(items);
  input.budget_bytes = options_->pool_limit_bytes;
  SelectionResolution res = ResolveGreedy(input);

  // Contended knapsack: the pool sweep's values shaped the outcome, so
  // its reads become part of the plan's validated footprint.
  if (res.contended) delta->PromoteSoftReads();
  return res;
}

}  // namespace deepsea
