#include "core/candidate_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "core/candidates.h"
#include "core/partition_match.h"
#include "core/view_sizing.h"

namespace deepsea {

void CandidateGenerator::RegisterViewCandidates(const PlanPtr& candidate_plan,
                                                double base_seconds,
                                                QueryContext* ctx) {
  ctx->view_candidates.clear();
  PlanningDelta* delta = ctx->delta();
  assert(delta != nullptr);
  Catalog* pcat = delta->planning_catalog();
  SignatureTable* signatures = ctx->signatures();
  const double t_now = ctx->t_now();
  const std::vector<SelectionContext> contexts =
      ExtractSelectionContexts(candidate_plan);
  for (const PlanPtr& sp : EnumerateViewCandidates(candidate_plan)) {
    // Candidates read base tables only, so each is a node of the
    // submitted plan, whose signature the matcher already derived.
    const SignatureTable::Entry& sig = signatures->Get(sp);
    if (!sig.ok()) continue;
    ViewInfo* view = delta->FindView(sig.key());
    const bool known = view != nullptr;
    if (!known) {
      view = delta->TrackView(sp, sig.keyed());
      if (TablePtr table = pool_->RegisterViewTable(view, pcat)) {
        delta->DeferCatalogPut(std::move(table));
      }
      if (!pcat->Contains(view->id)) continue;  // unsupported plan shape
      delta->DeferIndexInsert(sig.keyed(), view->id);
    }
    const SelectionContext* sel = nullptr;
    for (const SelectionContext& c : contexts) {
      if (c.selected_input.get() == sp.get()) {
        sel = &c;
        break;
      }
    }
    ctx->view_candidates.push_back({view, sel != nullptr});
    // ADDCANDIDATES "initial rough estimate" of benefits (Alg. 1 line
    // 5): a view that directly feeds a selection of this query could
    // have answered it; seed one benefit event with the estimated
    // saving of reading only the selected slice of the view. Aggregate
    // views are not seeded — their signatures embed the selection
    // constants, so optimism would materialize one-shot query caches.
    if (!known && sel != nullptr && sp->kind() != PlanKind::kAggregate) {
      double fraction = 1.0;
      auto domain = ColumnDomain(*pcat, sel->column);
      if (domain.ok()) {
        const auto clamped = sel->range.Intersect(*domain);
        if (clamped.has_value()) {
          fraction = RangeFractionOfBaseColumn(*pcat, sel->column, *clamped);
        }
      }
      const double read_bytes = fraction * view->stats.size_bytes;
      const double est_reuse = cluster_->MapPhaseSeconds({read_bytes}) +
                               2.0 * cluster_->config().job_startup_seconds +
                               cluster_->ShuffleSeconds(read_bytes);
      const double saving = base_seconds - est_reuse;
      if (saving > 0.0) delta->RecordUse(view, t_now, saving);
    }
  }
}

void CandidateGenerator::RegisterPartitionCandidates(QueryContext* ctx) {
  ctx->fragment_candidates.clear();
  if (options_->strategy == StrategyKind::kNoPartition) return;
  PlanningDelta* delta = ctx->delta();
  assert(delta != nullptr);
  Catalog* pcat = delta->planning_catalog();
  const double t_now = ctx->t_now();
  SignatureTable* signatures = ctx->signatures();
  for (const SelectionContext& sel : ExtractSelectionContexts(ctx->query)) {
    const SignatureTable::Entry& sig = signatures->Get(sel.selected_input);
    if (!sig.ok()) continue;
    ViewInfo* view = delta->FindView(sig.key());
    if (view == nullptr) continue;  // selections over non-candidate shapes
    auto domain = ColumnDomain(*pcat, sel.column);
    if (!domain.ok()) continue;
    PartitionState* part = delta->EnsurePartition(view, sel.column, *domain);
    if (part->pending.empty()) part->pending = {*domain};
    // Attach the derived histogram to the view table once per attribute
    // so fragment sizes reflect the data distribution.
    auto view_table = pcat->Get(view->id);
    if (view_table.ok() && (*view_table)->GetHistogram(sel.column) == nullptr) {
      auto hist = DeriveViewHistogram(*pcat, *view, sel.column);
      if (hist.ok()) delta->AttachHistogram(*view, sel.column, *hist);
    }
    const auto clamped = sel.range.Intersect(*domain);
    if (!clamped.has_value()) continue;
    const Interval range = *clamped;
    // Snapped variant used for fragment-boundary generation (hits keep
    // the true range for distribution fidelity).
    Interval gen_range = range;
    if (options_->candidate_snap_fraction > 0.0) {
      const double step = options_->candidate_snap_fraction * domain->Width();
      if (step > 0.0) {
        gen_range.lo = Clamp(std::floor(range.lo / step) * step, domain->lo,
                             domain->hi);
        gen_range.hi = Clamp(std::ceil(range.hi / step) * step, domain->lo,
                             domain->hi);
        gen_range.lo_inclusive = true;
        gen_range.hi_inclusive = true;
      }
    }

    // The query range counts as covered when the materialized fragments
    // of the partition can answer it (partial materialization under a
    // tight pool may leave gaps even after the view entered the pool).
    const std::vector<Interval> mats = part->MaterializedIntervals();
    const bool covered =
        !mats.empty() && PartitionMatch(mats, gen_range).has_value();
    if (!covered) {
      // EquiDepth partitions by histogram at creation time; selection
      // endpoints are irrelevant to it.
      if (options_->strategy == StrategyKind::kEquiDepth) continue;
      // Refine the pending (planned) fragmentation at the range
      // endpoints (Definition 7, unmaterialized case). Pieces that are
      // already materialized stay untouched.
      std::vector<Interval> next;
      for (const Interval& f : part->pending) {
        const bool frozen =
            std::find(mats.begin(), mats.end(), f) != mats.end();
        const std::vector<Interval> pieces =
            frozen ? std::vector<Interval>{}
                   : GeneratePartitionCandidates({f}, gen_range);
        if (pieces.empty()) {
          next.push_back(f);
          continue;
        }
        // Splitting: pieces partition f (plus f's covered middle).
        for (const Interval& p : pieces) next.push_back(p);
        // Track stats for every piece; pieces overlapping the query
        // range count the current query as a hit.
        for (const Interval& p : pieces) {
          FragmentStats* tracked =
              delta->TrackFragment(part, p, /*est_size_bytes=*/0.0).first;
          if (p.Overlaps(range)) {
            tracked->RecordHit(t_now, range);
          }
        }
      }
      part->pending = std::move(next);
      continue;
    }
    // Post-creation refinement candidates (Definition 7 cases over
    // P(V, A)): only strategies that repartition generate them.
    if (options_->strategy != StrategyKind::kDeepSea) continue;
    for (const Interval& cand : GeneratePartitionCandidates(mats, gen_range)) {
      const double est_bytes = EstimateCandidateBytes(*part, cand);
      if (options_->enforce_block_lower_bound &&
          est_bytes < options_->cluster.block_bytes) {
        continue;  // fragments below one block are never created
      }
      FragmentStats* fstat = delta->TrackFragment(part, cand, est_bytes).first;
      if (fstat->materialized) continue;
      fstat->size_bytes = est_bytes;
      if (cand.Overlaps(range)) fstat->RecordHit(t_now, range);
      // COST(I_cand): read the overlapping materialized fragments,
      // write the new fragment (Section 7.2; w_write >> w_read).
      std::vector<double> read_files;
      for (const FragmentStats& f : part->fragments()) {
        if (f.materialized && f.interval.Overlaps(cand)) {
          read_files.push_back(f.size_bytes);
        }
      }
      FragmentCandidate fc;
      fc.view = view;
      fc.attr = sel.column;
      fc.interval = cand;
      fc.est_bytes = est_bytes;
      fc.est_cost_seconds = cluster_->MapPhaseSeconds(read_files) +
                            cluster_->PartitionedWriteSeconds(est_bytes, 1);
      // Marginal read saving: current cover of the candidate's interval
      // vs reading the candidate alone.
      double cover_seconds;
      const auto cover = PartitionMatchIntervals(mats, cand);
      if (cover.has_value()) {
        std::vector<double> cover_bytes;
        for (const Interval& c : *cover) {
          const FragmentStats* cf = part->Find(c);
          cover_bytes.push_back(cf != nullptr ? cf->size_bytes : 0.0);
        }
        cover_seconds = cluster_->MapPhaseSeconds(cover_bytes);
      } else {
        cover_seconds = cluster_->MapPhaseSeconds({view->stats.size_bytes});
      }
      fc.per_hit_saving_seconds =
          std::max(0.0, cover_seconds - cluster_->MapPhaseSeconds({est_bytes}));
      ctx->fragment_candidates.push_back(std::move(fc));
    }
  }
}

}  // namespace deepsea
