#include "rewrite/matcher.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "core/partition_match.h"
#include "core/planning_delta.h"

namespace deepsea {

PlanPtr Rewriting::BuildPlan(const PlanPtr& query) const {
  const PlanPtr read = fragments.empty()
                           ? ViewRef(view->id, "", {})
                           : ViewRef(view->id, partition->attr, fragments);
  const ExprPtr comp = ViewMatcher::BuildCompensation(view->signature,
                                                      *replaced_sig);
  return ReplacePlanNode(query, replaced, comp ? Select(read, comp) : read);
}

std::string Rewriting::ToString() const {
  std::string out = "rewriting(view=" + view->id;
  if (partition != nullptr) {
    out += ", attr=" + partition->attr + ", frags=" +
           std::to_string(fragments.size());
  }
  out += executable ? ", executable" : ", tracked-only";
  out += StrFormat(", est=%.1fs)", est_seconds);
  return out;
}

RangeExtraction ViewMatcher::CompensationOf(const PlanSignature& view_sig,
                                            const PlanSignature& query_sig) {
  RangeExtraction out;
  // Range constraints: re-apply every query range the view does not
  // already enforce identically (re-applying all would also be correct;
  // we skip exact duplicates to keep plans readable). A bound that is
  // not finite is not rendered, so it constrains nothing here either.
  for (const auto& [col, q] : query_sig.ranges) {
    const auto vit = view_sig.ranges.find(col);
    const bool identical = vit != view_sig.ranges.end() &&
                           vit->second.lo == q.lo && vit->second.hi == q.hi &&
                           vit->second.lo_inclusive == q.lo_inclusive &&
                           vit->second.hi_inclusive == q.hi_inclusive;
    if (identical) continue;
    const bool has_lo = std::isfinite(q.lo);
    const bool has_hi = std::isfinite(q.hi);
    if (!has_lo && !has_hi) continue;
    ColumnRange r{col};
    if (has_lo) {
      TightenRange(&r, q.lo_inclusive ? CompareOp::kGe : CompareOp::kGt, q.lo);
    }
    if (has_hi) {
      TightenRange(&r, q.hi_inclusive ? CompareOp::kLe : CompareOp::kLt, q.hi);
    }
    out.ranges.push_back(std::move(r));
  }
  // Residual conjuncts the view lacks.
  for (const ExprPtr& res : query_sig.residual_exprs) {
    if (!view_sig.residuals.count(res->ToString())) out.residuals.push_back(res);
  }
  // Equality constraints from query equivalence classes not enforced by
  // the view: for each class pick a representative and equate members.
  for (const auto& qcls : query_sig.equiv_classes) {
    auto it = qcls.begin();
    const std::string& rep = *it;
    for (++it; it != qcls.end(); ++it) {
      bool enforced = false;
      for (const auto& vcls : view_sig.equiv_classes) {
        if (vcls.count(rep) && vcls.count(*it)) {
          enforced = true;
          break;
        }
      }
      if (!enforced) out.column_equalities.emplace_back(rep, *it);
    }
  }
  return out;
}

ExprPtr ViewMatcher::BuildCompensation(const PlanSignature& view_sig,
                                       const PlanSignature& query_sig) {
  const RangeExtraction comp = CompensationOf(view_sig, query_sig);
  std::vector<ExprPtr> conjuncts;
  for (const ColumnRange& r : comp.ranges) {
    if (std::isfinite(r.lo)) {
      conjuncts.push_back(Cmp(r.lo_inclusive ? CompareOp::kGe : CompareOp::kGt,
                              Col(r.column), LitD(r.lo)));
    }
    if (std::isfinite(r.hi)) {
      conjuncts.push_back(Cmp(r.hi_inclusive ? CompareOp::kLe : CompareOp::kLt,
                              Col(r.column), LitD(r.hi)));
    }
  }
  conjuncts.insert(conjuncts.end(), comp.residuals.begin(),
                   comp.residuals.end());
  for (const auto& [a, b] : comp.column_equalities) {
    conjuncts.push_back(Cmp(CompareOp::kEq, Col(a), Col(b)));
  }
  return AndAll(conjuncts);
}

Result<std::vector<Rewriting>> ViewMatcher::ComputeRewritings(
    const PlanPtr& query, SignatureTable* signatures, PlanningDelta* delta) {
  std::vector<Rewriting> out;
  std::vector<PlanPtr> subplans;
  CollectSubplans(query, &subplans);
  for (const PlanPtr& sp : subplans) {
    if (sp->kind() == PlanKind::kScan || sp->kind() == PlanKind::kViewRef) {
      continue;
    }
    const SignatureTable::Entry& entry = signatures->Get(sp);
    if (!entry.ok()) continue;  // unsupported shapes are skipped
    const PlanSignature& qsig = entry.sig();
    // The lookup itself is a read — recorded whether or not it hits:
    // an empty result is as much a fact the plan depends on as a hit.
    if (delta != nullptr) delta->RecordIndexProbe(entry.keyed());
    for (const std::string& view_id : index_->Lookup(qsig)) {
      ViewInfo* view = views_->Get(view_id);
      if (view == nullptr) continue;
      if (!SignatureSubsumes(view->signature, qsig)) continue;

      Rewriting rw;
      rw.view = view;
      rw.replaced = sp.get();
      rw.replaced_sig = &qsig;

      // Pick the partition to read: an attribute of the view that the
      // query constrains with a finite range. Prefer one with
      // materialized fragments covering the range.
      const PartitionState* chosen = nullptr;
      Interval chosen_range;
      std::vector<Interval> chosen_cover;
      bool chosen_executable = false;
      for (auto& [attr, part] : view->partitions) {
        const auto rit = qsig.ranges.find(attr);
        if (rit == qsig.ranges.end()) continue;
        const ColumnRange& r = rit->second;
        Interval range(std::isfinite(r.lo) ? r.lo : part.domain.lo,
                       std::isfinite(r.hi) ? r.hi : part.domain.hi,
                       r.lo_inclusive, r.hi_inclusive);
        const auto clamped = range.Intersect(part.domain);
        if (!clamped.has_value()) continue;
        range = *clamped;
        // Try to cover from materialized fragments (executable read).
        auto cover = PartitionMatchIntervals(part.MaterializedIntervals(), range);
        if (cover.has_value()) {
          chosen = &part;
          chosen_range = range;
          chosen_cover = std::move(*cover);
          chosen_executable = true;
          break;  // materialized cover is always preferred
        }
        if (chosen == nullptr) {
          // Fall back to tracked fragments for benefit estimation.
          auto tracked_cover =
              PartitionMatchIntervals(part.TrackedIntervals(), range);
          chosen = &part;
          chosen_range = range;
          if (tracked_cover.has_value()) chosen_cover = std::move(*tracked_cover);
          chosen_executable = false;
        }
      }
      if (chosen != nullptr) {
        rw.partition = chosen;
        rw.query_range = chosen_range;
      }
      // A fragment read, or a whole-view read (unpartitioned, or no
      // usable cover).
      rw.fragments = std::move(chosen_cover);
      rw.executable =
          rw.fragments.empty() ? view->whole_materialized : chosen_executable;

      // Price the plan with `sp` replaced by the view read under its
      // compensation, without building it. The read's catalog lookup
      // also skips views whose table the catalog lacks.
      auto read = rw.fragments.empty()
                      ? estimator_->EstimateViewRead(view->id, "", {})
                      : estimator_->EstimateViewRead(
                            view->id, chosen->attr, rw.fragments);
      if (!read.ok()) continue;
      PlanCostEstimator::Replacement replacement{sp.get(), *read};
      const RangeExtraction comp = CompensationOf(view->signature, qsig);
      if (!comp.ranges.empty() || !comp.residuals.empty() ||
          !comp.column_equalities.empty()) {
        PlanCostEstimator::ApplySelection(estimator_->SelectivityOf(comp),
                                          &replacement.cost);
      }
      auto est = estimator_->EstimateNode(query, &replacement);
      if (!est.ok()) continue;
      rw.est_seconds = est->seconds;
      rw.map_tasks = est->map_tasks;
      out.push_back(std::move(rw));
    }
  }
  std::sort(out.begin(), out.end(), [](const Rewriting& a, const Rewriting& b) {
    return a.est_seconds < b.est_seconds;
  });
  return out;
}

}  // namespace deepsea
