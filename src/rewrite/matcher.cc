#include "rewrite/matcher.h"

#include <algorithm>
#include <cmath>

#include "common/str_util.h"
#include "core/partition_match.h"
#include "core/planning_delta.h"

namespace deepsea {

std::string Rewriting::ToString() const {
  std::string out = "rewriting(view=" + view_id;
  if (!partition_attr.empty()) {
    out += ", attr=" + partition_attr + ", frags=" +
           std::to_string(fragments.size());
  }
  out += executable ? ", executable" : ", tracked-only";
  out += StrFormat(", est=%.1fs)", est_seconds);
  return out;
}

ExprPtr ViewMatcher::BuildCompensation(const PlanSignature& view_sig,
                                       const PlanSignature& query_sig) {
  std::vector<ExprPtr> conjuncts;
  // Range constraints: re-apply every query range the view does not
  // already enforce identically (re-applying all would also be correct;
  // we skip exact duplicates to keep plans readable).
  for (const auto& [col, q] : query_sig.ranges) {
    const auto vit = view_sig.ranges.find(col);
    const bool identical = vit != view_sig.ranges.end() &&
                           vit->second.lo == q.lo && vit->second.hi == q.hi &&
                           vit->second.lo_inclusive == q.lo_inclusive &&
                           vit->second.hi_inclusive == q.hi_inclusive;
    if (identical) continue;
    if (std::isfinite(q.lo)) {
      conjuncts.push_back(Cmp(q.lo_inclusive ? CompareOp::kGe : CompareOp::kGt,
                              Col(col), LitD(q.lo)));
    }
    if (std::isfinite(q.hi)) {
      conjuncts.push_back(Cmp(q.hi_inclusive ? CompareOp::kLe : CompareOp::kLt,
                              Col(col), LitD(q.hi)));
    }
  }
  // Residual conjuncts the view lacks.
  for (const ExprPtr& res : query_sig.residual_exprs) {
    if (!view_sig.residuals.count(res->ToString())) conjuncts.push_back(res);
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
      if (!enforced) {
        conjuncts.push_back(Cmp(CompareOp::kEq, Col(rep), Col(*it)));
      }
    }
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
      // The view table must be present in the relational catalog (the
      // engine registers every tracked view with estimated statistics).
      if (!catalog_->Contains(view->id)) continue;

      Rewriting rw;
      rw.view_id = view->id;
      rw.replaced = sp.get();

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

      PlanPtr view_read;
      if (chosen != nullptr && !chosen_cover.empty()) {
        rw.partition_attr = chosen->attr;
        rw.fragments = chosen_cover;
        rw.query_range = chosen_range;
        rw.has_query_range = true;
        rw.executable = chosen_executable;
        view_read = ViewRef(view->id, chosen->attr, chosen_cover);
      } else {
        // Whole-view read (unpartitioned, or no usable range).
        if (chosen != nullptr) {
          rw.query_range = chosen_range;
          rw.has_query_range = true;
          rw.partition_attr = chosen->attr;
        }
        rw.executable = view->whole_materialized;
        view_read = ViewRef(view->id, "", {});
      }

      const ExprPtr comp = BuildCompensation(view->signature, qsig);
      PlanPtr replacement = comp ? Select(view_read, comp) : view_read;
      rw.plan = ReplacePlanNode(query, sp.get(), replacement);

      auto est = estimator_->Estimate(rw.plan);
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
