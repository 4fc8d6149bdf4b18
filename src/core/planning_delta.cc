#include "core/planning_delta.h"

#include <algorithm>
#include <cassert>

#include "common/str_util.h"
#include "rewrite/filter_tree.h"

namespace deepsea {

std::string ViewIdReservation::NextPlaceholder() {
  if (next_ == end_) {
    next_ = counter_->fetch_add(kBlockSize, std::memory_order_relaxed);
    end_ = next_ + kBlockSize;
  }
  return StrFormat("c%lld", static_cast<long long>(next_++));
}

PlanningDelta::PlanningDelta(const Catalog& shared_catalog,
                             ViewCatalog* shared_views, double t_now,
                             ViewIdReservation* reservation)
    : t_now_(t_now),
      shared_views_(shared_views),
      reservation_(reservation),
      planning_catalog_(&shared_catalog) {}

// --- view overlay ---------------------------------------------------

ViewInfo* PlanningDelta::FindView(const std::string& canonical) {
  // The probe itself is a catalog read: a foreign commit creating this
  // signature changes the answer, so the plan must be invalidated.
  read_target().AddCatalogSig(canonical);
  if (ViewInfo* v = shared_views_->FindBySignature(canonical)) return v;
  for (const auto& [sig, v] : new_by_signature_) {
    if (sig == canonical) return v;
  }
  return nullptr;
}

ViewInfo* PlanningDelta::TrackView(const PlanPtr& plan,
                                   const PlanSignature& signature) {
  const std::string canonical = signature.ToString();
  if (ViewInfo* existing = FindView(canonical)) return existing;
  auto view = std::make_unique<ViewInfo>();
  if (reservation_ != nullptr) {
    // Reserved placeholder: no shared-counter read, so two concurrent
    // creators conflict only through the signature catalog (FindView
    // recorded the probe above) and the rewrite index — creations with
    // disjoint signatures commute and commit sharded. Fold assigns the
    // final "v<N>" id in commit order.
    view->id = reservation_->NextPlaceholder();
  } else {
    // Legacy prediction (no reservation): reads the shared view-id
    // counter, so any foreign commit that creates views moves it and
    // the two creators always conflict (one replans and re-predicts).
    // Adopt() asserts the prediction still holds at fold time
    // (guaranteed by epoch validation).
    read_target().catalog_counter = true;
    view->id = StrFormat(
        "v%d",
        shared_views_->peek_next_id() + static_cast<int>(new_views_.size()));
  }
  view->plan = plan;
  view->signature = signature;
  ViewInfo* raw = view.get();
  new_views_.push_back(std::move(view));
  new_by_signature_.emplace_back(canonical, raw);
  return raw;
}

bool PlanningDelta::OwnsView(const ViewInfo* v) const {
  for (const auto& owned : new_views_) {
    if (owned.get() == v) return true;
  }
  return false;
}

std::vector<ViewInfo*> PlanningDelta::AllViews() {
  std::vector<ViewInfo*> out = shared_views_->AllViews();
  out.reserve(out.size() + new_views_.size());
  for (const auto& owned : new_views_) out.push_back(owned.get());
  return out;
}

// --- deferred catalog / index writes --------------------------------

void PlanningDelta::DeferCatalogPut(TablePtr table) {
  deferred_puts_.push_back(std::move(table));
}

void PlanningDelta::DeferIndexInsert(const PlanSignature& sig,
                                     const std::string& view_id) {
  deferred_index_.emplace_back(sig, view_id);
}

void PlanningDelta::AttachHistogram(const ViewInfo& view,
                                    const std::string& attr,
                                    const AttributeHistogram& hist) {
  auto table = planning_catalog_.Get(view.id);
  if (!table.ok()) return;
  if (OwnsView(&view)) {
    // Delta-owned table: it is private to this query and already queued
    // for the real catalog, so the attachment rides along with the Put.
    (*table)->SetHistogram(attr, hist);
    return;
  }
  // Shared table: clone before mutating so concurrent planners reading
  // the real catalog never observe the write.
  auto clone = std::make_shared<Table>(**table);
  clone->SetHistogram(attr, hist);
  planning_catalog_.Put(std::move(clone));
  attach_ops_.push_back({view.id, attr, hist});
}

// --- benefit events ---------------------------------------------------

void PlanningDelta::RecordUse(ViewInfo* v, double time, double saving,
                              int32_t tenant) {
  if (OwnsView(v)) {
    v->stats.RecordUse(time, saving, tenant);
    return;
  }
  // The saving being recorded was computed from the view's current
  // rewriting cost (materialized state), so a use is a read as well as
  // a buffered write.
  NoteViewRead(v);
  for (auto& [view, events] : view_patches_) {
    if (view == v) {
      events.push_back({time, saving, tenant});
      return;
    }
  }
  view_patches_.emplace_back(v, std::vector<BenefitEvent>{{time, saving, tenant}});
}

const std::vector<BenefitEvent>* PlanningDelta::PatchOf(
    const ViewInfo* v) const {
  for (const auto& [view, events] : view_patches_) {
    if (view == v) return &events;
  }
  return nullptr;
}

// --- partitions --------------------------------------------------------

PlanningDelta::ShadowPartition* PlanningDelta::ShadowFor(
    const PartitionState* part) const {
  for (const ShadowPartition& sp : shadows_) {
    if (&sp.state == part) return const_cast<ShadowPartition*>(&sp);
  }
  return nullptr;
}

PlanningDelta::ShadowPartition& PlanningDelta::MakeShadow(
    ViewInfo* v, const std::string& attr, const PartitionState* base,
    const Interval& domain) {
  shadows_.emplace_back();
  ShadowPartition& sp = shadows_.back();
  sp.view = v;
  sp.state.attr = attr;
  sp.base = base;
  // Creating the shadow reads the shared partition wholesale: the
  // fragment list (fold maps base-backed fragments by index), the
  // materialized flags, and — through the effective-hit readers — any
  // fragment's history. Record a structure read plus a whole-domain
  // fragment read rather than instrumenting every fine-grained reader.
  NotePartitionRead(v, attr);
  if (base != nullptr) {
    read_target().AddFragment(v->id, attr, base->domain);
    sp.base_exists = true;
    sp.state.domain = base->domain;
    sp.state.pending = base->pending;
    // Snapshot the fields ShadowDirty/CollectWriteFootprint compare
    // against while the shared lock still keeps the base stable; those
    // checks run at commit time, possibly concurrent with foreign
    // sharded commits mutating (and reallocating) the base.
    sp.base_pending = base->pending;
    sp.state.fragments.reserve(base->fragments.size());
    sp.bases.reserve(base->fragments.size());
    sp.base_snap.reserve(base->fragments.size());
    for (const FragmentStats& f : base->fragments) {
      // Copy everything except the hit history (O(#fragments), never
      // O(#hits)); readers go through the base pointer for history.
      FragmentStats copy;
      copy.interval = f.interval;
      copy.size_bytes = f.size_bytes;
      copy.materialized = f.materialized;
      sp.state.fragments.push_back(std::move(copy));
      sp.bases.push_back(&f);
      sp.base_snap.push_back({f.size_bytes, f.materialized});
    }
  } else {
    sp.state.domain = domain;
  }
  shadow_by_key_[{v, attr}] = &sp;
  return sp;
}

bool PlanningDelta::HasPartitions(const ViewInfo* v) const {
  // Reads the existence of any partition on `v` (wildcard attr).
  NotePartitionRead(v, "");
  if (!v->partitions.empty()) return true;
  for (const ShadowPartition& sp : shadows_) {
    if (sp.view == v) return true;
  }
  return false;
}

std::vector<std::string> PlanningDelta::PartitionAttrs(
    const ViewInfo* v) const {
  NotePartitionRead(v, "");
  // std::map order (sorted), matching iteration over v->partitions
  // after the fold.
  std::map<std::string, bool> attrs;
  for (const auto& [attr, part] : v->partitions) attrs[attr] = true;
  for (const ShadowPartition& sp : shadows_) {
    if (sp.view == v) attrs[sp.state.attr] = true;
  }
  std::vector<std::string> out;
  out.reserve(attrs.size());
  for (const auto& [attr, _] : attrs) out.push_back(attr);
  return out;
}

PartitionState* PlanningDelta::Partition(ViewInfo* v, const std::string& attr) {
  if (OwnsView(v)) return v->GetPartition(attr);
  auto it = shadow_by_key_.find({v, attr});
  if (it != shadow_by_key_.end()) return &it->second->state;
  const PartitionState* base =
      static_cast<const ViewInfo*>(v)->GetPartition(attr);
  if (base == nullptr) {
    // The absence of a partition is also a structural fact the plan
    // depended on: a foreign commit creating (v, attr) invalidates it.
    NotePartitionRead(v, attr);
    return nullptr;
  }
  return &MakeShadow(v, attr, base, base->domain).state;
}

PartitionState* PlanningDelta::EnsurePartition(ViewInfo* v,
                                               const std::string& attr,
                                               const Interval& domain) {
  if (OwnsView(v)) return v->EnsurePartition(attr, domain);
  if (PartitionState* existing = Partition(v, attr)) return existing;
  return &MakeShadow(v, attr, nullptr, domain).state;
}

FragmentStats* PlanningDelta::TrackFragment(PartitionState* part,
                                            const Interval& iv,
                                            double est_size_bytes) {
  ShadowPartition* sp = ShadowFor(part);
  if (sp == nullptr) return part->Track(iv, est_size_bytes);
  if (FragmentStats* existing = part->Find(iv)) return existing;
  FragmentStats* added = part->Track(iv, est_size_bytes);
  sp->bases.push_back(nullptr);  // planner-added: no shared history
  return added;
}

const std::vector<const FragmentStats*>* PlanningDelta::BasesOf(
    const PartitionState* part) const {
  const ShadowPartition* sp = ShadowFor(part);
  return sp == nullptr ? nullptr : &sp->bases;
}

const FragmentStats* PlanningDelta::BaseOf(const PartitionState* part,
                                           const FragmentStats* f) const {
  const ShadowPartition* sp = ShadowFor(part);
  if (sp == nullptr) return nullptr;
  const size_t idx = static_cast<size_t>(f - part->fragments.data());
  assert(idx < sp->bases.size());
  return sp->bases[idx];
}

// --- effective stats readers ------------------------------------------
//
// Each reader reproduces, addition for addition, the evaluation the
// incremental ViewStats/FragmentStats code performs after the fold:
// start from the base's own evaluation (which skips its certified
// timed-out prefix — exact zeros) and accumulate the buffered local
// terms one at a time onto that accumulator. base_sum + local_sum would
// NOT be bit-identical (FP addition is not associative).

double PlanningDelta::AccumulatedBenefit(const ViewInfo* v,
                                         const DecayFunction& dec) const {
  NoteViewRead(v);
  double acc = v->stats.AccumulatedBenefit(t_now_, dec);
  if (const std::vector<BenefitEvent>* patch = PatchOf(v)) {
    if (!dec.config().enabled) {
      for (const BenefitEvent& e : *patch) acc += e.saving;
    } else {
      for (const BenefitEvent& e : *patch) {
        acc += e.saving * dec(t_now_, e.time);
      }
    }
  }
  return acc;
}

double PlanningDelta::UndecayedBenefit(const ViewInfo* v) const {
  NoteViewRead(v);
  double acc = v->stats.UndecayedBenefit();
  if (const std::vector<BenefitEvent>* patch = PatchOf(v)) {
    for (const BenefitEvent& e : *patch) acc += e.saving;
  }
  return acc;
}

double PlanningDelta::LastUse(const ViewInfo* v) const {
  NoteViewRead(v);
  double last = v->stats.LastUse();
  if (const std::vector<BenefitEvent>* patch = PatchOf(v)) {
    for (const BenefitEvent& e : *patch) {
      if (e.time > last) last = e.time;
    }
  }
  return last;
}

double PlanningDelta::DecayedHits(const PartitionState* part,
                                  const FragmentStats* f,
                                  const DecayFunction& dec) const {
  const FragmentStats* base = BaseOf(part, f);
  if (base == nullptr) return f->DecayedHits(t_now_, dec);
  if (!dec.config().enabled) {
    return static_cast<double>(base->hits().size() + f->hits().size());
  }
  double acc = base->DecayedHits(t_now_, dec);
  for (const FragmentHit& h : f->hits()) acc += dec(t_now_, h.time);
  return acc;
}

double PlanningDelta::RawHits(const PartitionState* part,
                              const FragmentStats* f) const {
  const FragmentStats* base = BaseOf(part, f);
  if (base == nullptr) return f->RawHits();
  return static_cast<double>(base->hits().size() + f->hits().size());
}

double PlanningDelta::LastHit(const PartitionState* part,
                              const FragmentStats* f) const {
  const FragmentStats* base = BaseOf(part, f);
  if (base == nullptr) return f->LastHit();
  return std::max(base->LastHit(), f->LastHit());
}

bool PlanningDelta::HasHits(const PartitionState* part,
                            const FragmentStats* f) const {
  const FragmentStats* base = BaseOf(part, f);
  if (base != nullptr && !base->hits().empty()) return true;
  return !f->hits().empty();
}

std::vector<FragmentHit> PlanningDelta::EffectiveHits(
    const PartitionState* part, const FragmentStats* f) const {
  const FragmentStats* base = BaseOf(part, f);
  if (base == nullptr) return f->hits();
  std::vector<FragmentHit> out = base->hits();
  out.insert(out.end(), f->hits().begin(), f->hits().end());
  return out;
}

// --- policy overlays ---------------------------------------------------
// Expression-for-expression mirrors of policy.cc with the stats reads
// replaced by the effective readers above.

double PlanningDelta::ViewValue(ValueModel model, const ViewInfo* v,
                                const DecayFunction& dec) const {
  const ViewStats& stats = v->stats;
  const double size = std::max(stats.size_bytes, 1.0);
  switch (model) {
    case ValueModel::kDeepSea:
      return stats.creation_cost * AccumulatedBenefit(v, dec) / size;
    case ValueModel::kNectar: {
      const double dt = std::max(t_now_ - LastUse(v), 1.0);
      return stats.creation_cost / (size * dt);
    }
    case ValueModel::kNectarPlus: {
      const double dt = std::max(t_now_ - LastUse(v), 1.0);
      return stats.creation_cost * UndecayedBenefit(v) / (size * dt);
    }
  }
  return 0.0;
}

double PlanningDelta::ViewBenefitForFilter(ValueModel model, const ViewInfo* v,
                                           const DecayFunction& dec) const {
  switch (model) {
    case ValueModel::kDeepSea:
      return AccumulatedBenefit(v, dec);
    case ValueModel::kNectar:
    case ValueModel::kNectarPlus:
      return UndecayedBenefit(v);
  }
  return 0.0;
}

double PlanningDelta::FragmentValue(ValueModel model,
                                    const PartitionState* part,
                                    const FragmentStats* f, double view_size,
                                    double view_cost, const DecayFunction& dec,
                                    double adjusted_hits) const {
  const double size = std::max(f->size_bytes, 1.0);
  switch (model) {
    case ValueModel::kDeepSea: {
      const double hits =
          adjusted_hits >= 0.0 ? adjusted_hits : DecayedHits(part, f, dec);
      const double size_fraction = f->size_bytes / std::max(view_size, 1.0);
      const double benefit = hits * size_fraction * view_cost;
      return view_cost * benefit / size;
    }
    case ValueModel::kNectar: {
      const double dt = std::max(t_now_ - LastHit(part, f), 1.0);
      return view_cost / (size * dt);
    }
    case ValueModel::kNectarPlus: {
      const double benefit = RawHits(part, f) *
                             (f->size_bytes / std::max(view_size, 1.0)) *
                             view_cost;
      const double dt = std::max(t_now_ - LastHit(part, f), 1.0);
      return view_cost * benefit / (size * dt);
    }
  }
  return 0.0;
}

// --- fold ---------------------------------------------------------------

void PlanningDelta::Fold(ViewCatalog* views, Catalog* catalog,
                         FilterTree* index) {
  if (folded_) return;
  folded_ = true;

  // 1. Adopt delta-owned views. ViewInfo addresses are preserved, so
  //    pointers captured in candidate lists and the decision stay valid.
  //
  //    Reservation-tracked views enter with placeholder ids ("c<M>");
  //    assign each the final catalog id here, in track order — which is
  //    fold/commit order, so a deterministic run produces the same
  //    "v1, v2, ..." sequence the legacy counter prediction did — and
  //    rename the deferred view tables and index inserts to match.
  //    Legacy counter-predicted ids pass through; Adopt() asserts they
  //    still hold (guaranteed by epoch validation).
  if (reservation_ != nullptr && !new_views_.empty()) {
    int next_id = views->peek_next_id();
    for (auto& owned : new_views_) {
      if (!ViewIdReservation::IsPlaceholder(owned->id)) continue;
      std::string final_id = StrFormat("v%d", next_id++);
      id_remap_.emplace_back(owned->id, final_id);
      owned->id = std::move(final_id);
    }
    if (!id_remap_.empty()) {
      auto final_of = [this](const std::string& id) -> const std::string* {
        for (const auto& [from, to] : id_remap_) {
          if (id == from) return &to;
        }
        return nullptr;
      };
      for (TablePtr& table : deferred_puts_) {
        if (const std::string* to = final_of(table->name())) {
          table->Rename(*to);
        }
      }
      for (auto& [sig, id] : deferred_index_) {
        if (const std::string* to = final_of(id)) id = *to;
      }
      // Re-key the planning catalog (it shares the Table objects with
      // deferred_puts_, so they are already renamed — only the map key
      // is stale). Post-fold consumers (staged estimators) resolve view
      // tables by final id.
      for (const auto& [from, to] : id_remap_) {
        (void)to;
        auto table = planning_catalog_.Get(from);
        if (table.ok()) {
          (void)planning_catalog_.Drop(from);
          planning_catalog_.Put(*table);
        }
      }
    }
  }
  for (auto& owned : new_views_) views->Adopt(std::move(owned));
  new_views_.clear();

  // 2. New view tables (the same Table objects planning resolved, so
  //    histograms attached to them during planning come along).
  for (TablePtr& table : deferred_puts_) catalog->Put(std::move(table));
  deferred_puts_.clear();

  // 3. Histogram attachments to pre-existing view tables.
  for (AttachOp& op : attach_ops_) {
    auto table = catalog->Get(op.table);
    if (table.ok()) (*table)->SetHistogram(op.attr, std::move(op.hist));
  }
  attach_ops_.clear();

  // 4. Filter-tree registrations.
  for (const auto& [sig, id] : deferred_index_) index->Insert(sig, id);
  deferred_index_.clear();

  // 5. Shadow partitions, in creation order. Base-backed fragments are
  //    the i-th entries of the real vector (unchanged since the shadow
  //    copied it — guaranteed by epoch validation); fold them first,
  //    then Track planner-added fragments, whose appends match the
  //    in-place append order.
  for (ShadowPartition& sp : shadows_) {
    if (sp.base_exists && !ShadowDirty(sp)) {
      // Read-only shadow (created to evaluate a pool view, never
      // written). Skipping it keeps the index-based fold below from
      // folding into a base a foreign commit legitimately changed
      // after this plan's soft reads were dropped. The remap entry is
      // still needed: decision actions may have captured the shadow
      // pointer (they only do when the reads were promoted, so the
      // base is epoch-protected and still present). Remap to the
      // recorded base pointer — walking sp.view->partitions here would
      // race with a foreign sharded commit inserting partitions into a
      // view whose shard this commit does not hold.
      fold_remap_.emplace_back(&sp.state, const_cast<PartitionState*>(sp.base));
      continue;
    }
    PartitionState* real = sp.view->EnsurePartition(sp.state.attr,
                                                    sp.state.domain);
    for (size_t i = 0; i < sp.state.fragments.size(); ++i) {
      const FragmentStats& sf = sp.state.fragments[i];
      if (sp.bases[i] != nullptr) {
        FragmentStats& rf = real->fragments[i];
        assert(rf.interval == sf.interval &&
               "shared partition changed under a validated epoch");
        for (const FragmentHit& h : sf.hits()) rf.AppendHit(h);
        rf.size_bytes = sf.size_bytes;
      } else {
        FragmentStats* rf = real->Track(sf.interval, sf.size_bytes);
        rf->size_bytes = sf.size_bytes;
        if (!sf.hits().empty()) rf->AdoptHits(sf.hits());
      }
    }
    real->pending = sp.state.pending;
    fold_remap_.emplace_back(&sp.state, real);
  }

  // 6. Buffered benefit events, per view in buffer order.
  for (auto& [view, events] : view_patches_) {
    for (const BenefitEvent& e : events) view->stats.AppendEvent(e);
  }
  view_patches_.clear();
}

PartitionState* PlanningDelta::RealPartition(
    PartitionState* maybe_shadow) const {
  for (const auto& [shadow, real] : fold_remap_) {
    if (shadow == maybe_shadow) return real;
  }
  return maybe_shadow;
}

// --- read/write footprints ----------------------------------------------

void PlanningDelta::NoteViewRead(const ViewInfo* v) const {
  if (OwnsView(v)) return;  // private to this delta until the fold
  read_target().AddView(v->id);
}

void PlanningDelta::NotePartitionRead(const ViewInfo* v,
                                      const std::string& attr) const {
  if (OwnsView(v)) return;
  read_target().AddPartition(v->id, attr);
}

void PlanningDelta::RecordIndexProbe(const PlanSignature& sig) {
  read_target().AddIndexProbe(std::make_shared<PlanSignature>(sig));
}

void PlanningDelta::PromoteSoftReads() {
  reads_.Merge(soft_reads_);
  soft_reads_ = CommitFootprint{};
}

bool PlanningDelta::ShadowDirty(const ShadowPartition& sp) {
  // Judged entirely against the creation-time snapshot: dirtiness means
  // "this plan wrote to the shadow", never "the base moved on" (a
  // foreign commit may be mutating the base concurrently — comparing
  // against it would be a data race, and folding because of a foreign
  // change would overwrite it with this plan's stale copy).
  if (!sp.base_exists) return true;  // created here: a structure write
  if (sp.state.pending != sp.base_pending) return true;
  if (sp.state.fragments.size() != sp.base_snap.size()) return true;
  for (size_t i = 0; i < sp.state.fragments.size(); ++i) {
    const FragmentStats& sf = sp.state.fragments[i];
    if (sp.bases[i] == nullptr) return true;  // planner-added fragment
    if (!sf.hits().empty()) return true;
    if (sf.size_bytes != sp.base_snap[i].size_bytes) return true;
    if (sf.materialized != sp.base_snap[i].materialized) return true;
  }
  return false;
}

bool PlanningDelta::RequiresStructuralCommit() const {
  return !new_views_.empty() || !deferred_puts_.empty() ||
         !deferred_index_.empty() || !attach_ops_.empty();
}

CommitFootprint PlanningDelta::CollectWriteFootprint() const {
  assert(!folded_ && "write footprint must be collected before Fold");
  CommitFootprint fp;
  if (RequiresStructuralCommit()) {
    // Structural writes, decomposed precisely (never `all`): the view-id
    // counter advances (invalidating legacy id predictions and
    // budget-bound knapsacks), the signature catalog gains the new
    // canonicals (FindView records every probe, so a plan that looked
    // one of them up conflicts), the rewrite index gains entries at
    // subsumption granularity, and the new views' own state appears.
    // A plan that never probed these signatures, never probed a
    // subsumed subplan, and did not depend on pool membership commutes
    // — which is what lets cold-range candidate registration commit
    // sharded. Reserved views are listed under their placeholder ids
    // here; RemapFoldedIds rewrites the published footprint to the
    // final ids after the fold.
    fp.catalog_counter = true;
    for (const auto& owned : new_views_) {
      fp.AddCatalogSig(owned->signature.ToString());
      fp.AddView(owned->id);
      fp.AddPartition(owned->id, "");
    }
    for (const auto& [sig, id] : deferred_index_) {
      (void)id;
      fp.AddIndexInsert(std::make_shared<PlanSignature>(sig));
    }
    for (const TablePtr& table : deferred_puts_) fp.AddView(table->name());
    for (const AttachOp& op : attach_ops_) {
      fp.AddView(op.table);
      fp.AddPartition(op.table, op.attr);
    }
  }
  for (const auto& [view, events] : view_patches_) fp.AddView(view->id);
  for (const ShadowPartition& sp : shadows_) {
    const std::string& vid = sp.view->id;
    const std::string& attr = sp.state.attr;
    if (!sp.base_exists) {
      fp.AddPartition(vid, attr);  // EnsurePartition created it
    } else if (sp.state.pending != sp.base_pending) {
      fp.AddPartition(vid, attr);
    }
    // Same snapshot comparisons as ShadowDirty (the two must agree:
    // every dirty shadow's view has to be in the write footprint, so
    // Fold only ever touches views whose commit shards are held).
    for (size_t i = 0; i < sp.state.fragments.size(); ++i) {
      const FragmentStats& sf = sp.state.fragments[i];
      if (sp.bases[i] == nullptr) {
        // Planner-tracked fragment: the fragment list changed and the
        // new range carries its own hits and size.
        fp.AddPartition(vid, attr);
        fp.AddFragment(vid, attr, sf.interval);
      } else if (!sf.hits().empty() ||
                 sf.size_bytes != sp.base_snap[i].size_bytes ||
                 sf.materialized != sp.base_snap[i].materialized) {
        fp.AddFragment(vid, attr, sf.interval);
      }
    }
  }
  fp.Normalize();
  return fp;
}

}  // namespace deepsea
