#ifndef DEEPSEA_CORE_PLANNING_DELTA_H_
#define DEEPSEA_CORE_PLANNING_DELTA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "core/commit_footprint.h"
#include "core/decay.h"
#include "core/policy.h"
#include "core/view_catalog.h"
#include "plan/plan.h"
#include "plan/signature.h"

namespace deepsea {

class FilterTree;

/// A per-engine lease of placeholder view ids, drawn in blocks from the
/// pool's shared atomic counter (PoolManager::placeholder_counter()).
///
/// Historically TrackView *predicted* the final "v<N>" id from the
/// shared counter, which made every candidate-tracking plan read — and
/// every creating commit write — the global `catalog_counter`, so two
/// concurrent creators always conflicted and structural commits had to
/// serialize. A reservation removes the counter from the planning read
/// set: TrackView names the candidate with a process-unique placeholder
/// ("c<M>") instead, and Fold assigns the real catalog id in commit
/// order — so the golden "v1, v2, ..." sequence of a deterministic run
/// is untouched, while concurrent creators with disjoint signatures
/// commute.
///
/// Not thread-safe: one reservation belongs to one engine, and engines
/// process one query at a time. The block lease (kBlockSize ids per
/// fetch_add) just keeps the shared counter off the per-candidate hot
/// path; exhausting a block transparently leases the next one.
class ViewIdReservation {
 public:
  static constexpr int64_t kBlockSize = 8;

  explicit ViewIdReservation(std::atomic<int64_t>* counter)
      : counter_(counter) {}

  /// The next unused placeholder id ("c<M>"; the namespace is disjoint
  /// from the catalog's "v<N>" ids by construction).
  std::string NextPlaceholder();

  /// True for ids produced by any ViewIdReservation (fold uses this to
  /// tell reserved candidates from legacy predicted ids).
  static bool IsPlaceholder(const std::string& id) {
    return !id.empty() && id[0] == 'c';
  }

  /// Unleased ids remaining in the current block (exhaustion tests).
  int64_t remaining() const { return end_ - next_; }

 private:
  std::atomic<int64_t>* const counter_;
  int64_t next_ = 0;
  int64_t end_ = 0;  ///< one past the leased block
};

/// Per-query write buffer for the planning stages (see DESIGN.md,
/// "Statistics hot path and locking discipline").
///
/// The planners (RewritePlanner::UpdateStatsFromRewritings,
/// CandidateGenerator, SelectionPlanner) historically mutated shared
/// pool state in place — benefit events, fragment hits, new views, new
/// tracked fragments, histogram attachments — which forced the whole of
/// ProcessQuery under the exclusive commit lock. A PlanningDelta
/// absorbs every one of those writes instead, so planning can run under
/// PoolManager::SharedLock() concurrently with other planners; the
/// buffered writes are folded into the shared state at the top of
/// PoolManager::Apply, inside the exclusive commit section.
///
/// Replayability contract: a plan-into-delta-then-fold run must be
/// bit-identical to the historical mutate-in-place run. The mechanisms:
///
///  * Delta-owned views. ViewCatalog::Track calls become TrackView,
///    which allocates the ViewInfo here with the id ViewCatalog *will*
///    assign ("v<peek_next_id + k>"). Fold adopts the owned ViewInfo
///    into the catalog (ViewCatalog::Adopt), preserving its address, so
///    candidate lists and decisions that captured the pointer stay
///    valid. Stats/partitions of delta-owned views are mutated directly
///    (nothing else can see them).
///
///  * Shadow partitions. Writes to a shared view's PartitionState go to
///    a shadow copy: fragments are copied *without* their hit history
///    (O(#fragments), never O(#hits)), and each shadow fragment keeps a
///    pointer to its base so readers can evaluate base-then-local.
///    Planner-added fragments have no base. Fold appends the shadow's
///    local hits onto the base fragments (same order as in-place
///    appends) and Tracks the added fragments.
///
///  * Effective readers. AccumulatedBenefit / DecayedHits / LastUse /
///    ... compute the value the shared stats *would* have after the
///    fold, by starting from the base's incremental evaluation and
///    accumulating the buffered terms one at a time onto it — the exact
///    additions, in the exact order, the folded evaluation performs.
///    (Never base_sum + local_sum: FP addition is not associative.)
///
///  * A planning catalog: a read-through overlay of the real Catalog
///    (O(1) to build, whatever the catalog's size). New view tables are
///    Put into the overlay immediately and deferred for the real
///    catalog; histogram attachments to *shared* tables clone the table
///    into the overlay first, so concurrent planners never observe a
///    mutation. The overlay reads the real catalog live, so it may be
///    read only where nothing can write the real catalog: while the
///    planner holds PoolManager::SharedLock() (which excludes every
///    IX/X commit, so no fold can run), or inside Fold (the pool's
///    catalog mutex held exclusively, or X held).
///
/// Fold is idempotent (a retried Apply after a rolled-back commit must
/// not double-append) and runs before the commit's transaction begins,
/// so a rollback never undoes it.
class PlanningDelta {
 public:
  /// Layers the planning catalog over `shared_catalog`, which must
  /// outlive the delta and may be read through the overlay only as the
  /// class comment says. `shared_views` is only read during
  /// planning; Fold mutates it. With a `reservation`, TrackView names
  /// new candidates with placeholder ids (no counter read) and Fold
  /// assigns the final catalog ids in commit order; without one it
  /// falls back to the legacy counter-predicted ids (direct-use tests
  /// and single-threaded callers).
  PlanningDelta(const Catalog& shared_catalog, ViewCatalog* shared_views,
                double t_now, ViewIdReservation* reservation = nullptr);

  PlanningDelta(const PlanningDelta&) = delete;
  PlanningDelta& operator=(const PlanningDelta&) = delete;

  double t_now() const { return t_now_; }

  /// The catalog planners must resolve tables against: the shared
  /// catalog plus this query's new view tables and histogram clones.
  Catalog* planning_catalog() { return &planning_catalog_; }
  const Catalog& planning_catalog() const { return planning_catalog_; }

  // --- view overlay -------------------------------------------------

  /// Lookup by signature canonical string across shared + delta-owned
  /// views (shared wins; ids never collide).
  ViewInfo* FindView(const std::string& canonical);

  /// ViewCatalog::Track, buffered: returns the existing (shared or
  /// delta) view for the signature, or allocates a delta-owned one with
  /// the id the shared catalog will assign at fold time.
  ViewInfo* TrackView(const PlanPtr& plan, const PlanSignature& signature);

  /// True when `v` was created by this delta (not yet in the shared
  /// catalog).
  bool OwnsView(const ViewInfo* v) const;

  /// Shared views in track order, then delta-owned views in track
  /// order — the order ViewCatalog::AllViews() returns after the fold.
  std::vector<ViewInfo*> AllViews();

  // --- deferred catalog / index writes ------------------------------

  /// Defers Catalog::Put(table) on the real catalog to fold time. The
  /// same TablePtr is Put into the planning catalog by the caller, so
  /// the planning view and the folded state are the same object.
  void DeferCatalogPut(TablePtr table);

  /// Defers FilterTree::Insert(sig, id) to fold time. Rewrites in later
  /// queries see the new view; this query's rewrite already ran.
  void DeferIndexInsert(const PlanSignature& sig, const std::string& view_id);

  /// Attaches `hist` to the view's table for planning, and (for shared
  /// tables) defers the attachment to the real table at fold. Shared
  /// tables are cloned into the planning catalog first; delta-owned
  /// tables are mutated directly. No-op when the table is absent.
  void AttachHistogram(const ViewInfo& view, const std::string& attr,
                       const AttributeHistogram& hist);

  // --- benefit events ------------------------------------------------

  /// ViewStats::RecordUse, buffered for shared views (direct for
  /// delta-owned ones).
  void RecordUse(ViewInfo* v, double time, double saving, int32_t tenant);

  // --- partitions -----------------------------------------------------

  /// Post-fold equivalent of !v->partitions.empty().
  bool HasPartitions(const ViewInfo* v) const;

  /// Post-fold partition attrs of `v` in std::map (sorted) order.
  std::vector<std::string> PartitionAttrs(const ViewInfo* v) const;

  /// The writable PartitionState planners should use for (v, attr):
  /// the view's own state for delta-owned views, else a lazily created
  /// shadow of the shared state. nullptr when the partition does not
  /// exist (and EnsurePartition was never called).
  PartitionState* Partition(ViewInfo* v, const std::string& attr);

  /// ViewInfo::EnsurePartition, buffered (first domain wins, matching
  /// the in-place semantics).
  PartitionState* EnsurePartition(ViewInfo* v, const std::string& attr,
                                  const Interval& domain);

  /// PartitionState::Track on a delta partition. For shadows this also
  /// records that the fragment has no base. Callers may mutate the
  /// returned FragmentStats directly (hits recorded here are the
  /// query-local suffix).
  FragmentStats* TrackFragment(PartitionState* part, const Interval& iv,
                               double est_size_bytes);

  /// For a shadow partition: per-fragment base pointers (nullptr
  /// entries for planner-added fragments), parallel to
  /// part->fragments. nullptr when `part` is not a shadow (fragments
  /// then carry their full history themselves). Used by the MLE model.
  const std::vector<const FragmentStats*>* BasesOf(
      const PartitionState* part) const;

  // --- effective stats readers (value after fold, bit-identically) ---

  double AccumulatedBenefit(const ViewInfo* v, const DecayFunction& dec) const;
  double UndecayedBenefit(const ViewInfo* v) const;
  double LastUse(const ViewInfo* v) const;

  double DecayedHits(const PartitionState* part, const FragmentStats* f,
                     const DecayFunction& dec) const;
  double RawHits(const PartitionState* part, const FragmentStats* f) const;
  double LastHit(const PartitionState* part, const FragmentStats* f) const;
  bool HasHits(const PartitionState* part, const FragmentStats* f) const;

  /// Full post-fold hit list [base..., local...] (fragment-inheritance
  /// paths copy whole hit vectors).
  std::vector<FragmentHit> EffectiveHits(const PartitionState* part,
                                         const FragmentStats* f) const;

  // --- policy overlays (mirror policy.cc expression-for-expression) ---

  double ViewValue(ValueModel model, const ViewInfo* v,
                   const DecayFunction& dec) const;
  double ViewBenefitForFilter(ValueModel model, const ViewInfo* v,
                              const DecayFunction& dec) const;
  double FragmentValue(ValueModel model, const PartitionState* part,
                       const FragmentStats* f, double view_size,
                       double view_cost, const DecayFunction& dec,
                       double adjusted_hits = -1.0) const;

  // --- read/write footprints (commit conflict detection) --------------
  //
  // While planning runs under SharedLock(), the delta records which
  // shared state it depended on: view stats read by the value/filter
  // overlays, partition structure read when a shadow is created,
  // signature catalog entries probed by FindView, and the view-id
  // counter when TrackView predicts an id. BeginCommit validates this
  // read footprint against the write footprints of commits that
  // published after the plan's read epoch (see commit_footprint.h).

  /// Everything recorded so far (soft reads excluded until promoted).
  const CommitFootprint& read_footprint() const { return reads_; }

  /// Records a rewrite-index probe: the matcher looked the query
  /// subplan signature up in the FilterTree. A foreign commit inserting
  /// a view whose signature subsumes `sig` invalidates this plan (the
  /// rewriting choice could have differed); signature-disjoint inserts
  /// commute. Honors the soft-read window.
  void RecordIndexProbe(const PlanSignature& sig);

  /// Records a dependency on the pool's view membership (the
  /// `catalog_counter` token): the knapsack's admit/reject outcome
  /// depends on which views occupy the pool, so when the budget binds,
  /// a foreign commit creating views must invalidate the plan. Creating
  /// commits write the counter; see CollectWriteFootprint. Honors the
  /// soft-read window.
  void NotePoolMembershipRead() { read_target().catalog_counter = true; }

  /// Brackets a read window whose reads only matter when the pool
  /// budget is binding: SelectionPlanner evaluates *every* pool view in
  /// its knapsack, but when nothing is rejected the foreign values it
  /// read had no influence on the decision. Reads recorded inside the
  /// window land in a side set; PromoteSoftReads() merges them into the
  /// read footprint (call it when the knapsack rejected anything).
  void BeginSoftReads() { soft_mode_ = true; }
  void EndSoftReads() { soft_mode_ = false; }
  void PromoteSoftReads();

  /// The write footprint of this plan's buffered writes (benefit
  /// patches, shadow-partition changes, created views / catalog entries
  /// / rewrite-index inserts). Structural work is decomposed into
  /// precise {catalog_counter, catalog_sigs, index_inserts, view,
  /// partition} entries — never `all` — so candidate-registering
  /// commits with disjoint signatures commute and commit sharded.
  /// Decision actions are merged in by the engine. Pre-fold only.
  CommitFootprint CollectWriteFootprint() const;

  /// True when folding this delta mutates pool-structural state (new
  /// views, catalog puts, histogram attaches, rewrite-index inserts).
  /// Such commits now take the *sharded* path like any other — their
  /// write footprints are precise — but the flag still drives the
  /// exclusive-reason attribution and a few structural-only asserts.
  bool RequiresStructuralCommit() const;

  // Per-category structural probes (exclusive-commit reason metric).
  bool has_new_views() const { return !new_views_.empty(); }
  bool has_deferred_puts() const { return !deferred_puts_.empty(); }
  bool has_deferred_index() const { return !deferred_index_.empty(); }
  bool has_attach_ops() const { return !attach_ops_.empty(); }

  // --- fold -----------------------------------------------------------

  bool folded() const { return folded_; }

  /// Applies every buffered write to the shared state, in a fixed
  /// order (views, catalog puts, histogram attaches, index inserts,
  /// shadow partitions in creation order, benefit patches). Idempotent.
  /// Must be called inside a commit section, with the pool's catalog
  /// structure lock held exclusively when the commit is sharded
  /// (PoolManager::FoldPlanningDelta handles this).
  ///
  /// Reservation-tracked views enter with placeholder ids; Fold assigns
  /// each its final "v<N>" id (in track order, which equals fold/commit
  /// order) immediately before adopting it, and renames the deferred
  /// view tables and index inserts to match. The placeholder -> final
  /// map is exposed through RemapFoldedIds for the commit's published
  /// footprint.
  void Fold(ViewCatalog* views, Catalog* catalog, FilterTree* index);

  /// Rewrites placeholder view ids in `fp` to the final ids Fold
  /// assigned. No-op before Fold or when nothing was reserved. The
  /// commit's publish footprint must be remapped before it reaches the
  /// epoch table: later plans read views under their final ids.
  void RemapFoldedIds(CommitFootprint* fp) const {
    fp->RemapViewIds(id_remap_);
  }

  /// After the fold: the real PartitionState a shadow folded into
  /// (identity for non-shadow pointers). Decision actions captured
  /// shadow pointers during planning; Apply remaps them through this.
  PartitionState* RealPartition(PartitionState* maybe_shadow) const;

 private:
  struct ShadowPartition {
    ViewInfo* view = nullptr;
    PartitionState state;
    /// True when the shared view already had this partition (fold then
    /// folds into it); false when EnsurePartition created it here.
    bool base_exists = false;
    /// The shared partition this shadow copies (nullptr when created
    /// here). Fold uses the pointer VALUE only (the read-only remap
    /// target); its fields must never be dereferenced outside the
    /// shared lock — a foreign sharded commit may mutate the partition,
    /// and a foreign Track() reallocates its fragment vector.
    const PartitionState* base = nullptr;
    /// Parallel to state.fragments; nullptr for planner-added entries.
    /// Same rule as `base`: safe to compare against nullptr anywhere,
    /// safe to dereference only under the shared lock.
    std::vector<const FragmentStats*> bases;
    /// Creation-time snapshot of the base fields the dirty/footprint
    /// checks compare against (taken under the shared lock, where the
    /// base is stable). ShadowDirty / CollectWriteFootprint run at
    /// commit time, when foreign sharded commits may be mutating the
    /// base concurrently — they read these snapshots instead.
    std::vector<Interval> base_pending;
    struct BaseFragSnap {
      double size_bytes = 0.0;
      bool materialized = false;
    };
    /// Parallel to the base-backed prefix of state.fragments.
    std::vector<BaseFragSnap> base_snap;
  };

  struct AttachOp {
    std::string table;
    std::string attr;
    AttributeHistogram hist;
  };

  ShadowPartition* ShadowFor(const PartitionState* part) const;
  ShadowPartition& MakeShadow(ViewInfo* v, const std::string& attr,
                              const PartitionState* base,
                              const Interval& domain);
  const FragmentStats* BaseOf(const PartitionState* part,
                              const FragmentStats* f) const;
  const std::vector<BenefitEvent>* PatchOf(const ViewInfo* v) const;

  /// True when the shadow buffered any write (local hits, added or
  /// resized fragments, changed pending list), judged against the
  /// creation-time base snapshot — never the live base, which a
  /// foreign commit may be mutating. Read-only shadows are skipped by
  /// Fold, so a plan whose soft reads were dropped never folds into
  /// (or asserts against) a base a foreign commit legitimately changed.
  static bool ShadowDirty(const ShadowPartition& sp);

  // Read-footprint recording (const readers record through these;
  // the sets are mutable for that reason).
  CommitFootprint& read_target() const {
    return soft_mode_ ? soft_reads_ : reads_;
  }
  void NoteViewRead(const ViewInfo* v) const;
  void NotePartitionRead(const ViewInfo* v, const std::string& attr) const;

  const double t_now_;
  ViewCatalog* const shared_views_;
  ViewIdReservation* const reservation_;
  Catalog planning_catalog_;

  // Delta-owned views, in track order. unique_ptr keeps addresses
  // stable across fold (ownership moves to the ViewCatalog).
  std::vector<std::unique_ptr<ViewInfo>> new_views_;
  std::vector<std::pair<std::string, ViewInfo*>> new_by_signature_;

  // Buffered benefit events per shared view, in creation order (linear
  // find: a query touches a handful of views).
  std::vector<std::pair<ViewInfo*, std::vector<BenefitEvent>>> view_patches_;

  // Shadows in creation order (deque: stable addresses). The key map is
  // only used for lookup, never iterated.
  std::deque<ShadowPartition> shadows_;
  std::map<std::pair<const ViewInfo*, std::string>, ShadowPartition*>
      shadow_by_key_;

  std::vector<TablePtr> deferred_puts_;
  std::vector<std::pair<PlanSignature, std::string>> deferred_index_;
  std::vector<AttachOp> attach_ops_;

  // Filled by Fold: shadow state -> real partition.
  std::vector<std::pair<const PartitionState*, PartitionState*>> fold_remap_;
  // Filled by Fold: placeholder id -> final catalog id.
  std::vector<std::pair<std::string, std::string>> id_remap_;

  // Read footprint (mutable: recorded from const readers).
  mutable CommitFootprint reads_;
  mutable CommitFootprint soft_reads_;
  mutable bool soft_mode_ = false;

  bool folded_ = false;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_PLANNING_DELTA_H_
