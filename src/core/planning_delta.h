#ifndef DEEPSEA_CORE_PLANNING_DELTA_H_
#define DEEPSEA_CORE_PLANNING_DELTA_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "core/commit_footprint.h"
#include "core/decay.h"
#include "core/engine_options.h"
#include "core/mle_model.h"
#include "core/policy.h"
#include "core/view_catalog.h"
#include "plan/plan.h"
#include "plan/signature.h"

namespace deepsea {

class FilterTree;

/// A per-engine lease of placeholder view ids, drawn in blocks from the
/// pool's shared atomic counter (PoolManager::placeholder_counter()).
///
/// TrackView names a new candidate view with a process-unique
/// placeholder ("c<M>"), and Fold assigns the real catalog id in commit
/// order. So a deterministic run keeps its "v1, v2, ..." sequence,
/// planning never reads the catalog's id counter, and concurrent
/// creators with disjoint signatures commute.
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

  /// True for ids produced by any ViewIdReservation.
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
///    which allocates the ViewInfo here under a placeholder id from the
///    engine's ViewIdReservation. Fold gives it the next catalog id and
///    adopts it (ViewCatalog::Adopt), preserving its address, so
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
///    fold. AccumulatedBenefit starts from the base's incremental
///    evaluation and accumulates the buffered terms one at a time onto
///    it — the exact additions, in the exact order, the folded
///    evaluation performs (never base_sum + local_sum: FP addition is
///    not associative). DecayedHits adds the base's and the local hits'
///    exact fixed-point time sums and divides once, which is how the
///    folded fragment computes H(I), so the two agree by construction.
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
  /// planning; Fold mutates it. TrackView names new candidates with
  /// placeholder ids leased from `reservation` (required), and Fold
  /// assigns the final catalog ids in commit order.
  PlanningDelta(const Catalog& shared_catalog, ViewCatalog* shared_views,
                double t_now, ViewIdReservation* reservation);

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

  /// ViewCatalog::Track, buffered, for a signature FindView just
  /// missed: allocates a delta-owned view under a placeholder id (Fold
  /// assigns the catalog id). `signature` comes from the query's
  /// SignatureTable, key rendered; the delta keeps it as the view's key.
  ViewInfo* TrackView(const PlanPtr& plan,
                      std::shared_ptr<const KeyedSignature> signature);

  /// True when `v` was created by this delta (not yet in the shared
  /// catalog).
  bool OwnsView(const ViewInfo* v) const;

  // --- deferred catalog / index writes ------------------------------

  /// Defers Catalog::Put(table) on the real catalog to fold time. The
  /// same TablePtr is Put into the planning catalog by the caller, so
  /// the planning view and the folded state are the same object.
  void DeferCatalogPut(TablePtr table);

  /// Defers FilterTree::Insert(sig, id) to fold time. Rewrites in later
  /// queries see the new view; this query's rewrite already ran. `sig`
  /// is shared, key rendered, with the write footprint.
  void DeferIndexInsert(std::shared_ptr<const KeyedSignature> sig,
                        const std::string& view_id);

  /// Attaches `hist` to the view's table for planning, and (for shared
  /// tables) defers the attachment to the real table at fold. Shared
  /// tables are cloned into the planning catalog first; delta-owned
  /// tables are mutated directly. No-op when the table is absent.
  void AttachHistogram(const ViewInfo& view, const std::string& attr,
                       const AttributeHistogram& hist);

  // --- benefit events ------------------------------------------------

  /// ViewStats::RecordUse, buffered for shared views (direct for
  /// delta-owned ones).
  void RecordUse(ViewInfo* v, double time, double saving);

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

  /// The pool sweep's read of `shared`, one of shared view `v`'s
  /// partitions: this plan's shadow of it when one exists, else
  /// `shared` itself, read in place rather than copied. Records the
  /// reads a shadow's creation would: the partition structure and the
  /// whole-domain fragment range. Callers must not write through the
  /// result. A decision action may carry it: RealPartition maps
  /// `shared` to itself.
  PartitionState* ReadPartition(ViewInfo* v, PartitionState* shared);

  /// PartitionState::Track on a delta partition. For shadows this also
  /// records that an added fragment has no base. Callers may mutate the
  /// returned FragmentStats directly (hits recorded here are the
  /// query-local suffix).
  std::pair<FragmentStats*, bool> TrackFragment(PartitionState* part,
                                                const Interval& iv,
                                                double est_size_bytes);

  /// For a shadow partition: the shared partition it shadows (nullptr
  /// when EnsurePartition created it here) and per-fragment base
  /// pointers (nullptr entries for planner-added fragments), parallel
  /// to part->fragments. Both null when `part` is not a shadow
  /// (fragments then carry their full history themselves). Used by the
  /// MLE model, under the shared lock.
  ShadowBases BasesOf(const PartitionState* part) const;

  // --- effective stats readers (value after fold, bit-identically) ---

  double AccumulatedBenefit(const ViewInfo* v, const DecayFunction& dec) const;
  double UndecayedBenefit(const ViewInfo* v) const;
  double LastUse(const ViewInfo* v) const;

  double DecayedHits(const PartitionState* part, const FragmentStats* f,
                     const DecayFunction& dec) const;
  double RawHits(const PartitionState* part, const FragmentStats* f) const;
  double LastHit(const PartitionState* part, const FragmentStats* f) const;

  /// Full post-fold hit list [base..., local...] (fragment-inheritance
  /// paths copy whole hit vectors).
  std::vector<FragmentHit> EffectiveHits(const PartitionState* part,
                                         const FragmentStats* f) const;

  /// V_sel's realized-return gate (DESIGN.md §7 deviation 11): the kind
  /// of repeat creation withheld, or nullopt when `v` may be created.
  /// Only a view created before whose ledger is in debt (earned < paid)
  /// is withheld: a re-creation (`v` holds no pool content) always, a
  /// top-up (`v` still holds some) while the undecayed benefit it
  /// accrued since its last creation, N(V) - N0 with this query's
  /// benefit patch included, does not cover the debt. Notes a read of
  /// `v`, as AccumulatedBenefit does, so a foreign commit that changes
  /// its ledger or its pool content invalidates the plan.
  std::optional<CreationKind> RepeatCreationWithheld(const ViewInfo* v) const;

  // --- the value model (Section 7.1, Section 10.1) -------------------
  //
  // The only copy of Φ(V), Φ(I) and the admission filter's benefit,
  // over the effective readers above: each model reads only the
  // quantities its formula uses. Evaluated at t_now().

  /// Φ(V) under `model` (see ValueModel). Views with zero size rank
  /// highest among equal-benefit views (guarded division).
  double ViewValue(ValueModel model, const ViewInfo* v,
                   const DecayFunction& dec) const;
  /// Benefit used by the admission filter (Section 7.2): decayed for
  /// DeepSea, undecayed for the Nectar variants.
  double ViewBenefitForFilter(ValueModel model, const ViewInfo* v,
                              const DecayFunction& dec) const;
  /// Φ(I) of fragment `f` of `part` under `model`. For DeepSea,
  /// Φ(I) = COST(V) · B(I) / S(I) with B(I) = H(I) · S(I)/S(V) · COST(V);
  /// `adjusted_hits` >= 0 replaces H(I) (the MLE-adjusted hits).
  double FragmentValue(ValueModel model, const PartitionState* part,
                       const FragmentStats* f, double view_size,
                       double view_cost, const DecayFunction& dec,
                       double adjusted_hits = -1.0) const;

  // --- read/write footprints (commit conflict detection) --------------
  //
  // While planning runs under SharedLock(), the delta records which
  // shared state it depended on: view stats read by the value/filter
  // overlays, partition structure read when a shadow is created,
  // signature catalog entries probed by FindView, and pool membership
  // when the knapsack sweeps the pool. BeginCommit validates this
  // read footprint against the write footprints of commits that
  // published after the plan's read epoch (see commit_footprint.h).

  /// Everything recorded so far (soft reads excluded until promoted).
  const CommitFootprint& read_footprint() const { return reads_; }

  /// Records a rewrite-index probe: the matcher looked the query
  /// subplan signature up in the FilterTree. A foreign commit inserting
  /// a view whose signature subsumes `sig` invalidates this plan (the
  /// rewriting choice could have differed); signature-disjoint inserts
  /// commute. `sig` is the query's SignatureTable object, key rendered,
  /// shared rather than copied. Honors the soft-read window.
  void RecordIndexProbe(std::shared_ptr<const KeyedSignature> sig) {
    read_target().AddIndexProbe(std::move(sig));
  }

  /// Records a dependency on the pool's view membership (the
  /// `catalog_counter` token): the knapsack's admit/reject outcome
  /// depends on which views occupy the pool, and the sweep reads only
  /// the views that did at the read epoch. When the budget binds, a
  /// foreign commit that puts content into any view must invalidate
  /// the plan. Commits that create views or materialize content write
  /// the token (CollectWriteFootprint, and the engine's decision
  /// writes). Honors the soft-read window.
  void NotePoolMembershipRead() { read_target().catalog_counter = true; }

  /// Brackets a read window whose reads only matter when the pool
  /// budget is binding: SelectionPlanner evaluates every pooled view in
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

  // --- fold -----------------------------------------------------------

  bool folded() const { return folded_; }

  /// Applies every buffered write to the shared state, in a fixed
  /// order (views, catalog puts, histogram attaches, index inserts,
  /// shadow partitions in creation order, benefit patches). Idempotent.
  /// Must be called inside a commit section, with the pool's catalog
  /// structure lock held exclusively when the commit is sharded
  /// (PoolManager::FoldDeltaAndRemap handles this).
  ///
  /// Delta-owned views enter with placeholder ids; Fold assigns each
  /// its final "v<N>" id (in track order, which equals fold/commit
  /// order) immediately before adopting it, and renames the deferred
  /// view tables and index inserts to match. The placeholder -> final
  /// map is exposed through RemapFoldedIds for the commit's published
  /// footprint. Appends to `written`, when given, every view whose
  /// statistics or partitions the fold wrote (a view may repeat).
  void Fold(ViewCatalog* views, Catalog* catalog, FilterTree* index,
            std::vector<ViewInfo*>* written = nullptr);

  /// Rewrites placeholder view ids in `fp` to the final ids Fold
  /// assigned. No-op before Fold or when no view was created. The
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
  /// foreign commit may be mutating. Fold skips read-only shadows: they
  /// have nothing to fold, and the fold never touches (or asserts
  /// against) their base.
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
  // new_signatures_ is parallel: each view's keyed signature.
  std::vector<std::unique_ptr<ViewInfo>> new_views_;
  std::vector<std::shared_ptr<const KeyedSignature>> new_signatures_;

  // Buffered benefit events per shared view, in creation order (linear
  // find: a query touches a handful of views).
  std::vector<std::pair<ViewInfo*, std::vector<BenefitEvent>>> view_patches_;

  // Shadows in creation order (deque: stable addresses). The key map is
  // only used for lookup, never iterated.
  std::deque<ShadowPartition> shadows_;
  std::map<std::pair<const ViewInfo*, std::string>, ShadowPartition*>
      shadow_by_key_;

  std::vector<TablePtr> deferred_puts_;
  std::vector<std::pair<std::shared_ptr<const KeyedSignature>, std::string>>
      deferred_index_;
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
