#ifndef DEEPSEA_CORE_COMMIT_FOOTPRINT_H_
#define DEEPSEA_CORE_COMMIT_FOOTPRINT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/interval.h"
#include "plan/signature.h"

namespace deepsea {

/// What a plan read — or what a commit writes — of the shared pool
/// state, at the granularity the conflict detector validates (see
/// DESIGN.md, "Statistics hot path and locking discipline").
///
/// A PlanningDelta accumulates its *read* footprint while the planning
/// stages run under PoolManager::SharedLock(), and derives its *write*
/// footprint from the buffered writes when the engine enters the
/// commit. PoolManager keeps a bounded table of recently committed
/// write footprints; a plan is valid iff no foreign write footprint
/// published after the plan's read epoch intersects its read footprint.
///
/// Granularities, coarsest to finest:
///
///  * `all` — the commit rewrote arbitrary pool state (state loads,
///    merge passes, the legacy token-only BeginCommit). Conflicts with
///    every read.
///  * `catalog_counter` — the pool-membership token. Written by every
///    commit that creates views or materializes content (either may
///    change which views hold pool content). Read only by a contended
///    knapsack, whose pool sweep visited just the views holding
///    content at its read epoch (PlanningDelta::NotePoolMembershipRead).
///  * `catalog_sigs` — view-signature catalog entries probed
///    (FindView) or created (TrackView). A foreign commit creating a
///    signature this plan probed invalidates the plan; creations with
///    signatures the plan never probed do not.
///  * `index_probes` / `index_inserts` — rewrite-index lookups at
///    *subsumption* granularity. The matcher probes the FilterTree with
///    each query-subplan signature; a foreign commit inserting a view
///    whose signature SUBSUMES a probed one could have changed the
///    rewriting choice, so it invalidates the plan. Inserting a view
///    that subsumes nothing the plan probed commutes — which is what
///    lets signature-disjoint candidate registrations commit sharded.
///    (Exact-signature collisions are additionally caught by
///    `catalog_sigs`; this granularity exists for the strictly-wider
///    view case.)
///  * `views` — per-view statistics and materialization state (benefit
///    events, whole-view flags, quarantine, eviction).
///  * `partitions` — the *structure* of one (view, attr) partition:
///    its tracked-fragment set and pending list. `attr == ""` is a
///    whole-view wildcard (EvictWholeView touches every partition).
///  * `fragments` — one (view, attr) fragment range: hit history,
///    size, materialized flag. Ranges conflict only when they overlap,
///    so two tenants refining disjoint regions of one partition
///    commute.
///
/// The asymmetric rule: a partition-*structure* read conflicts with a
/// structure write, and a fragment read conflicts with a structure
/// write (the fragment list changed under it) — but a structure read
/// does NOT conflict with a plain fragment write (hits appended to an
/// existing fragment leave the structure the reader depended on
/// intact).
struct CommitFootprint {
  /// One fragment-range entry: (view, partition attr, value range).
  struct FragRange {
    std::string view;
    std::string attr;
    Interval range;
  };

  bool all = false;
  bool catalog_counter = false;
  std::vector<std::string> catalog_sigs;
  /// Read side: query-subplan signatures probed against the rewrite
  /// index. Write side: view signatures inserted into it. Each entry is
  /// the planning query's own SignatureTable object (shared, so footprint
  /// copies into the epoch table and the in-flight registry stay cheap):
  /// its key is the identity, used for the exact-match fast path, and
  /// its structured form is what SignatureSubsumes evaluates during
  /// conflict checks. Entry lists may repeat a key: every reader scans.
  std::vector<std::shared_ptr<const KeyedSignature>> index_probes;
  std::vector<std::shared_ptr<const KeyedSignature>> index_inserts;
  std::vector<std::string> views;
  /// (view, attr); attr "" = every partition of the view.
  std::vector<std::pair<std::string, std::string>> partitions;
  std::vector<FragRange> fragments;

  bool Empty() const {
    return !all && !catalog_counter && catalog_sigs.empty() &&
           index_probes.empty() && index_inserts.empty() && views.empty() &&
           partitions.empty() && fragments.empty();
  }

  void AddView(const std::string& id) { views.push_back(id); }
  void AddPartition(const std::string& id, const std::string& attr) {
    partitions.emplace_back(id, attr);
  }
  void AddFragment(const std::string& id, const std::string& attr,
                   const Interval& range) {
    fragments.push_back(FragRange{id, attr, range});
  }
  void AddCatalogSig(const std::string& canonical) {
    catalog_sigs.push_back(canonical);
  }
  /// Both take a non-null signature with its key rendered.
  void AddIndexProbe(std::shared_ptr<const KeyedSignature> sig) {
    index_probes.push_back(std::move(sig));
  }
  void AddIndexInsert(std::shared_ptr<const KeyedSignature> sig) {
    index_inserts.push_back(std::move(sig));
  }

  /// Merge `other` into this footprint.
  void Merge(const CommitFootprint& other);

  /// Rewrites every view id appearing in `views` / `partitions` /
  /// `fragments` through `remap` (ids absent from the map pass through).
  /// Used at fold time to replace reserved placeholder ids with the
  /// final catalog-assigned "v<N>" ids before the footprint is
  /// published to the commit-epoch table.
  void RemapViewIds(
      const std::vector<std::pair<std::string, std::string>>& remap);
};

/// True when the write footprint intersects the read footprint — the
/// reading plan observed state this commit changed, so the plan must
/// be thrown away and rebuilt. Symmetric in neither argument order nor
/// meaning: the first argument is always the READ set, the second the
/// foreign WRITE set.
bool FootprintsConflict(const CommitFootprint& read,
                        const CommitFootprint& write);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_COMMIT_FOOTPRINT_H_
