#ifndef DEEPSEA_CORE_VIEW_CATALOG_H_
#define DEEPSEA_CORE_VIEW_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/interval.h"
#include "core/part_mass.h"
#include "core/view_stats.h"
#include "plan/plan.h"
#include "plan/signature.h"

namespace deepsea {

/// State of one tracked partition of a view on one attribute: the
/// paper's PSTAT(V, A) (all tracked fragment intervals, with per-
/// fragment statistics) where the `materialized` flags identify the
/// subset P(V, A) currently in the pool.
///
/// The fragment list is append-only: Track (and CopyWithoutHits, which
/// copies a whole list) is the only way in, and no fragment's interval
/// changes once tracked. That keeps a position index sorted by
/// interval beside the list, so Find is a binary search rather than a
/// scan of every fragment STAT ever tracked. Endpoints must not be NaN
/// (IntervalLess must be a strict weak order over them).
struct PartitionState {
  std::string attr;
  Interval domain;

  /// The planned (non-overlapping) fragmentation accumulated from
  /// selection endpoints *before* the partition is first materialized
  /// (Definition 7 case "view not materialized yet": split the potential
  /// fragments of PSTAT). Becomes the initial fragmentation at creation.
  /// Initialized to {domain} on first use.
  std::vector<Interval> pending;

  /// The time-weighted part mass the MLE fit reads: built when the
  /// partition first holds pool content and refreshed by PoolManager
  /// inside commit sections while it does (dormant while it does not;
  /// see MleFragmentModel::RefreshPartMass). Copies of the partition
  /// (transaction images) carry it; planning shadows do not.
  PartMass mass;

  /// The tracked fragments, in track order. Pointers and references
  /// into the list are invalidated by Track.
  const std::vector<FragmentStats>& fragments() const { return fragments_; }
  /// The same list with writable statistics (sizes, flags, hits); the
  /// list itself and the intervals stay fixed.
  std::span<FragmentStats> mutable_fragments() { return fragments_; }

  /// Pointer to the tracked fragment with exactly this interval, or
  /// nullptr. O(log #fragments).
  FragmentStats* Find(const Interval& iv);
  const FragmentStats* Find(const Interval& iv) const;

  /// Adds a fragment to tracking if absent. Returns the tracked entry
  /// and whether this call added it (as std::map::try_emplace does).
  std::pair<FragmentStats*, bool> Track(const Interval& iv,
                                        double est_size_bytes);

  /// A copy of the attribute, domain, pending list and fragment list
  /// with each fragment's size and flag but no hit history, and no part
  /// mass: the planning shadow of this partition. O(#fragments), never
  /// O(#hits); the position index is copied, not rebuilt.
  PartitionState CopyWithoutHits() const;

  std::vector<Interval> MaterializedIntervals() const;
  std::vector<Interval> TrackedIntervals() const;
  double MaterializedBytes() const;
  bool AnyMaterialized() const;

 private:
  /// First position in by_interval_ whose fragment is not less than `iv`.
  std::vector<uint32_t>::const_iterator LowerBound(const Interval& iv) const;

  std::vector<FragmentStats> fragments_;
  /// Positions into fragments_, sorted by IntervalLess on the interval.
  std::vector<uint32_t> by_interval_;
};

/// A view's realized return (DESIGN.md §7 deviation 11): what its
/// creations made their queries pay and what the queries answered from
/// it saved, in simulated seconds. Written once per committed query by
/// PoolManager::SettleLedgers; read by V_sel's repeat-creation gate
/// (PlanningDelta::RepeatCreationWithheld).
struct ViewLedger {
  /// Creation premiums: each committed query that created this view's
  /// content adds its total - base seconds, split evenly over the views
  /// it created.
  double paid = 0.0;
  /// Savings: each query answered from this view that created no view
  /// adds its base - total seconds.
  double earned = 0.0;
  /// N(V), the undecayed benefit, at the view's last creation.
  double n0 = 0.0;
  /// True once the view was created (its first creation committed).
  bool created = false;

  bool operator==(const ViewLedger& other) const = default;
};

/// Everything DeepSea knows about one view (materialized or candidate):
/// its defining plan, signature, statistics, and tracked partitions.
struct ViewInfo {
  std::string id;       ///< stable name, also the catalog table name
  PlanPtr plan;         ///< defining subquery (no partition selection)
  PlanSignature signature;
  ViewStats stats;
  ViewLedger ledger;
  /// True when the full, unpartitioned view is materialized (the NP
  /// baseline materializes views this way).
  bool whole_materialized = false;
  std::map<std::string, PartitionState> partitions;

  // --- fault quarantine (runtime-only; not persisted by SaveState:
  //     quarantine reflects the health of the *current* storage, so a
  //     restarted engine probes afresh) ---

  /// Permanent decision failures attributed to this view since the last
  /// successful materialization (reset on success and on quarantine).
  int fault_count = 0;
  /// Commit-clock time until which SelectionPlanner skips this view's
  /// candidates (0 = not quarantined). Re-admitted once the pool clock
  /// reaches this value; existing materialized content is unaffected.
  int64_t quarantined_until = 0;

  bool Quarantined(int64_t clock_now) const {
    return clock_now < quarantined_until;
  }

  /// In the pool = whole view or at least one fragment materialized.
  bool InPool() const;

  /// Bytes currently occupied in the pool by this view (fresh walk of
  /// the fragment lists — requires the view to be stable, i.e. the
  /// caller's commit owns it). Exactly +0.0 when !InPool().
  double MaterializedBytes() const;

  /// Position in the owning ViewCatalog's track order, set when the
  /// catalog tracks or adopts the view and never changed afterwards.
  size_t track_index = 0;

  PartitionState* GetPartition(const std::string& attr);
  const PartitionState* GetPartition(const std::string& attr) const;
  PartitionState* EnsurePartition(const std::string& attr, const Interval& domain);
};

/// Registry of all tracked views keyed by the canonical string of their
/// defining signature. This is the paper's STAT = (VSTAT, PSTAT, Sigma)
/// of Definition 5; pool membership is carried on the entries.
///
/// Alongside STAT the catalog keeps the pool-content index: the views
/// whose InPool() is true, in track order, each with its cached
/// MaterializedBytes(). The §7.3 knapsack sweeps the pool's content,
/// which S_max bounds, while STAT keeps every view ever tracked; the
/// index makes the sweep and PoolBytes() cost O(pooled views).
class ViewCatalog {
 public:
  /// Returns the tracked view for `signature`, creating it (with a fresh
  /// id "v<N>") when unseen. `plan` is stored on first track.
  ViewInfo* Track(const PlanPtr& plan, const PlanSignature& signature);

  /// Adopts a view allocated outside the catalog (a PlanningDelta's
  /// speculative Track). The view's id must equal the id Track() would
  /// assign next: PlanningDelta::Fold names it from peek_next_id()
  /// just before adopting. The ViewInfo's address is preserved, so
  /// pointers captured during planning remain valid after adoption.
  /// `canonical` is view->signature.ToString(), already rendered.
  ViewInfo* Adopt(std::unique_ptr<ViewInfo> view, const std::string& canonical);

  /// Lookup by signature canonical string; nullptr when untracked.
  ViewInfo* FindBySignature(const std::string& canonical);

  ViewInfo* Get(const std::string& id);
  const ViewInfo* Get(const std::string& id) const;

  std::vector<ViewInfo*> AllViews();
  std::vector<const ViewInfo*> AllViews() const;

  size_t size() const { return views_.size(); }

  /// The id Track() will assign to the next unseen signature ("v<N>").
  int peek_next_id() const { return next_id_; }

  /// Re-reads `view`'s pool content after a pool primitive changed it
  /// (materialize, evict, merge, rollback, state load): caches its
  /// MaterializedBytes() and adds it to, or drops it from, the
  /// pool-content index as InPool() says. One call updates both, so the
  /// index and the cached bytes cannot diverge. Concurrent sharded
  /// commits may refresh the views they own at the same time.
  void RefreshPoolContent(ViewInfo* view);

  /// The views holding pool content (InPool()), in track order: the
  /// order AllViews() returns them in. Planners call it under the
  /// pool's shared lock, where no commit changes the membership.
  std::vector<ViewInfo*> PoolViews() const;

  /// Total pool bytes S(C): the cached bytes of the indexed views,
  /// summed in track order. A view outside the index holds exactly
  /// +0.0 bytes, so this is bit-identical to PoolBytesExact() whenever
  /// the caches are current. Safe from inside any commit.
  double PoolBytes() const;

  /// Total pool bytes by a fresh walk of every fragment list. Requires
  /// a quiescent pool (cross-check for the cached index).
  double PoolBytesExact() const;

 private:
  struct PoolEntry {
    ViewInfo* view;
    double bytes;  ///< view->MaterializedBytes() at the last refresh
  };

  std::vector<std::unique_ptr<ViewInfo>> views_;
  std::map<std::string, ViewInfo*> by_signature_;
  std::map<std::string, ViewInfo*> by_id_;
  int next_id_ = 1;

  /// Guards pool_ alone. A leaf: nothing else is acquired while it is
  /// held, so any lock holder may take it.
  mutable std::mutex pool_mu_;
  /// The pool-content index, sorted by ViewInfo::track_index.
  std::vector<PoolEntry> pool_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_VIEW_CATALOG_H_
