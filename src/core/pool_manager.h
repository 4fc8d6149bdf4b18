#ifndef DEEPSEA_CORE_POOL_MANAGER_H_
#define DEEPSEA_CORE_POOL_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "core/commit_footprint.h"
#include "core/decay.h"
#include "core/engine_observer.h"
#include "core/engine_options.h"
#include "core/query_context.h"
#include "core/selection_planner.h"
#include "core/view_catalog.h"
#include "rewrite/filter_tree.h"
#include "sim/cluster.h"
#include "sim/cost_model.h"
#include "storage/sim_fs.h"

namespace deepsea {

class PoolManager;

/// Three-mode pool lock (see DESIGN.md, "Statistics hot path and
/// locking discipline"):
///
///   S  (shared)          planning stages, SaveState, metric snapshots
///   IX (intent-exclusive) sharded commits — admit each other, their
///                        actual data writes are serialized by the
///                        per-view commit shards
///   X  (exclusive)       structural commits (view creation, eviction,
///                        merge passes, state loads, the legacy token-
///                        only BeginCommit)
///
/// Compatibility: S admits only S, IX admits only IX, X admits nothing.
/// Planning is therefore still strictly exclusive with every commit —
/// exactly the PR 4 invariant that lets planners read shared state
/// without per-view read locks — while commits with disjoint footprints
/// overlap with one another. A pending X blocks new S/IX entrants, so
/// structural commits cannot starve; a pending IX likewise blocks new S
/// entrants (but defers to a pending X), so sharded commits cannot be
/// starved by continuous planning traffic.
class PoolLock {
 public:
  void LockShared();
  void UnlockShared();
  void LockIntent();
  void UnlockIntent();
  void LockExclusive();
  void UnlockExclusive();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int shared_ = 0;
  int intent_ = 0;
  int intent_waiting_ = 0;
  int exclusive_waiting_ = 0;
  bool exclusive_ = false;
};

/// Movable RAII holder of a PoolLock's S mode (what
/// PoolManager::SharedLock() returns).
class PoolSharedLock {
 public:
  PoolSharedLock() = default;
  explicit PoolSharedLock(PoolLock* lock) : lock_(lock) {
    lock_->LockShared();
  }
  PoolSharedLock(PoolSharedLock&& other) noexcept : lock_(other.lock_) {
    other.lock_ = nullptr;
  }
  PoolSharedLock& operator=(PoolSharedLock&& other) noexcept {
    if (this != &other) {
      Release();
      lock_ = other.lock_;
      other.lock_ = nullptr;
    }
    return *this;
  }
  PoolSharedLock(const PoolSharedLock&) = delete;
  PoolSharedLock& operator=(const PoolSharedLock&) = delete;
  ~PoolSharedLock() { Release(); }

  void Release() {
    if (lock_ == nullptr) return;
    lock_->UnlockShared();
    lock_ = nullptr;
  }

 private:
  PoolLock* lock_ = nullptr;
};

/// RAII ownership of a PoolManager commit section — exclusive (X) when
/// obtained from BeginCommit, sharded (IX + view-group shard locks)
/// when obtained from TryBeginShardedCommit. A guard proves — by being
/// passed to the guarded accessors — that the caller holds the commit.
/// Movable (so engines can return/stash it), not copyable. Destroying
/// or Release()ing the guard publishes the commit's write footprint and
/// unlocks the pool.
class CommitGuard {
 public:
  CommitGuard() = default;
  CommitGuard(CommitGuard&& other) noexcept : pool_(other.pool_) {
    other.pool_ = nullptr;
  }
  CommitGuard& operator=(CommitGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      other.pool_ = nullptr;
    }
    return *this;
  }
  CommitGuard(const CommitGuard&) = delete;
  CommitGuard& operator=(const CommitGuard&) = delete;
  ~CommitGuard() { Release(); }

  bool held() const { return pool_ != nullptr; }
  void Release();

 private:
  friend class PoolManager;
  explicit CommitGuard(PoolManager* pool) : pool_(pool) {}

  PoolManager* pool_ = nullptr;
};

/// Stage 4 of the pipeline and the owner of all durable pool state: the
/// view catalog (STAT), the simulated file system, the rewrite index,
/// and the global commit clock. PoolManager is the only component that
/// flips `materialized` flags, creates/deletes SimFs files, and charges
/// materialization seconds — the planner stages merely read the pool
/// and emit SelectionDecisions for Apply to execute. It also runs the
/// Section 11 fragment-merge maintenance pass and registers view tables
/// (estimated logical statistics) in the relational catalog.
///
/// Tenancy and locking: one PoolManager may be shared by several
/// DeepSeaEngine instances (one per tenant) running on different
/// threads. The *planning* stages run under SharedLock(): they buffer
/// every would-be STAT write (Algorithm 1 line 2) into the query's
/// PlanningDelta — recording the read footprint as they go — and Apply
/// folds that buffer into the pool at the top of the commit. Commits
/// come in two flavors:
///
///  * Sharded (TryBeginShardedCommit): IX on the pool lock plus the
///    per-view commit shards of the write footprint, acquired in
///    ascending shard order (deadlock-free). Validation is read-set
///    conflict detection: the commit proceeds only when no foreign
///    write footprint published after the plan's read epoch — and no
///    in-flight sharded commit — intersects the plan's read footprint.
///    Disjoint-footprint tenants therefore commit truly concurrently.
///
///  * Exclusive (BeginCommit): the global X path for work whose write
///    set cannot be bounded up front — merge passes, inline evictions,
///    physical execution, state loads — and for replans after a failed
///    sharded validation. View creation is NOT on this list anymore:
///    structural deltas publish precise footprints (see
///    PlanningDelta::CollectWriteFootprint) and fold under the sharded
///    path, serialized against each other and against mid-commit
///    catalog readers by catalog_mu_. Publishes `all` by default;
///    engines narrow it via SetCommitFootprint.
///
/// The commit section carries the committing tenant's observer in
/// thread-local commit context: OnEvict events are routed to it,
/// stamped with the tenant id.
///
/// Read access: the `*Snapshot()` methods take the pool lock in S mode
/// and are safe from any thread (monitoring). The plain const accessors
/// (`views()`, `fs()`, `PoolBytes()`) are unlocked and require the
/// caller to either hold a commit guard or know the pool is externally
/// quiesced — taking even a shared lock there would self-deadlock the
/// engine pipeline, which reads them mid-commit. (PoolBytes itself sums
/// per-view atomic byte caches, so sampling it from inside a sharded
/// commit is race-free even while foreign commits mutate their views.)
class PoolManager {
 public:
  PoolManager(Catalog* catalog, const EngineOptions* options,
              const ClusterModel* cluster, const PlanCostEstimator* estimator);

  PoolManager(const PoolManager&) = delete;
  PoolManager& operator=(const PoolManager&) = delete;

  // --- commit protocol ---

  /// Enters the exclusive (X) commit section, blocking until every
  /// other commit, sharded commit, and shared-mode reader has drained.
  /// `observer` receives the OnEvict events of this commit (nullptr =
  /// silent); `tenant` / `tenant_ord` stamp those events and
  /// the recorded statistics. Unless narrowed via SetCommitFootprint,
  /// the commit publishes an `all` write footprint (conservatively
  /// invalidating every in-flight plan — correct for arbitrary direct
  /// mutation through the guarded accessors). Re-entering from a thread
  /// that already holds a commit is a programming error (asserts in
  /// debug builds).
  CommitGuard BeginCommit(EngineObserver* observer = nullptr,
                          std::string tenant = std::string(),
                          int32_t tenant_ord = 0);

  /// Attempts a sharded (IX) commit for a plan whose reads are
  /// `read_fp` (recorded under SharedLock at epoch `read_epoch`) and
  /// whose writes are `write_fp`. Acquires IX plus the write set's
  /// commit shards, then validates the read set against every foreign
  /// write footprint published after `read_epoch` and every in-flight
  /// sharded commit, and checks that `admitted_bytes` (the estimated
  /// pool growth of the plan's materializations) still fits the pool
  /// budget alongside every in-flight commit's claim — pool occupancy
  /// is not part of any read footprint, so concurrent growth would
  /// otherwise be invisible to uncontended plans.
  ///
  /// On success returns a held guard; the commit owns exactly its
  /// shards, must confine mutation to its write footprint, and
  /// publishes `write_fp` on release. On conflict returns an empty
  /// guard with *conflict_genuine set: true when a footprint actually
  /// intersected (or the budget headroom is gone), false when the
  /// bounded epoch table could no longer cover `read_epoch` (a
  /// spurious, conservative invalidation). The caller escalates to
  /// BeginCommit and replans there.
  ///
  /// A structural (`all`) write footprint has no shard set and is
  /// rejected outright (empty guard, genuine): such commits must take
  /// the BeginCommit path.
  CommitGuard TryBeginShardedCommit(EngineObserver* observer,
                                    std::string tenant, int32_t tenant_ord,
                                    CommitFootprint write_fp,
                                    const CommitFootprint& read_fp,
                                    uint64_t read_epoch,
                                    bool* conflict_genuine,
                                    double admitted_bytes = 0.0);

  /// Re-validates a read set from inside an exclusive commit (no
  /// in-flight sharded commits can exist there). Same conflict and
  /// budget-headroom semantics as TryBeginShardedCommit; used by the
  /// engine's X path and the conflict tests.
  bool ValidateReadSet(const CommitGuard& commit,
                       const CommitFootprint& read_fp, uint64_t read_epoch,
                       bool* conflict_genuine,
                       double admitted_bytes = 0.0) const;

  /// Overrides the write footprint this commit publishes on release
  /// (BeginCommit's default is `all`; a validated engine commit knows
  /// its precise writes). An empty footprint publishes nothing — the
  /// epoch does not advance.
  void SetCommitFootprint(const CommitGuard& commit, CommitFootprint fp);

  /// The epoch to sample (under SharedLock) before planning: the
  /// sequence number of the latest published commit. Passed to
  /// TryBeginShardedCommit / ValidateReadSet as `read_epoch`.
  uint64_t read_epoch() const {
    return commit_seq_.load(std::memory_order_acquire);
  }

  /// True when the calling thread is inside a commit section of this
  /// pool. The mutation primitives assert this in debug builds.
  bool CommitHeldByThisThread() const;

  // --- guarded mutable access (the guard token proves the lock) ---

  ViewCatalog* stat(const CommitGuard& commit);
  SimFs* fs(const CommitGuard& commit);
  /// The signature -> view-id rewrite index shared by all tenants (a
  /// tenant must be able to match views created by another).
  FilterTree* rewrite_index(const CommitGuard& commit);

  // --- unlocked const access (commit held or externally quiesced) ---

  const ViewCatalog& views() const { return views_; }
  const SimFs& fs() const { return fs_; }
  const EngineOptions& options() const { return *options_; }

  /// Current pool occupancy in bytes (S(C)). Sums the per-view atomic
  /// byte caches under the shared catalog-structure lock (a foreign
  /// sharded commit's fold may be growing the view list concurrently);
  /// the per-view values themselves are race-free atomics.
  double PoolBytes() const {
    std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    return views_.PoolBytes();
  }

  // --- shared-mode snapshots (safe from any thread) ---

  double PoolBytesSnapshot() const;
  /// Shared-mode (S) lock for multi-read consistency (SaveState, and
  /// the speculative planning phase of ProcessQuery).
  PoolSharedLock SharedLock() const { return PoolSharedLock(&lock_); }

  /// The shared placeholder-id counter ViewIdReservation leases blocks
  /// from (one reservation per engine; see planning_delta.h). Lock-free.
  std::atomic<int64_t>* placeholder_counter() { return &placeholder_counter_; }

  /// Shared (read) hold on the catalog-structure lock, for code inside
  /// a *sharded* commit that reads catalog-level structure — the
  /// relational Catalog's table map, the ViewCatalog's view list/maps —
  /// which a concurrent foreign sharded commit's delta fold may be
  /// growing. Exclusive commits and planners (S mode) never need it:
  /// they exclude folds wholesale through the pool lock. Do not nest,
  /// and never acquire epoch_mu_ / shard locks while holding it.
  std::shared_lock<std::shared_mutex> CatalogSharedLock() const {
    return std::shared_lock<std::shared_mutex>(catalog_mu_);
  }

  /// Number of commit sections entered so far (exclusive and sharded).
  /// Monitoring only — plan validation uses read_epoch().
  uint64_t commit_epoch() const {
    return commits_entered_.load(std::memory_order_relaxed);
  }

  /// Aggregate wall-clock time spent inside commit sections, and the
  /// number of commit sections entered. Sharded commits overlap, so
  /// held_seconds may exceed wall time at high tenancy; the per-shard
  /// breakdown below is the serialization measure. Reads are
  /// relaxed-atomic: monitors may sample concurrently, but a consistent
  /// pair requires a quiesced pool.
  struct CommitLockStats {
    uint64_t commits = 0;
    double held_seconds = 0.0;
  };
  CommitLockStats commit_lock_stats() const {
    CommitLockStats s;
    s.commits = commits_entered_.load(std::memory_order_relaxed);
    s.held_seconds =
        static_cast<double>(commit_held_ns_.load(std::memory_order_relaxed)) *
        1e-9;
    return s;
  }

  // --- commit shards ---

  /// Number of per-view commit shard locks. Views map to shards by
  /// FNV-1a of their id; a sharded commit holds the shards of its write
  /// footprint, in ascending index order.
  static constexpr int kCommitShards = 64;
  static int ShardOf(const std::string& view_id);

  /// Per-shard acquisition count and cumulative hold time. A shard's
  /// held_seconds / wall_seconds is the fraction of the run it
  /// serialized commits on its view group (bench_hotpath reports the
  /// max across shards). Relaxed-atomic sampling, like
  /// commit_lock_stats().
  struct CommitShardStats {
    uint64_t acquisitions = 0;
    double held_seconds = 0.0;
  };
  std::vector<CommitShardStats> commit_shard_stats() const;

  // --- global commit clock ---

  /// Advances the commit clock by one and returns the new value: the
  /// position of the current commit in the pool's total commit order.
  /// With a single tenant this yields the query sequence 1..N, exactly
  /// the engine-local clock it replaces; with several tenants it makes
  /// benefit decay age consistently across their interleaved commits.
  int64_t Tick(const CommitGuard& commit);
  /// Clock merge for state restore: advances to `t` when larger.
  void AdvanceClockTo(const CommitGuard& commit, int64_t t);
  int64_t clock() const { return clock_.load(std::memory_order_relaxed); }

  // --- tenant registry ---

  /// Interns `name` and returns its stable ordinal (BenefitEvent /
  /// FragmentHit stamp). "" is the pre-interned default tenant, 0.
  /// Thread-safe independently of the commit lock.
  int32_t InternTenant(const std::string& name);
  /// Name for an interned ordinal ("" for 0 or unknown ordinals).
  std::string TenantName(int32_t ord) const;
  /// All interned tenant names, indexed by ordinal.
  std::vector<std::string> Tenants() const;

  // --- fault injection ---

  /// Installs (or clears, with nullptr) the simulated FS's fault policy.
  /// Takes the commit lock itself; call from outside the commit section.
  void SetFaultPolicy(FaultPolicy* policy);

  // --- mutation API (requires a commit section; asserts in debug) ---

  /// Ensures `view` is registered as a relational catalog table with
  /// estimated logical statistics (needed by the cost estimator).
  void RegisterViewTable(ViewInfo* view);

  /// Planning-phase counterpart of RegisterViewTable: registers the
  /// table in the delta's planning catalog (deferring the real Put to
  /// the fold) and sets the delta-owned view's estimated statistics.
  /// Reads only immutable state, so it is safe under the shared lock.
  void RegisterViewTablePlanning(ViewInfo* view, PlanningDelta* delta) const;

  /// Executes a SelectionDecision transactionally: evictions first, then
  /// materializations, all staged through a rollback journal. Charges
  /// report->materialize_seconds and records in `report` every piece
  /// and byte that entered or left the pool. `ctx` supplies the current
  /// query's fragment cover (parents already read by the query are free
  /// to re-scan during repartitioning).
  ///
  /// On a storage fault the pool — view metadata, FS files, statistics —
  /// and `report` are rolled back to their pre-Apply images; then
  /// report->fault_view / fault_message identify the failed action and
  /// the fault's status is returned, so the caller can retry the whole
  /// decision (transient) or abandon it (permanent). OnEvict
  /// notifications are deferred to the transaction commit: a rolled-back
  /// attempt emits none, and its counts vanish with the report image.
  Status Apply(const SelectionDecision& decision, const QueryContext& ctx,
               QueryReport* report);

  /// Fragment-merging maintenance pass (Section 11 extension); returns
  /// the simulated seconds charged. Transactional like Apply: a fault
  /// rolls back the whole pass (and `report`) and returns its status.
  /// Requires the exclusive commit (it may touch any view).
  Result<double> RunMergePass(double t_now, const DecayFunction& decay,
                              QueryReport* report);

  // --- creation / eviction primitives (used by Apply and by state
  //     restore; exposed for direct stage tests) ---
  //
  // Each primitive orders its work "FS operation first, metadata
  // second", so a fault leaves per-piece accounting consistent (a
  // materialized flag is only set once its file exists, and only
  // cleared once its file is gone). Each records what it did in
  // `report` where it happens: bytes in at the file write, an evicted
  // piece and its bytes where the piece leaves the pool. Multi-piece
  // atomicity — undoing the pieces staged before the fault — comes from
  // the surrounding transaction: inside Apply / RunMergePass a failed
  // primitive rolls the whole decision (and `report`) back; called
  // directly, a failed primitive may leave earlier pieces in place
  // (still invariant-clean).

  /// Materializes `view` (initial partitioned creation). Returns the
  /// extra simulated seconds charged.
  Result<double> MaterializeView(ViewInfo* view, QueryReport* report);
  /// Creates one refinement fragment (overlapping or by splitting).
  Result<double> MaterializeFragment(ViewInfo* view, PartitionState* part,
                                     const Interval& iv,
                                     const QueryContext& ctx,
                                     QueryReport* report);
  /// Evicts a fragment from the pool: one OnEvict and one
  /// report->evicted_fragments per call. An eviction whose backing file
  /// is missing is a pool-accounting bug: it asserts in debug builds and
  /// returns Internal in release.
  Status EvictFragment(ViewInfo* view, PartitionState* part,
                       FragmentStats* frag, QueryReport* report);
  /// Evicts a whole view: its full materialization AND every
  /// materialized fragment, recording each piece exactly as the
  /// per-fragment path does. Returns the number of pieces evicted — 0
  /// when the view held nothing.
  Result<int> EvictWholeView(ViewInfo* view, QueryReport* report);

  // --- fault quarantine (see DESIGN.md, "Failure model and recovery") ---

  /// Records one permanent decision failure against `view_id`; once
  /// options().fault.quarantine_threshold failures accumulate, the view
  /// is quarantined until commit clock `now` + cooldown (the
  /// SelectionPlanner skips quarantined views' candidates). Successful
  /// materialization clears the record. Requires the commit section.
  void RecordViewFault(const std::string& view_id, int64_t now);

 private:
  friend class CommitGuard;

  /// Per-thread commit context: who holds a commit on which pool, in
  /// which mode, with which shards, observer, tenant stamp, publish
  /// footprint, and transaction journal. Thread-local because sharded
  /// commits run concurrently — one commit per thread.
  struct CommitCtx;
  static CommitCtx& Ctx();

  void ReleaseCommit();
  /// Common entry bookkeeping once the pool lock (X or IX) is held.
  CommitGuard EnterCommitLocked(bool exclusive, EngineObserver* observer,
                                std::string tenant, int32_t tenant_ord,
                                CommitFootprint publish_fp);
  /// Read-set validation against the published ring and the in-flight
  /// registry. Caller holds epoch_mu_.
  bool ValidateReadSetLocked(const CommitFootprint& read_fp,
                             uint64_t read_epoch,
                             bool* conflict_genuine) const;
  /// True when `admitted_bytes` of new materializations still fit the
  /// pool budget next to current occupancy plus every in-flight
  /// commit's claim. Caller holds epoch_mu_ (the in-flight registry);
  /// occupancy itself is a race-free atomic-cache sum (read under the
  /// shared catalog-structure lock — the epoch_mu_ -> catalog_mu_
  /// acquisition here fixes the one-way order between the two).
  bool AdmittedBytesFitLocked(double admitted_bytes) const;

  /// Folds `delta` into the pool under the catalog-structure lock
  /// (exclusive), remaps the pending publish footprint from placeholder
  /// to final view ids, and advances the decay windows. Apply runs it
  /// before the decision transaction.
  void FoldDeltaAndRemap(PlanningDelta* delta, double t_now);

  /// Advances timed-out-prefix cursors after a delta fold so
  /// evaluations under the shared lock stay O(in-window suffix) even
  /// for cold entries. The exclusive path advances every view; a
  /// sharded commit only advances the views of its write footprint (the
  /// ones its shards own). The cursor is an evaluation cache, never
  /// part of the pool fingerprint, so partial advancement is sound.
  void AdvanceWindowsAfterFold(double t_now);

  // --- decision transaction (stage-then-commit rollback journal) ---
  //
  // TxnBegin arms the journal (kept in the thread-local commit
  // context, so concurrent sharded commits journal independently);
  // every fs mutation goes through TxnPut / TxnDelete (which record
  // first-touch file preimages), every metadata mutation is covered by
  // TxnSnapshotView (full pre-image of the view's mutable state), and
  // OnEvict notifications queue in the context. TxnCommit flushes the
  // events and drops the journal; TxnRollback restores every
  // snapshot/preimage and discards the events. With no transaction
  // armed the helpers degrade to the plain operations (direct primitive
  // calls from tests / state restore).
  void TxnBegin();
  void TxnCommit();
  void TxnRollback();
  void TxnSnapshotView(ViewInfo* view);
  /// Writes `bytes` at `path` and adds them to
  /// report->materialized_bytes.
  Status TxnPut(const std::string& path, double bytes, QueryReport* report);
  Status TxnDelete(const std::string& path);
  /// Records one piece that left the pool: counts it (and its bytes)
  /// in `report`, and fires or queues OnEvict.
  void RecordEviction(const ViewInfo* view, const std::string& attr,
                      const Interval& interval, double bytes,
                      QueryReport* report);

  /// Apply's action loop, run inside an armed transaction. On failure
  /// sets `fault_view` to the failing action's view id and returns the
  /// fault without unwinding (Apply rolls back).
  Status ApplyStaged(const SelectionDecision& decision,
                     const QueryContext& ctx, QueryReport* report,
                     std::string* fault_view);
  /// RunMergePass's merge loop, run inside an armed transaction.
  Result<double> MergeStaged(double t_now, const DecayFunction& decay,
                             QueryReport* report);

  /// Pre-image of one view's mutable pool state. Rollback restores the
  /// partitions *in place* (per-attr assignment into the existing map
  /// nodes) so PartitionState addresses held by the decision's actions
  /// stay valid across a rollback + retry.
  struct TxnViewImage {
    ViewInfo* view = nullptr;
    bool whole_materialized = false;
    ViewStats stats;
    int fault_count = 0;
    int64_t quarantined_until = 0;
    std::map<std::string, PartitionState> partitions;
  };
  /// First-touch pre-image of one FS path.
  struct TxnFileImage {
    std::string path;
    bool existed = false;
    double bytes = 0.0;
  };
  /// One deferred OnEvict; arguments are captured at queue time so
  /// deferred firing is argument-identical to inline firing.
  struct TxnEvent {
    const ViewInfo* view = nullptr;
    std::string attr;
    Interval interval;
    double bytes = 0.0;
  };

  Catalog* catalog_;
  const EngineOptions* options_;
  const ClusterModel* cluster_;
  const PlanCostEstimator* estimator_;
  SimFs fs_;
  ViewCatalog views_;
  FilterTree rewrite_index_;
  DecayFunction decay_;  ///< pool-side decay (cursor advancement)
  std::atomic<int64_t> clock_{0};  ///< advanced only inside commit sections

  /// Commit-section accounting (see commit_lock_stats()).
  std::atomic<uint64_t> commits_entered_{0};
  std::atomic<int64_t> commit_held_ns_{0};

  /// The pool lock (S planning / IX sharded commit / X exclusive
  /// commit).
  mutable PoolLock lock_;

  /// Catalog-*structure* lock. Sharded commits now fold structural
  /// deltas (ViewCatalog::Adopt, Catalog::Put, FilterTree::Insert) —
  /// and IX admits IX, so two folds, or a fold and a foreign commit
  /// reading catalog structure (estimators resolving tables, occupancy
  /// sums, AdvanceWindowsAfterFold id lookups), can overlap. Folds hold
  /// this exclusively (short: metadata only); mid-commit readers hold
  /// it shared. Per-view statistics and fragment state are NOT under
  /// it — the commit shards own those. Leaf-ish: may be acquired while
  /// holding epoch_mu_ or shard locks, never the other way around;
  /// non-reentrant (release exclusive before any shared section).
  mutable std::shared_mutex catalog_mu_;

  /// Placeholder-id source for ViewIdReservation block leases.
  std::atomic<int64_t> placeholder_counter_{0};

  /// Per-view-group commit shard locks and their accounting. Plain
  /// mutexes: holders are IX commits, which the pool lock already
  /// isolates from planners and X commits.
  std::array<std::mutex, kCommitShards> shard_mu_;
  struct ShardAccounting {
    std::atomic<uint64_t> acquisitions{0};
    std::atomic<int64_t> held_ns{0};
  };
  std::array<ShardAccounting, kCommitShards> shard_acct_;

  // --- commit epoch table (leaf lock: epoch_mu_ nests inside the pool
  //     lock and the shard locks, and never acquires anything) ---

  mutable std::mutex epoch_mu_;
  /// Sequence number of the latest *published* write footprint. Commits
  /// publishing an empty footprint do not advance it.
  std::atomic<uint64_t> commit_seq_{0};
  struct PublishedWrite {
    uint64_t seq = 0;
    CommitFootprint fp;
  };
  /// Bounded ring of recent publishes, oldest first. A plan whose
  /// read_epoch fell off the ring is invalidated conservatively
  /// (counted as spurious by the engine).
  std::deque<PublishedWrite> published_;
  static constexpr size_t kEpochRingCapacity = 128;
  /// Write footprints (and budget claims) of in-flight sharded commits
  /// (registered at validation, removed at publish). Validation checks
  /// them so a plan never validates against a half-applied foreign
  /// commit, and so concurrent materializations cannot jointly
  /// overshoot the pool budget.
  struct InflightCommit {
    uint64_t id = 0;
    CommitFootprint fp;
    double admitted_bytes = 0.0;
  };
  std::vector<InflightCommit> inflight_;
  uint64_t next_inflight_id_ = 1;

  /// Guards the tenant registry alone — never held together with the
  /// pool lock, so InternTenant is callable from any context (including
  /// inside a commit, e.g. during LoadState).
  mutable std::mutex tenant_mu_;
  std::vector<std::string> tenants_{std::string()};
};

}  // namespace deepsea

#endif  // DEEPSEA_CORE_POOL_MANAGER_H_
