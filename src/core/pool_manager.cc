#include "core/pool_manager.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/str_util.h"
#include "core/merge.h"
#include "core/view_sizing.h"

namespace deepsea {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sorted, deduplicated shard indices of every view a write footprint
/// touches. `all` footprints have no shard set (they take the X path).
std::vector<int> ShardSetOf(const CommitFootprint& fp) {
  std::vector<int> shards;
  auto add = [&shards](const std::string& view_id) {
    shards.push_back(PoolManager::ShardOf(view_id));
  };
  for (const std::string& v : fp.views) add(v);
  for (const auto& [v, attr] : fp.partitions) {
    (void)attr;
    add(v);
  }
  for (const CommitFootprint::FragRange& f : fp.fragments) add(f.view);
  std::sort(shards.begin(), shards.end());
  shards.erase(std::unique(shards.begin(), shards.end()), shards.end());
  return shards;
}

}  // namespace

// --- PoolLock ---

void PoolLock::LockShared() {
  std::unique_lock<std::mutex> lock(mu_);
  // A waiting commit (X or IX) bars new shared entrants: without this a
  // steady stream of planners across many tenants could hold shared_ >
  // 0 forever and starve commits indefinitely.
  cv_.wait(lock, [this] {
    return intent_ == 0 && intent_waiting_ == 0 && !exclusive_ &&
           exclusive_waiting_ == 0;
  });
  ++shared_;
}

void PoolLock::UnlockShared() {
  std::lock_guard<std::mutex> lock(mu_);
  assert(shared_ > 0);
  if (--shared_ == 0) cv_.notify_all();
}

void PoolLock::LockIntent() {
  std::unique_lock<std::mutex> lock(mu_);
  // Registered as waiting so new shared entrants hold back (see
  // LockShared); existing shared holders drain, then we enter. A
  // waiting X still has priority over us.
  ++intent_waiting_;
  cv_.wait(lock, [this] {
    return shared_ == 0 && !exclusive_ && exclusive_waiting_ == 0;
  });
  --intent_waiting_;
  ++intent_;
}

void PoolLock::UnlockIntent() {
  std::lock_guard<std::mutex> lock(mu_);
  assert(intent_ > 0);
  if (--intent_ == 0) cv_.notify_all();
}

void PoolLock::LockExclusive() {
  std::unique_lock<std::mutex> lock(mu_);
  ++exclusive_waiting_;
  cv_.wait(lock, [this] { return shared_ == 0 && intent_ == 0 && !exclusive_; });
  --exclusive_waiting_;
  exclusive_ = true;
}

void PoolLock::UnlockExclusive() {
  std::lock_guard<std::mutex> lock(mu_);
  assert(exclusive_);
  exclusive_ = false;
  cv_.notify_all();
}

// --- construction / teardown ---

PoolManager::PoolManager(Catalog* catalog, const EngineOptions* options,
                         const ClusterModel* cluster,
                         const PlanCostEstimator* estimator)
    : catalog_(catalog),
      options_(options),
      cluster_(cluster),
      estimator_(estimator),
      fs_(options->cluster.block_bytes),
      decay_(options->decay) {}

// --- commit context ---

struct PoolManager::CommitCtx {
  PoolManager* pool = nullptr;  ///< non-null while this thread commits
  bool exclusive = false;       ///< X (true) vs sharded IX (false)
  std::vector<int> shards;      ///< held shard indices, ascending
  CommitFootprint publish_fp;   ///< published to the epoch table on release
  uint64_t inflight_id = 0;     ///< in-flight registry key (sharded only)
  int64_t entered_ns = 0;
  EngineObserver* observer = nullptr;
  std::string tenant;
  int32_t tenant_ord = 0;
  bool txn_active = false;
  std::vector<TxnViewImage> txn_views;
  std::vector<TxnFileImage> txn_files;
  std::vector<TxnEvent> txn_events;
};

PoolManager::CommitCtx& PoolManager::Ctx() {
  static thread_local CommitCtx ctx;
  return ctx;
}

void CommitGuard::Release() {
  if (pool_ == nullptr) return;
  pool_->ReleaseCommit();
  pool_ = nullptr;
}

CommitGuard PoolManager::EnterCommitLocked(bool exclusive,
                                           EngineObserver* observer,
                                           std::string tenant,
                                           int32_t tenant_ord,
                                           CommitFootprint publish_fp) {
  CommitCtx& ctx = Ctx();
  assert(ctx.pool == nullptr);
  ctx.pool = this;
  ctx.exclusive = exclusive;
  ctx.publish_fp = std::move(publish_fp);
  ctx.inflight_id = 0;
  ctx.entered_ns = NowNs();
  ctx.observer = observer;
  ctx.tenant = std::move(tenant);
  ctx.tenant_ord = tenant_ord;
  commits_entered_.fetch_add(1, std::memory_order_relaxed);
  return CommitGuard(this);
}

CommitGuard PoolManager::BeginCommit(EngineObserver* observer,
                                     std::string tenant, int32_t tenant_ord) {
  assert(!CommitHeldByThisThread() && "commit section is not re-entrant");
  lock_.LockExclusive();
  CommitFootprint everything;
  everything.all = true;
  return EnterCommitLocked(/*exclusive=*/true, observer, std::move(tenant),
                           tenant_ord, std::move(everything));
}

CommitGuard PoolManager::TryBeginShardedCommit(
    EngineObserver* observer, std::string tenant, int32_t tenant_ord,
    CommitFootprint write_fp, const CommitFootprint& read_fp,
    uint64_t read_epoch, bool* conflict_genuine, double admitted_bytes) {
  assert(!CommitHeldByThisThread() && "commit section is not re-entrant");
  if (write_fp.all) {
    // A structural (`all`) footprint has no shard set: entering under
    // IX would publish `all` while holding no per-view serialization at
    // all. Refuse (defined behavior in release builds, unlike the old
    // debug-only assert) so the caller escalates to BeginCommit.
    if (conflict_genuine != nullptr) *conflict_genuine = true;
    return CommitGuard();
  }
  lock_.LockIntent();
  std::vector<int> shards = ShardSetOf(write_fp);
  for (int s : shards) {
    shard_mu_[static_cast<size_t>(s)].lock();
    shard_acct_[static_cast<size_t>(s)].acquisitions.fetch_add(
        1, std::memory_order_relaxed);
  }
  uint64_t inflight_id = 0;
  {
    std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
    bool ok = ValidateReadSetLocked(read_fp, read_epoch, conflict_genuine);
    if (ok && !AdmittedBytesFitLocked(admitted_bytes)) {
      ok = false;
      // Lost headroom is a genuine conflict: the pool really did grow
      // under this plan's feet.
      if (conflict_genuine != nullptr) *conflict_genuine = true;
    }
    if (!ok) {
      // Conflict: undo the entry (shards in reverse order, then IX) and
      // let the caller escalate to the exclusive path.
      for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
        shard_mu_[static_cast<size_t>(*it)].unlock();
      }
      lock_.UnlockIntent();
      return CommitGuard();
    }
    // Register the write set while still under epoch_mu_, so no other
    // commit can validate in the window between our validation and our
    // registration.
    inflight_id = next_inflight_id_++;
    inflight_.push_back(InflightCommit{inflight_id, write_fp, admitted_bytes});
  }
  if (conflict_genuine != nullptr) *conflict_genuine = false;
  CommitGuard guard = EnterCommitLocked(/*exclusive=*/false, observer,
                                        std::move(tenant), tenant_ord,
                                        std::move(write_fp));
  CommitCtx& ctx = Ctx();
  ctx.shards = std::move(shards);
  ctx.inflight_id = inflight_id;
  return guard;
}

void PoolManager::ReleaseCommit() {
  CommitCtx& ctx = Ctx();
  assert(ctx.pool == this);
  assert(!ctx.txn_active && "commit released with an open pool transaction");
  const int64_t now_ns = NowNs();
  commit_held_ns_.fetch_add(now_ns - ctx.entered_ns, std::memory_order_relaxed);
  {
    // Publish the write footprint (and retire the in-flight entry)
    // BEFORE dropping any lock: once another commit can validate, the
    // epoch table must already cover this commit's writes.
    std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
    if (ctx.inflight_id != 0) {
      for (auto it = inflight_.begin(); it != inflight_.end(); ++it) {
        if (it->id == ctx.inflight_id) {
          inflight_.erase(it);
          break;
        }
      }
    }
    if (!ctx.publish_fp.Empty()) {
      const uint64_t seq = commit_seq_.load(std::memory_order_relaxed) + 1;
      published_.push_back(PublishedWrite{seq, std::move(ctx.publish_fp)});
      if (published_.size() > kEpochRingCapacity) published_.pop_front();
      commit_seq_.store(seq, std::memory_order_release);
    }
  }
  for (auto it = ctx.shards.rbegin(); it != ctx.shards.rend(); ++it) {
    shard_acct_[static_cast<size_t>(*it)].held_ns.fetch_add(
        now_ns - ctx.entered_ns, std::memory_order_relaxed);
    shard_mu_[static_cast<size_t>(*it)].unlock();
  }
  const bool exclusive = ctx.exclusive;
  ctx = CommitCtx{};
  if (exclusive) {
    lock_.UnlockExclusive();
  } else {
    lock_.UnlockIntent();
  }
}

bool PoolManager::ValidateReadSetLocked(const CommitFootprint& read_fp,
                                        uint64_t read_epoch,
                                        bool* conflict_genuine) const {
  const uint64_t seq_now = commit_seq_.load(std::memory_order_relaxed);
  // An empty read set conflicts with nothing, so ring coverage is moot.
  if (seq_now > read_epoch && !read_fp.Empty()) {
    // Can the bounded ring still cover everything published after the
    // plan's read epoch? If the oldest retained publish is newer than
    // read_epoch + 1, publishes have been dropped and we must assume
    // the worst (a spurious invalidation, by construction).
    const uint64_t oldest =
        published_.empty() ? seq_now + 1 : published_.front().seq;
    if (oldest > read_epoch + 1) {
      if (conflict_genuine != nullptr) *conflict_genuine = false;
      return false;
    }
    for (const PublishedWrite& p : published_) {
      if (p.seq <= read_epoch) continue;
      if (FootprintsConflict(read_fp, p.fp)) {
        if (conflict_genuine != nullptr) *conflict_genuine = true;
        return false;
      }
    }
  }
  for (const InflightCommit& c : inflight_) {
    if (FootprintsConflict(read_fp, c.fp)) {
      if (conflict_genuine != nullptr) *conflict_genuine = true;
      return false;
    }
  }
  return true;
}

bool PoolManager::AdmittedBytesFitLocked(double admitted_bytes) const {
  if (admitted_bytes <= 0.0) return true;
  double claimed = 0.0;
  for (const InflightCommit& c : inflight_) claimed += c.admitted_bytes;
  // Occupancy under the shared catalog-structure lock: a foreign
  // sharded commit's fold may be adopting views into the catalog's
  // list concurrently. (epoch_mu_ -> catalog_mu_ is the sanctioned
  // order; folds never touch epoch_mu_.)
  double occupancy;
  {
    std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    occupancy = views_.PoolBytes();
  }
  // The tolerance absorbs float-summation-order differences between the
  // knapsack's sequential budget subtraction and the per-view occupancy
  // cache sum, so a solo tenant whose plan exactly fills the budget is
  // never invalidated by rounding.
  const double limit = options_->pool_limit_bytes;
  return occupancy + claimed + admitted_bytes <= limit + 1e-9 * limit;
}

bool PoolManager::ValidateReadSet(const CommitGuard& commit,
                                  const CommitFootprint& read_fp,
                                  uint64_t read_epoch, bool* conflict_genuine,
                                  double admitted_bytes) const {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  if (!ValidateReadSetLocked(read_fp, read_epoch, conflict_genuine)) {
    return false;
  }
  if (!AdmittedBytesFitLocked(admitted_bytes)) {
    if (conflict_genuine != nullptr) *conflict_genuine = true;
    return false;
  }
  if (conflict_genuine != nullptr) *conflict_genuine = false;
  return true;
}

void PoolManager::SetCommitFootprint(const CommitGuard& commit,
                                     CommitFootprint fp) {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  CommitCtx& ctx = Ctx();
  // A sharded commit already registered its footprint in the in-flight
  // table; only the exclusive path may narrow what it publishes.
  assert(ctx.exclusive && "SetCommitFootprint is for exclusive commits");
  ctx.publish_fp = std::move(fp);
}

bool PoolManager::CommitHeldByThisThread() const {
  return Ctx().pool == this;
}

int PoolManager::ShardOf(const std::string& view_id) {
  // FNV-1a.
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : view_id) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % static_cast<uint64_t>(kCommitShards));
}

std::vector<PoolManager::CommitShardStats> PoolManager::commit_shard_stats()
    const {
  std::vector<CommitShardStats> out(kCommitShards);
  for (int i = 0; i < kCommitShards; ++i) {
    const ShardAccounting& a = shard_acct_[static_cast<size_t>(i)];
    out[static_cast<size_t>(i)].acquisitions =
        a.acquisitions.load(std::memory_order_relaxed);
    out[static_cast<size_t>(i)].held_seconds =
        static_cast<double>(a.held_ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  return out;
}

ViewCatalog* PoolManager::stat(const CommitGuard& commit) {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  return &views_;
}

SimFs* PoolManager::fs(const CommitGuard& commit) {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  return &fs_;
}

FilterTree* PoolManager::rewrite_index(const CommitGuard& commit) {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  return &rewrite_index_;
}

double PoolManager::PoolBytesSnapshot() const {
  PoolSharedLock lock(&lock_);
#ifndef NDEBUG
  // The cached per-view byte counters must agree with a fresh walk of
  // the fragment lists whenever the pool is quiescent for writes (S
  // mode excludes every commit).
  const double cached = views_.PoolBytes();
  const double exact = views_.PoolBytesExact();
  assert(std::abs(cached - exact) <=
             1e-6 * std::max(1.0, std::max(std::abs(cached), std::abs(exact))) &&
         "cached pool bytes out of sync with fragment state");
#endif
  return views_.PoolBytes();
}

int64_t PoolManager::Tick(const CommitGuard& commit) {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  return clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void PoolManager::AdvanceClockTo(const CommitGuard& commit, int64_t t) {
  assert(commit.held() && CommitHeldByThisThread());
  (void)commit;
  int64_t cur = clock_.load(std::memory_order_relaxed);
  while (t > cur &&
         !clock_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
  }
}

int32_t PoolManager::InternTenant(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  for (size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i] == name) return static_cast<int32_t>(i);
  }
  tenants_.push_back(name);
  return static_cast<int32_t>(tenants_.size() - 1);
}

std::string PoolManager::TenantName(int32_t ord) const {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  if (ord < 0 || static_cast<size_t>(ord) >= tenants_.size()) return "";
  return tenants_[static_cast<size_t>(ord)];
}

std::vector<std::string> PoolManager::Tenants() const {
  std::lock_guard<std::mutex> lock(tenant_mu_);
  return tenants_;
}

void PoolManager::SetFaultPolicy(FaultPolicy* policy) {
  CommitGuard commit = BeginCommit();
  fs_.set_fault_policy(policy);
}

void PoolManager::RegisterViewTable(ViewInfo* view) {
  assert(CommitHeldByThisThread());
  if (catalog_->Contains(view->id)) return;
  auto schema = view->plan->OutputSchema(*catalog_);
  if (!schema.ok()) return;
  auto est = estimator_->Estimate(view->plan);
  if (!est.ok()) return;
  const double compression = options_->view_storage_compression;
  auto table = std::make_shared<Table>(view->id, *schema);
  table->set_logical_row_count(static_cast<uint64_t>(std::max(est->out_rows, 0.0)));
  table->set_avg_row_bytes(std::max(est->avg_row_bytes * compression, 1.0));
  catalog_->Put(table);
  // Initial (estimated) view statistics: S(V) and COST(V). COST is the
  // cost of computing the defining plan plus writing its (compressed)
  // output.
  view->stats.size_bytes = est->out_bytes * compression;
  view->stats.creation_cost =
      est->seconds + cluster_->WriteSeconds(view->stats.size_bytes);
}

void PoolManager::RegisterViewTablePlanning(ViewInfo* view,
                                            PlanningDelta* delta) const {
  Catalog* planning = delta->planning_catalog();
  if (planning->Contains(view->id)) return;
  auto schema = view->plan->OutputSchema(*planning);
  if (!schema.ok()) return;
  auto est = estimator_->Estimate(view->plan);
  if (!est.ok()) return;
  const double compression = options_->view_storage_compression;
  auto table = std::make_shared<Table>(view->id, *schema);
  table->set_logical_row_count(static_cast<uint64_t>(std::max(est->out_rows, 0.0)));
  table->set_avg_row_bytes(std::max(est->avg_row_bytes * compression, 1.0));
  planning->Put(table);
  delta->DeferCatalogPut(std::move(table));
  view->stats.size_bytes = est->out_bytes * compression;
  view->stats.creation_cost =
      est->seconds + cluster_->WriteSeconds(view->stats.size_bytes);
}

void PoolManager::AdvanceWindowsAfterFold(double t_now) {
  assert(CommitHeldByThisThread());
  CommitCtx& ctx = Ctx();
  auto advance = [this, t_now](ViewInfo* v) {
    v->stats.AdvanceWindow(t_now, decay_);
    for (auto& [attr, part] : v->partitions) {
      (void)attr;
      for (FragmentStats& f : part.fragments) f.AdvanceWindow(t_now, decay_);
    }
  };
  if (ctx.exclusive) {
    for (ViewInfo* v : views_.AllViews()) advance(v);
    return;
  }
  // A sharded commit may only touch the views whose shards it holds:
  // advance exactly the write footprint. Foreign views' cursors advance
  // when their own commits fold — the cursor is an evaluation cache,
  // never part of the pool fingerprint, so partial advancement is
  // sound.
  const CommitFootprint& fp = ctx.publish_fp;
  std::vector<std::string> ids = fp.views;
  for (const auto& [v, attr] : fp.partitions) {
    (void)attr;
    ids.push_back(v);
  }
  for (const CommitFootprint::FragRange& f : fp.fragments) ids.push_back(f.view);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  // Shared hold on the structure lock: the id lookups walk ViewCatalog
  // maps a concurrent foreign fold may be growing.
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  for (const std::string& id : ids) {
    ViewInfo* v = views_.Get(id);
    if (v != nullptr) advance(v);
  }
}

// --- decision transaction ---

void PoolManager::TxnBegin() {
  assert(CommitHeldByThisThread());
  CommitCtx& ctx = Ctx();
  assert(!ctx.txn_active && "pool transactions do not nest");
  ctx.txn_active = true;
}

void PoolManager::TxnCommit() {
  CommitCtx& ctx = Ctx();
  assert(ctx.txn_active);
  ctx.txn_active = false;
  if (ctx.observer != nullptr) {
    for (const TxnEvent& e : ctx.txn_events) {
      ctx.observer->OnEvict(*e.view, e.attr, e.interval, e.bytes, ctx.tenant);
    }
  }
  ctx.txn_events.clear();
  ctx.txn_views.clear();
  ctx.txn_files.clear();
}

void PoolManager::TxnRollback() {
  CommitCtx& ctx = Ctx();
  assert(ctx.txn_active);
  ctx.txn_active = false;
  // Restore view metadata in reverse snapshot order. Partitions are
  // restored in place so PartitionState addresses survive (the retried
  // decision's actions point at them).
  for (auto it = ctx.txn_views.rbegin(); it != ctx.txn_views.rend(); ++it) {
    ViewInfo* v = it->view;
    v->whole_materialized = it->whole_materialized;
    v->stats = it->stats;
    v->fault_count = it->fault_count;
    v->quarantined_until = it->quarantined_until;
    for (auto pit = v->partitions.begin(); pit != v->partitions.end();) {
      auto img = it->partitions.find(pit->first);
      if (img == it->partitions.end()) {
        // Partition added after the snapshot: remove it again.
        pit = v->partitions.erase(pit);
      } else {
        pit->second = img->second;
        ++pit;
      }
    }
    for (const auto& [attr, part] : it->partitions) {
      if (v->partitions.count(attr) == 0) v->partitions.emplace(attr, part);
    }
    v->RefreshCachedBytes();
  }
  for (auto it = ctx.txn_files.rbegin(); it != ctx.txn_files.rend(); ++it) {
    fs_.RestoreForRollback(it->path, it->existed, it->bytes);
  }
  ctx.txn_events.clear();
  ctx.txn_views.clear();
  ctx.txn_files.clear();
}

void PoolManager::TxnSnapshotView(ViewInfo* view) {
  CommitCtx& ctx = Ctx();
  if (!ctx.txn_active) return;
  for (const TxnViewImage& img : ctx.txn_views) {
    if (img.view == view) return;  // first touch already captured
  }
  TxnViewImage img;
  img.view = view;
  img.whole_materialized = view->whole_materialized;
  img.stats = view->stats;
  img.fault_count = view->fault_count;
  img.quarantined_until = view->quarantined_until;
  img.partitions = view->partitions;
  ctx.txn_views.push_back(std::move(img));
}

Status PoolManager::TxnPut(const std::string& path, double bytes,
                           QueryReport* report) {
  CommitCtx& ctx = Ctx();
  if (!ctx.txn_active) {
    DEEPSEA_RETURN_IF_ERROR(fs_.Put(path, bytes));
    report->materialized_bytes += bytes;
    return Status::OK();
  }
  bool have = false;
  for (const TxnFileImage& img : ctx.txn_files) {
    if (img.path == path) {
      have = true;
      break;
    }
  }
  TxnFileImage img;
  if (!have) {
    auto size = fs_.Size(path);
    img.path = path;
    img.existed = size.ok();
    img.bytes = size.ok() ? *size : 0.0;
  }
  DEEPSEA_RETURN_IF_ERROR(fs_.Put(path, bytes));
  if (!have) ctx.txn_files.push_back(std::move(img));
  report->materialized_bytes += bytes;
  return Status::OK();
}

Status PoolManager::TxnDelete(const std::string& path) {
  CommitCtx& ctx = Ctx();
  if (!ctx.txn_active) return fs_.Delete(path);
  bool have = false;
  for (const TxnFileImage& img : ctx.txn_files) {
    if (img.path == path) {
      have = true;
      break;
    }
  }
  TxnFileImage img;
  if (!have) {
    auto size = fs_.Size(path);
    img.path = path;
    img.existed = size.ok();
    img.bytes = size.ok() ? *size : 0.0;
  }
  DEEPSEA_RETURN_IF_ERROR(fs_.Delete(path));
  if (!have) ctx.txn_files.push_back(std::move(img));
  return Status::OK();
}

void PoolManager::RecordEviction(const ViewInfo* view, const std::string& attr,
                                 const Interval& interval, double bytes,
                                 QueryReport* report) {
  ++report->evicted_fragments;
  report->evicted_bytes += bytes;
  CommitCtx& ctx = Ctx();
  if (ctx.observer == nullptr) return;
  if (ctx.txn_active) {
    ctx.txn_events.push_back(TxnEvent{view, attr, interval, bytes});
    return;
  }
  ctx.observer->OnEvict(*view, attr, interval, bytes, ctx.tenant);
}

// --- creation / eviction primitives ---

Result<double> PoolManager::MaterializeView(ViewInfo* view,
                                            QueryReport* report) {
  assert(CommitHeldByThisThread());
  TxnSnapshotView(view);
  // Determine the partition attribute: the one with pending state.
  std::string attr;
  for (const auto& [a, p] : view->partitions) {
    (void)p;
    attr = a;
    break;
  }
  double extra_seconds = 0.0;
  auto est = estimator_->Estimate(view->plan);
  const double view_bytes = est.ok()
                                ? est->out_bytes * options_->view_storage_compression
                                : view->stats.size_bytes;
  // Set size *before* fragmentation: FragmentBytes / ApplyFragmentBounds
  // scale fragments by stats.size_bytes. A fault below rolls this back.
  view->stats.size_bytes = view_bytes;
  view->stats.size_is_actual = true;

  if (attr.empty() || options_->strategy == StrategyKind::kNoPartition) {
    // Whole-view materialization (NP).
    const std::string path = StrFormat("pool/%s/full", view->id.c_str());
    assert(!fs_.Exists(path) && "double materialization of whole view");
    DEEPSEA_RETURN_IF_ERROR(TxnPut(path, view_bytes, report));
    view->whole_materialized = true;
    extra_seconds = cluster_->PartitionedWriteSeconds(view_bytes, 1);
  } else {
    PartitionState* part = view->GetPartition(attr);
    std::vector<Interval> frags = ApplyFragmentBounds(
        *catalog_, *options_, *view, attr,
        InitialFragmentation(*catalog_, *options_, view, attr));
    for (const Interval& iv : frags) {
      const double bytes = FragmentBytes(*catalog_, *view, attr, iv);
      FragmentStats* fstat = part->Track(iv, bytes);
      fstat->size_bytes = bytes;
      const std::string path = FragmentPath(*view, attr, iv);
      assert(!fs_.Exists(path) && "double materialization of fragment");
      DEEPSEA_RETURN_IF_ERROR(TxnPut(path, bytes, report));
      fstat->materialized = true;
      ++report->created_fragments;
    }
    extra_seconds = cluster_->PartitionedWriteSeconds(
        view_bytes, static_cast<int64_t>(frags.size()));
  }
  // Actual creation cost: computing the defining plan (done as part of
  // the instrumented query) plus the durable partitioned write.
  view->stats.creation_cost =
      (est.ok() ? est->seconds : view->stats.creation_cost) + extra_seconds;
  view->stats.cost_is_actual = true;
  // A successful materialization proves the storage path works again.
  view->fault_count = 0;
  view->quarantined_until = 0;
  view->RefreshCachedBytes();
  report->created_views.push_back(view->id);
  return extra_seconds;
}

Result<double> PoolManager::MaterializeFragment(ViewInfo* view,
                                                PartitionState* part,
                                                const Interval& iv,
                                                const QueryContext& ctx,
                                                QueryReport* report) {
  assert(CommitHeldByThisThread());
  TxnSnapshotView(view);
  const std::string& attr = part->attr;
  double seconds = 0.0;
  // Fragments currently materialized that overlap the new one. Tracked
  // by interval, not pointer: Track() below may grow the fragment
  // vector and invalidate references.
  std::vector<Interval> parents;
  std::vector<double> parent_bytes_to_read;
  const bool cover_matches =
      view->id == ctx.cover_view() && attr == ctx.cover_attr();
  for (const FragmentStats& f : part->fragments) {
    if (f.materialized && f.interval.Overlaps(iv) && f.interval != iv) {
      parents.push_back(f.interval);
      // Parents the current query's cover already read are free to
      // re-scan: the partition operator forks the new fragment off the
      // same map stream (repartitioning as a by-product of answering).
      const bool read_by_query = cover_matches && ctx.CoverContains(f.interval);
      if (!read_by_query) parent_bytes_to_read.push_back(f.size_bytes);
    }
  }
  // Read the overlapping parents (not already streamed by the query) to
  // extract the new fragment's rows.
  seconds += cluster_->MapPhaseSeconds(parent_bytes_to_read);

  const double bytes = FragmentBytes(*catalog_, *view, attr, iv);
  FragmentStats* fstat = part->Track(iv, bytes);
  fstat->size_bytes = bytes;
  const std::string frag_path = FragmentPath(*view, attr, iv);
  assert(!fs_.Exists(frag_path) && "double materialization of fragment");
  DEEPSEA_RETURN_IF_ERROR(TxnPut(frag_path, bytes, report));
  fstat->materialized = true;
  ++report->created_fragments;
  seconds += cluster_->PartitionedWriteSeconds(bytes, 1);

  if (!options_->overlapping_fragments) {
    // Horizontal partitioning: the parents must be split — their whole
    // content is rewritten as complement pieces and the parents evicted
    // (Section 1, "Overlapping Fragments": the split cost DeepSea's
    // overlapping mode avoids).
    for (const Interval& p : parents) {
      std::vector<Interval> pieces;
      auto [left, rest] = p.SplitBefore(iv.lo);
      if (!left.IsEmpty() && left.Width() > 0.0 && !iv.Contains(left)) {
        pieces.push_back(left);
      }
      auto [rest2, right] = p.SplitAfter(iv.hi);
      (void)rest;
      (void)rest2;
      if (!right.IsEmpty() && right.Width() > 0.0 && !iv.Contains(right)) {
        pieces.push_back(right);
      }
      for (const Interval& piece : pieces) {
        const double piece_bytes = FragmentBytes(*catalog_, *view, attr, piece);
        FragmentStats* pstat = part->Track(piece, piece_bytes);
        pstat->size_bytes = piece_bytes;
        DEEPSEA_RETURN_IF_ERROR(
            TxnPut(FragmentPath(*view, attr, piece), piece_bytes, report));
        pstat->materialized = true;
        ++report->created_fragments;
        seconds += cluster_->PartitionedWriteSeconds(piece_bytes, 1);
      }
      // Re-resolve the parent after the Track calls above (the fragment
      // vector may have been reallocated).
      FragmentStats* parent_stat = part->Find(p);
      if (parent_stat != nullptr) {
        DEEPSEA_RETURN_IF_ERROR(EvictFragment(view, part, parent_stat, report));
      }
    }
  }
  // A successful refinement proves the storage path works again.
  view->fault_count = 0;
  view->quarantined_until = 0;
  view->RefreshCachedBytes();
  return seconds;
}

Status PoolManager::EvictFragment(ViewInfo* view, PartitionState* part,
                                  FragmentStats* frag, QueryReport* report) {
  assert(CommitHeldByThisThread());
  if (!frag->materialized) return Status::OK();
  TxnSnapshotView(view);
  const std::string path = FragmentPath(*view, part->attr, frag->interval);
  Status st = TxnDelete(path);
  if (st.code() == StatusCode::kNotFound) {
    // A materialized fragment without a backing file is a pool-
    // accounting bug, not a storage fault: surface it loudly instead of
    // silently dropping the delete.
    assert(false && "evicting fragment whose pool file is missing");
    return Status::Internal("eviction of missing pool file: " + path);
  }
  DEEPSEA_RETURN_IF_ERROR(st);
  frag->materialized = false;
  view->RefreshCachedBytes();
  RecordEviction(view, part->attr, frag->interval, frag->size_bytes, report);
  return Status::OK();
}

Result<int> PoolManager::EvictWholeView(ViewInfo* view, QueryReport* report) {
  assert(CommitHeldByThisThread());
  TxnSnapshotView(view);
  int evicted = 0;
  // Materialized fragments go first, through the same per-fragment path
  // policy evictions use.
  for (auto& [attr, part] : view->partitions) {
    (void)attr;
    for (FragmentStats& f : part.fragments) {
      if (!f.materialized) continue;
      DEEPSEA_RETURN_IF_ERROR(EvictFragment(view, &part, &f, report));
      ++evicted;
    }
  }
  if (view->whole_materialized) {
    const std::string path = StrFormat("pool/%s/full", view->id.c_str());
    Status st = TxnDelete(path);
    if (st.code() == StatusCode::kNotFound) {
      assert(false && "evicting whole view whose pool file is missing");
      return Status::Internal("eviction of missing pool file: " + path);
    }
    DEEPSEA_RETURN_IF_ERROR(st);
    view->whole_materialized = false;
    ++evicted;
    view->RefreshCachedBytes();
    RecordEviction(view, "", Interval(), view->stats.size_bytes, report);
  }
  return evicted;
}

void PoolManager::RecordViewFault(const std::string& view_id, int64_t now) {
  assert(CommitHeldByThisThread());
  ViewInfo* view;
  {
    // The id lookup reads ViewCatalog structure a concurrent foreign
    // fold may be growing; the view's own fields are shard-protected.
    std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    view = views_.Get(view_id);
  }
  if (view == nullptr) return;
  ++view->fault_count;
  const FaultHandlingConfig& fault = options_->fault;
  if (fault.quarantine_threshold > 0 &&
      view->fault_count >= fault.quarantine_threshold) {
    view->quarantined_until = now + fault.quarantine_cooldown_commits;
    view->fault_count = 0;
  }
}

// --- decision execution ---

Status PoolManager::ApplyStaged(const SelectionDecision& decision,
                                const QueryContext& ctx, QueryReport* report,
                                std::string* fault_view) {
  // Admitted initial fragments are created together per view (one
  // instrumented partitioned write). Charge order is the order views
  // first appear in the decision's actions — a pure function of the
  // planner's output. A pointer-keyed map here would order the charges
  // (and created_views) by heap address, which varies across runs and
  // threads even for identical commit orders.
  struct NewViewWork {
    double bytes = 0.0;
    int64_t count = 0;
  };
  std::vector<std::pair<ViewInfo*, NewViewWork>> new_view_work;
  auto work_for = [&new_view_work](ViewInfo* view) -> NewViewWork& {
    for (auto& [v, work] : new_view_work) {
      if (v == view) return work;
    }
    new_view_work.emplace_back(view, NewViewWork{});
    return new_view_work.back().second;
  };

  for (const SelectionAction& a : decision.actions) {
    *fault_view = a.view != nullptr ? a.view->id : "";
    switch (a.kind) {
      case SelectionAction::Kind::kEvictWholeView:
        DEEPSEA_RETURN_IF_ERROR(EvictWholeView(a.view, report).status());
        break;
      case SelectionAction::Kind::kEvictFragment: {
        FragmentStats* f = a.part->Find(a.interval);
        if (f != nullptr && f->materialized) {
          DEEPSEA_RETURN_IF_ERROR(EvictFragment(a.view, a.part, f, report));
        }
        break;
      }
      case SelectionAction::Kind::kMaterializeView: {
        DEEPSEA_ASSIGN_OR_RETURN(double seconds,
                                 MaterializeView(a.view, report));
        report->materialize_seconds += seconds;
        break;
      }
      case SelectionAction::Kind::kMaterializeRefinement: {
        DEEPSEA_ASSIGN_OR_RETURN(
            double seconds,
            MaterializeFragment(a.view, a.part, a.interval, ctx, report));
        report->materialize_seconds += seconds;
        break;
      }
      case SelectionAction::Kind::kMaterializeViewFragment: {
        FragmentStats* f = a.part->Find(a.interval);
        if (f == nullptr || f->materialized) continue;
        TxnSnapshotView(a.view);
        f->size_bytes = a.size_bytes;
        const std::string path =
            FragmentPath(*a.view, a.part->attr, a.interval);
        assert(!fs_.Exists(path) && "double materialization of fragment");
        DEEPSEA_RETURN_IF_ERROR(TxnPut(path, a.size_bytes, report));
        f->materialized = true;
        ++report->created_fragments;
        a.view->RefreshCachedBytes();
        NewViewWork& work = work_for(a.view);
        work.bytes += a.size_bytes;
        work.count += 1;
        break;
      }
    }
  }
  fault_view->clear();

  for (auto& [view, work] : new_view_work) {
    TxnSnapshotView(view);
    const double extra =
        cluster_->PartitionedWriteSeconds(work.bytes, work.count);
    report->materialize_seconds += extra;
    auto est = estimator_->Estimate(view->plan);
    if (est.ok()) {
      view->stats.size_bytes = est->out_bytes * options_->view_storage_compression;
      view->stats.size_is_actual = true;
      view->stats.creation_cost = est->seconds + extra;
      view->stats.cost_is_actual = true;
    }
    view->fault_count = 0;
    view->quarantined_until = 0;
    view->RefreshCachedBytes();
    report->created_views.push_back(view->id);
  }
  return Status::OK();
}

void PoolManager::FoldDeltaAndRemap(PlanningDelta* delta, double t_now) {
  {
    // Exclusive on the structure lock: the fold adopts views, puts
    // catalog tables, and inserts rewrite-index entries — all visible
    // to concurrent foreign sharded commits. Released before the shared
    // sections below (std::shared_mutex is non-reentrant).
    std::unique_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    delta->Fold(&views_, catalog_, &rewrite_index_);
  }
  // Reserved views were registered (shard set, in-flight entry, pending
  // publish footprint) under placeholder ids; rewrite the publish
  // footprint to the final ids Fold just assigned. Sound because no
  // foreign plan can hold a read on either id: planning never overlaps
  // any commit, so placeholders are unobservable, and the final id did
  // not exist in the catalog before this fold.
  delta->RemapFoldedIds(&Ctx().publish_fp);
  AdvanceWindowsAfterFold(t_now);
}

Status PoolManager::Apply(const SelectionDecision& decision,
                          const QueryContext& ctx, QueryReport* report) {
  assert(CommitHeldByThisThread());
  // Fold the planning delta *before* the decision transaction begins: a
  // storage fault rolls back the decision, not the statistics (the old
  // in-place code recorded them during planning, before Apply, too).
  // Fold is idempotent, so the retry loop in ExecuteDecision may call
  // Apply repeatedly with the same context.
  PlanningDelta* delta = ctx.delta();
  SelectionDecision remapped;
  const SelectionDecision* to_apply = &decision;
  if (delta != nullptr) {
    if (!delta->folded()) FoldDeltaAndRemap(delta, ctx.t_now());
    // Planning captured shadow PartitionState pointers; execute against
    // the real ones they folded into.
    remapped = decision;
    for (SelectionAction& a : remapped.actions) {
      if (a.part != nullptr) a.part = delta->RealPartition(a.part);
    }
    to_apply = &remapped;
  }
  const QueryReport report_backup = *report;
  std::string fault_view;
  TxnBegin();
  Status st;
  {
    // Shared hold across the staged apply: estimators, fragment sizing
    // and schema resolution read the relational catalog, which a
    // foreign sharded commit's fold may be growing concurrently.
    std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
    st = ApplyStaged(*to_apply, ctx, report, &fault_view);
  }
  if (st.ok()) {
    TxnCommit();
    return st;
  }
  TxnRollback();
  *report = report_backup;
  report->fault_view = fault_view;
  report->fault_message = st.ToString();
  return st;
}

Result<double> PoolManager::MergeStaged(double t_now,
                                        const DecayFunction& decay,
                                        QueryReport* report) {
  double seconds = 0.0;
  int merges = 0;
  auto candidates = FindMergeCandidates(&views_, options_->merge, t_now, decay);
  for (const MergeCandidate& cand : candidates) {
    if (merges >= options_->merge.max_merges_per_query) break;
    FragmentStats& a = cand.part->fragments[cand.left_index];
    FragmentStats& b = cand.part->fragments[cand.right_index];
    if (!a.materialized || !b.materialized) continue;  // stale candidate
    // Read both parents, write the merged fragment.
    seconds += cluster_->MapPhaseSeconds({a.size_bytes, b.size_bytes});
    const double merged_bytes = a.size_bytes + b.size_bytes;
    seconds += cluster_->PartitionedWriteSeconds(merged_bytes, 1);
    // Union the hit histories so the merged fragment keeps its record.
    std::vector<FragmentHit> hits = a.hits();
    hits.insert(hits.end(), b.hits().begin(), b.hits().end());
    DEEPSEA_RETURN_IF_ERROR(EvictFragment(cand.view, cand.part, &a, report));
    DEEPSEA_RETURN_IF_ERROR(EvictFragment(cand.view, cand.part, &b, report));
    FragmentStats* merged = cand.part->Track(cand.merged, merged_bytes);
    merged->size_bytes = merged_bytes;
    DEEPSEA_RETURN_IF_ERROR(
        TxnPut(FragmentPath(*cand.view, cand.part->attr, cand.merged),
               merged_bytes, report));
    merged->materialized = true;
    if (merged->hits().empty()) merged->AdoptHits(std::move(hits));
    cand.view->RefreshCachedBytes();
    ++merges;
    ++report->merged_fragments;
  }
  return seconds;
}

Result<double> PoolManager::RunMergePass(double t_now,
                                         const DecayFunction& decay,
                                         QueryReport* report) {
  assert(CommitHeldByThisThread());
  assert(Ctx().exclusive && "merge passes require the exclusive commit");
  const QueryReport report_backup = *report;
  TxnBegin();
  Result<double> seconds = MergeStaged(t_now, decay, report);
  if (seconds.ok()) {
    TxnCommit();
    return seconds;
  }
  TxnRollback();
  *report = report_backup;
  report->fault_message = seconds.status().ToString();
  return seconds;
}

}  // namespace deepsea
