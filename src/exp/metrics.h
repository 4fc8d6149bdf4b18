#ifndef DEEPSEA_EXP_METRICS_H_
#define DEEPSEA_EXP_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine_observer.h"
#include "core/engine_options.h"
#include "core/pool_manager.h"

namespace deepsea {

/// One entry of the metrics registry: everything OBSERVABILITY.md must
/// document about an exported series. `host_time` marks series derived
/// from host clocks (wall-clock histograms, lock hold times) — they are
/// the only nondeterministic output and can be excluded from a render
/// for byte-stable goldens. `pool_sourced` marks series read from an
/// attached PoolManager at scrape time rather than folded from query
/// reports and stage hooks.
struct MetricInfo {
  const char* name;    ///< full series name, e.g. "deepsea_evictions_total"
  const char* type;    ///< "counter" | "gauge" | "histogram"
  const char* help;    ///< HELP docstring (one line, no newlines)
  const char* labels;  ///< label set, e.g. "tenant" or "stage,tenant"
  bool host_time;
  bool pool_sourced;
};

/// Production metrics sink for the EngineObserver seam: a thread-safe,
/// allocation-light aggregator exporting Prometheus text exposition
/// format. Where QueryTrace collects per-query CSV rows for offline
/// experiment plots, MetricsObserver maintains the fixed-cardinality
/// series an operator scrapes while the engine serves live traffic:
///
///  * log-scale histogram sketches of per-stage simulated and wall-clock
///    latency (one series per EngineStage, labeled by tenant; a stage's
///    count and sum are its calls and summed seconds) plus a per-query
///    simulated-cost histogram;
///  * monotonic counters for queries, replans, degradations, pool
///    mutations (views/fragments materialized, evictions, merges),
///    faults/retries, and bytes into / out of the pool — each one field
///    of the tenant's EngineTotals, the fold of the QueryReports that
///    OnQueryEnd delivers (EngineTotals::Add, the same fold the engine
///    keeps);
///  * gauges for pool occupancy vs S_max, view/fragment counts,
///    quarantine, and commit-lock hold time, sourced from an attached
///    PoolManager at scrape time (`set_pool`).
///
/// Concurrency: one MetricsObserver may be shared by free-running
/// engines. The hot path honors the locking contract in
/// engine_observer.h — planning-stage hooks fire concurrently from
/// multiple engine threads under the pool's shared lock — by keeping
/// one slot per tenant, each guarded by its own mutex (only hooks of
/// that tenant take it, so tenants never contend). The slot map itself
/// is behind a shared_mutex that is write-locked only the first time a
/// tenant is seen (steady state is a read-locked map find, no
/// allocation).
///
/// Scrape path: RenderPrometheusText / TakeSnapshot read the attached
/// pool's gauges under the pool's *shared* commit lock, so they are safe
/// from any monitoring thread but must NOT be called from observer
/// hooks or any code inside the commit section (self-deadlock — the
/// same rule as PoolManager::PoolBytesSnapshot).
class MetricsObserver : public EngineObserver {
 public:
  /// Fixed log-scale bucket boundaries (seconds) shared by every
  /// latency histogram: 12 upper bounds spanning 1 µs .. ~28 h, plus
  /// the implicit +Inf bucket. A value lands in the first bucket whose
  /// bound is >= the value (Prometheus `le` semantics, inclusive).
  static constexpr int kFiniteBuckets = 12;
  static constexpr int kBucketCount = kFiniteBuckets + 1;  // + "+Inf"
  static constexpr double kBucketBounds[kFiniteBuckets] = {
      1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5};
  /// `le` label values rendered for kBucketBounds, in order.
  static const char* const kBucketLabels[kFiniteBuckets];

  static constexpr size_t kStageCount =
      static_cast<size_t>(EngineStage::kPhysical) + 1;

  MetricsObserver() = default;
  MetricsObserver(const MetricsObserver&) = delete;
  MetricsObserver& operator=(const MetricsObserver&) = delete;

  /// Attaches the pool whose gauges scrapes should report (nullptr
  /// detaches; gauges are then omitted). Also baselines the commit-lock
  /// hold fraction: `deepsea_commit_lock_hold_fraction` is lock time
  /// over wall time *since attach*. Call before traffic starts; not
  /// thread-safe against concurrent scrapes. The pool must outlive
  /// every subsequent scrape — detach (set_pool(nullptr)) before the
  /// pool is destroyed if the observer lives longer.
  void set_pool(const PoolManager* pool);
  const PoolManager* pool() const { return pool_; }

  /// Index of the histogram bucket `value` falls in (kFiniteBuckets =
  /// the +Inf bucket). Exposed for bucket-boundary tests.
  static size_t BucketIndex(double value);

  // --- EngineObserver hooks (hot path) ---

  void OnStageEnd(EngineStage stage, const QueryContext& ctx,
                  double sim_seconds, double wall_seconds) override;
  void OnQueryEnd(const QueryReport& report) override;

  // --- programmatic snapshot ---

  /// Point-in-time copy of everything the observer exports, for
  /// assertions without parsing exposition text. Integer counters are
  /// exact; double sums reflect the accumulation order of the run (per
  /// tenant, the order of that tenant's queries).
  struct MetricsSnapshot {
    struct Histogram {
      int64_t count = 0;
      double sum = 0.0;
      /// Per-bucket (NOT cumulative) observation counts; index
      /// kFiniteBuckets is the +Inf bucket.
      std::array<uint64_t, kBucketCount> buckets{};
    };
    struct Tenant {
      EngineTotals counts;  ///< fold of the tenant's QueryReports
      std::array<Histogram, kStageCount> stage_sim{};
      std::array<Histogram, kStageCount> stage_wall{};
      Histogram query_sim;
    };
    struct PoolGauges {
      bool present = false;  ///< false when no pool was attached
      double pool_bytes = 0.0;
      double pool_limit_bytes = 0.0;
      int64_t views_tracked = 0;
      int64_t views_materialized = 0;
      int64_t fragments_tracked = 0;
      int64_t fragments_materialized = 0;
      int64_t views_quarantined = 0;
      int64_t commit_clock = 0;
      uint64_t commits = 0;
      double commit_lock_held_seconds = 0.0;
      double commit_lock_hold_fraction = 0.0;
      /// Per commit shard: acquisitions and cumulative hold seconds
      /// (index = shard id; see PoolManager::commit_shard_stats()).
      std::vector<PoolManager::CommitShardStats> commit_shards;
    };

    std::map<std::string, Tenant> tenants;  ///< keyed by tenant id
    PoolGauges pool;

    /// Sum of every tenant's monotonic counters (histograms included).
    Tenant Totals() const;
  };

  /// See the class comment for the locking contract (takes the pool's
  /// shared lock when a pool is attached).
  MetricsSnapshot TakeSnapshot() const;

  // --- Prometheus text exposition ---

  struct RenderOptions {
    /// When false, every series whose MetricInfo is marked host_time
    /// (wall-clock histograms, commit-lock hold series) is omitted, so
    /// the remaining output is a pure function of the simulated
    /// workload — byte-stable across runs and machines. Used by the
    /// metrics goldens; production scrapes keep the default.
    bool include_host_metrics = true;
  };

  /// Renders the scrape in Prometheus text exposition format (HELP/TYPE
  /// headers, `_bucket`/`_sum`/`_count` histogram series, tenant/stage
  /// labels). Output passes ValidatePrometheusText. Same locking
  /// contract as TakeSnapshot.
  std::string RenderPrometheusText(const RenderOptions& options) const;
  std::string RenderPrometheusText() const {
    return RenderPrometheusText(RenderOptions());
  }

  /// Every series this observer can export, in render order. The
  /// OBSERVABILITY.md documentation test enumerates this registry and
  /// fails on any name the doc does not mention.
  static const std::vector<MetricInfo>& Registry();

 private:
  /// One tenant's slot, touched only by hooks carrying this tenant's
  /// id, so cross-tenant hooks never contend.
  struct TenantSlot {
    std::mutex mu;
    MetricsSnapshot::Tenant data;  ///< guarded by mu
  };

  /// Read-mostly tenant lookup: shared-locked find in steady state; the
  /// unique lock is taken only the first time a tenant id appears.
  TenantSlot* Slot(const std::string& tenant);

  mutable std::shared_mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantSlot>> tenants_;

  const PoolManager* pool_ = nullptr;
  // Commit-lock baselines captured by set_pool, so the hold fraction
  // covers exactly the observed span.
  double attach_held_seconds_ = 0.0;
  int64_t attach_wall_ns_ = 0;
};

/// Strict validator for the Prometheus text exposition format, used by
/// the metrics tests and the `promlint` CI tool. Checks line syntax
/// (HELP/TYPE/comment/sample), metric and label name validity, label
/// escaping, TYPE-before-samples, family grouping (all samples of one
/// family contiguous), duplicate series, and histogram consistency
/// (cumulative non-decreasing buckets, a `+Inf` bucket equal to
/// `_count`, `_sum` present). Returns OK or the first violation with
/// its line number.
Status ValidatePrometheusText(const std::string& text);

}  // namespace deepsea

#endif  // DEEPSEA_EXP_METRICS_H_
