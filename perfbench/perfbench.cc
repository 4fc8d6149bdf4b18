// The repo benchmark: three closed-loop workloads driven through the
// engine's public API, measured on two clocks (host time for engine
// overhead, simulated seconds for decision quality). See README.md in
// this directory for why each workload exists and which layer metric
// should move which end-to-end metric.
//
// Usage:
//   deepsea_perfbench --workload {sdss_10g|q30_hot|shared_2t} --seed N
//                     --seconds S --trace {0|1} [--spans PATH]
//
// A run repeats *passes* while another one fits in S seconds. The seed
// fixes a few query streams; pass i takes stream i mod their number (in a
// traced run, pass pairs share a stream). A pass builds a fresh catalog,
// query plans, pool and engines (the set-up), then runs its stream to
// completion with one
// client thread per engine and no think time (the timed phase,
// progressive pool warm-up included). With --trace 0 every pass is
// untraced and the run reports the end-to-end metrics; with --trace 1
// untraced and traced passes alternate, the traced ones carry a
// SpanRecorder per engine, and the run reports the per-layer metrics.
// Host times are reported at a reference host speed, measured by a fixed
// probe kernel that every client runs between queries (host_probe.h).
// The last line of stdout is one JSON object; the exit code is non-zero
// when a correctness check fails.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/shared_pool.h"
#include "exp/experiment.h"
#include "exp/metrics.h"
#include "host_probe.h"
#include "span_recorder.h"
#include "workload/range_generator.h"
#include "workload/sdss.h"

#ifndef DEEPSEA_BENCH_BUILD_TYPE
#define DEEPSEA_BENCH_BUILD_TYPE "unknown"
#endif

namespace deepsea {
namespace perfbench {
namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

struct WorkloadSpec {
  const char* name;
  int engines;
  int queries;  ///< per pass, over all engines
  /// Query streams per run, all drawn from the seed. The cost of a
  /// stream depends on the structure its first queries give the pool, so
  /// one stream per run would tie the host-time figures of a run to its
  /// seed (q30_hot: up to 15% between seeds); the passes of a run cycle
  /// through the streams instead.
  int streams;
  /// SDSS-patterned ranges over the ten templates; otherwise hot Q30.
  bool sdss;
  double pool_limit_bytes;  ///< S_max
  /// One MetricsObserver shared by every engine, as deployed.
  bool metrics_observer;
};

const WorkloadSpec kWorkloads[] = {
    {"sdss_10g", 1, 2000, 4, true, 10e9, false},
    {"q30_hot", 1, 4000, 8, false, kNoLimit, false},
    {"shared_2t", 2, 2000, 4, true, 10e9, true},
};

/// Set-ups timed (and discarded) before each pass, on top of the pass's
/// own; setup_s is the median of all of them. A set-up takes tens of
/// milliseconds, so spreading them over the run exposes them to the
/// same host drift as the passes instead of one instant of it.
constexpr int kExtraSetupsPerPass = 9;

/// Allowed overshoot of pool_bytes_after over S_max before the run
/// fails. The engine leaves the pool transiently above S_max (1.025 x
/// on sdss_10g seed 2, up to 1.066 x on shared_2t, about one pass in
/// twenty; likely because the knapsack budgets with estimated fragment
/// sizes). That is a decision defect, tracked as apply.max_pool_fill and
/// printed per pass; the check only catches a budget that stopped
/// binding.
constexpr double kPoolOvershootTolerance = 0.25;

const Interval kItemSkDomain(0.0, 400000.0);

/// Seed of stream `j` of a run with seed `seed` (splitmix64 finalizer).
uint64_t StreamSeed(uint64_t seed, int j) {
  uint64_t z = seed * 64 + static_cast<uint64_t>(j) + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Section 10.1: SDSS selection ranges mapped onto item_sk, each applied
/// to a template drawn uniformly from the ten.
std::vector<WorkloadQuery> SdssQueries(int n, uint64_t seed) {
  SdssTraceModel sdss(SdssTraceModel::Config{}, seed);
  const Interval ra(-20.0, 400.0);
  Rng rng(seed + 1);
  const std::vector<std::string> names = BigBenchTemplates::Names();
  const int64_t last = static_cast<int64_t>(names.size()) - 1;
  std::vector<WorkloadQuery> out;
  out.reserve(static_cast<size_t>(n));
  for (const Interval& r : sdss.GenerateTrace(n)) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, last))];
    out.push_back({name, SdssTraceModel::MapRange(r, ra, kItemSkDomain)});
  }
  return out;
}

/// Q30 only, small (1%) ranges with heavily skewed midpoints.
std::vector<WorkloadQuery> HotQ30Queries(int n, uint64_t seed) {
  RangeGenerator gen(kItemSkDomain, Selectivity::kSmall, Skew::kHeavy, seed);
  std::vector<WorkloadQuery> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back({"Q30", gen.Next()});
  return out;
}

/// 100 GB BigBench instance; item_sk follows the SDSS access density
/// for the SDSS workloads and is uniform otherwise.
BigBenchDataset::Options DatasetOptions(bool sdss) {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;  // physical execution is off
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  if (sdss) {
    o.item_sk_distribution =
        SdssTraceModel(SdssTraceModel::Config{}, 2017).AccessDensity(420);
  }
  return o;
}

/// The paper's DeepSea configuration as the figure benches run it.
EngineOptions Options(const WorkloadSpec& spec) {
  EngineOptions o;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  o.pool_limit_bytes = spec.pool_limit_bytes;
  return o;
}

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Nearest-rank percentile (`p` in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  if (idx > 0) --idx;
  return v[std::min(idx, v.size() - 1)];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50.0); }

double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// All digits of `v` (JSON null when not finite).
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// What one ProcessQuery call produced.
struct Outcome {
  double latency_us = 0.0;
  double scale = 1.0;  ///< HostScale of the client's latest probe
  bool error = false;     ///< ProcessQuery returned an error
  bool degraded = false;  ///< answered, but the decision was abandoned
  double total_s = 0.0;
  double base_s = 0.0;
  double pool_bytes_after = 0.0;
  int fragments_read = 0;
  int selection_items = 0;
  bool replanned = false;
  bool exclusive = false;
};

struct PassResult {
  int stream = 0;
  bool traced = false;
  double setup_s = 0.0;
  /// Every set-up timed for this pass: the extra ones before it, then its
  /// own.
  std::vector<double> setups_s;
  double wall_s = 0.0;  ///< timed phase, probes taken out
  double cpu_s = 0.0;   ///< process CPU of the timed phase, probes taken out
  std::vector<double> probe_us;  ///< HostProbe times of every client
  int attempted = 0;
  int failed = 0;
  std::vector<double> latency_us;  ///< completed queries
  std::vector<double> ref_latency_us;  ///< the same, each times its scale
  std::vector<double> sim_s;       ///< per-query total_seconds
  double sim_total_s = 0.0;        ///< summed in query order per engine
  double base_total_s = 0.0;
  double pool_bytes_final = 0.0;
  double max_pool_fill = 0.0;  ///< max pool_bytes_after / S_max
  // decision digest (EngineTotals, summed over engines)
  int64_t views_created = 0;
  int64_t fragments_created = 0;
  int64_t fragments_evicted = 0;
  int64_t from_views = 0;
  // per-layer counters
  int64_t fragments_read = 0;
  int64_t selection_items = 0;
  int64_t replans = 0;
  int64_t exclusive = 0;
  int64_t view_candidates = 0;
  int64_t fragment_candidates = 0;
  double commit_held_s = 0.0;
  double max_shard_held_s = 0.0;
  double bytes_written = 0.0;
  std::vector<Span> spans;
  std::vector<std::string> violations;

  double Completed() const { return static_cast<double>(latency_us.size()); }
  double Qps() const { return wall_s > 0.0 ? Completed() / wall_s : 0.0; }
  double CpuUsPerQuery() const {
    return latency_us.empty() ? 0.0 : 1e6 * cpu_s / Completed();
  }
  /// Brings this pass's host times to the reference host speed: the
  /// mean of the per-query scales, weighted by latency.
  double Scale() const {
    double raw = 0.0;
    double ref = 0.0;
    for (size_t i = 0; i < latency_us.size(); ++i) {
      raw += latency_us[i];
      ref += ref_latency_us[i];
    }
    return raw > 0.0 ? ref / raw : 1.0;
  }
  double RefQps() const { return Qps() / Scale(); }
  double RefCpuUsPerQuery() const { return CpuUsPerQuery() * Scale(); }
};

/// Everything a pass sets up before its timed phase: dataset, query
/// plans, pool, engines and observers. Members are destroyed in reverse
/// order, so the engines go first.
struct Deployment {
  Catalog catalog;
  std::vector<std::vector<PlanPtr>> plans;  ///< per engine
  MetricsObserver metrics;
  std::vector<std::unique_ptr<SpanRecorder>> recorders;
  std::vector<std::unique_ptr<MulticastObserver>> multicasts;
  std::unique_ptr<SharedPool> shared;
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
};

/// Sets up one pass; nullptr (with `*error` set) on failure. Traced
/// deployments give every engine a SpanRecorder whose query ids start
/// at `pass_index` << 32.
std::unique_ptr<Deployment> Deploy(const WorkloadSpec& spec,
                                   const std::vector<WorkloadQuery>& queries,
                                   bool traced, int pass_index,
                                   std::string* error) {
  auto d = std::make_unique<Deployment>();
  const size_t engines_n = static_cast<size_t>(spec.engines);
  if (!BigBenchDataset::Generate(DatasetOptions(spec.sdss), &d->catalog)
           .ok()) {
    *error = "dataset generation failed";
    return nullptr;
  }
  // Round-robin deal: query i goes to engine i mod engines.
  d->plans.resize(engines_n);
  for (size_t i = 0; i < queries.size(); ++i) {
    const WorkloadQuery& q = queries[i];
    auto plan = BigBenchTemplates::Build(q.template_name, q.range.lo,
                                         q.range.hi);
    if (!plan.ok()) {
      *error = "plan build failed: " + plan.status().ToString();
      return nullptr;
    }
    d->plans[i % engines_n].push_back(*plan);
  }
  const EngineOptions options = Options(spec);
  if (spec.engines == 1) {
    d->engines.push_back(
        std::make_unique<DeepSeaEngine>(&d->catalog, options));
  } else {
    d->shared = std::make_unique<SharedPool>(&d->catalog, options);
    for (size_t e = 0; e < engines_n; ++e) {
      d->engines.push_back(std::make_unique<DeepSeaEngine>(
          &d->catalog, d->shared.get(), "tenant" + std::to_string(e)));
    }
  }
  if (spec.metrics_observer) d->metrics.set_pool(&d->engines[0]->pool());
  for (size_t e = 0; e < engines_n; ++e) {
    EngineObserver* observer = spec.metrics_observer ? &d->metrics : nullptr;
    if (traced) {
      d->recorders.push_back(std::make_unique<SpanRecorder>(
          (static_cast<int64_t>(pass_index) << 32) |
              (static_cast<int64_t>(e) << 24),
          d->plans[e].size()));
      SpanRecorder* recorder = d->recorders.back().get();
      if (observer != nullptr) {
        // Metrics first, so its hook work lands inside the spans.
        d->multicasts.push_back(std::make_unique<MulticastObserver>(
            std::vector<EngineObserver*>{observer, recorder}));
        observer = d->multicasts.back().get();
      } else {
        observer = recorder;
      }
    }
    d->engines[e]->set_observer(observer);
  }
  return d;
}

/// Wall seconds of one set-up, or a negative value when it failed.
double TimeSetup(const WorkloadSpec& spec,
                 const std::vector<WorkloadQuery>& queries) {
  std::string error;
  const auto start = Clock::now();
  const std::unique_ptr<Deployment> d =
      Deploy(spec, queries, /*traced=*/false, 0, &error);
  const double seconds = Seconds(start, Clock::now());
  return d != nullptr ? seconds : -1.0;
}

PassResult RunPass(const WorkloadSpec& spec,
                   const std::vector<WorkloadQuery>& queries, bool traced,
                   int pass_index) {
  PassResult r;
  r.traced = traced;
  const size_t engines_n = static_cast<size_t>(spec.engines);

  const auto setup_start = Clock::now();
  std::string error;
  std::unique_ptr<Deployment> d =
      Deploy(spec, queries, traced, pass_index, &error);
  if (d == nullptr) {
    r.violations.push_back(error);
    return r;
  }
  r.setup_s = Seconds(setup_start, Clock::now());
  const PoolManager& pool = d->engines[0]->pool();

  // --- timed phase: one closed-loop client per engine ---
  std::vector<std::vector<Outcome>> outcomes(engines_n);
  std::vector<std::vector<double>> probes_us(engines_n);
  std::vector<double> probe_wall_s(engines_n, 0.0);
  const PoolManager::CommitLockStats lock_before = pool.commit_lock_stats();
  const std::vector<PoolManager::CommitShardStats> shards_before =
      pool.commit_shard_stats();
  const double cpu_start = ProcessCpuSeconds();
  const auto wall_start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (size_t e = 0; e < engines_n; ++e) {
      clients.emplace_back([&, e] {
        DeepSeaEngine& engine = *d->engines[e];
        SpanRecorder* recorder = traced ? d->recorders[e].get() : nullptr;
        std::vector<Outcome>& out = outcomes[e];
        out.reserve(d->plans[e].size());
        HostProbe probe;
        auto next_probe = Clock::now();
        double scale = 1.0;
        for (const PlanPtr& plan : d->plans[e]) {
          if (Clock::now() >= next_probe) {
            const auto p0 = Clock::now();
            probes_us[e].push_back(probe.RunUs());
            scale = HostScale(probes_us[e].back());
            const auto p1 = Clock::now();
            probe_wall_s[e] += Seconds(p0, p1);
            next_probe = p1 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      kProbeIntervalS));
          }
          if (recorder != nullptr) recorder->BeginQuery();
          const auto t0 = Clock::now();
          Result<QueryReport> report = engine.ProcessQuery(plan);
          const auto t1 = Clock::now();
          if (recorder != nullptr) recorder->EndQuery();
          Outcome o;
          o.latency_us = 1e6 * Seconds(t0, t1);
          o.scale = scale;
          if (!report.ok()) {
            o.error = true;
            out.push_back(o);
            continue;
          }
          o.degraded = report->degraded;
          o.total_s = report->total_seconds;
          o.base_s = report->base_seconds;
          o.pool_bytes_after = report->pool_bytes_after;
          o.fragments_read = report->fragments_read;
          o.selection_items = report->selection_candidates;
          o.replanned = report->replanned;
          o.exclusive = !report->exclusive_reason.empty();
          out.push_back(o);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  r.wall_s = Seconds(wall_start, Clock::now()) -
             *std::max_element(probe_wall_s.begin(), probe_wall_s.end());
  r.cpu_s = ProcessCpuSeconds() - cpu_start;
  for (const std::vector<double>& p : probes_us) {
    for (double us : p) r.cpu_s -= 1e-6 * us;
    r.probe_us.insert(r.probe_us.end(), p.begin(), p.end());
  }
  const PoolManager::CommitLockStats lock_after = pool.commit_lock_stats();
  const std::vector<PoolManager::CommitShardStats> shards_after =
      pool.commit_shard_stats();

  // --- results and correctness checks ---
  int64_t completed = 0;
  for (const std::vector<Outcome>& out : outcomes) {
    for (const Outcome& o : out) {
      ++r.attempted;
      if (o.error || o.degraded) ++r.failed;
      if (o.error) continue;
      ++completed;
      r.latency_us.push_back(o.latency_us);
      r.ref_latency_us.push_back(o.latency_us * o.scale);
      r.sim_s.push_back(o.total_s);
      r.sim_total_s += o.total_s;
      r.base_total_s += o.base_s;
      r.max_pool_fill = std::max(r.max_pool_fill,
                                 o.pool_bytes_after / spec.pool_limit_bytes);
      r.fragments_read += o.fragments_read;
      r.selection_items += o.selection_items;
      r.replans += o.replanned ? 1 : 0;
      r.exclusive += o.exclusive ? 1 : 0;
    }
  }
  if (r.max_pool_fill > 1.0 + kPoolOvershootTolerance) {
    r.violations.push_back("pool_bytes_after exceeds S_max by " +
                           Number(100.0 * (r.max_pool_fill - 1.0)) + "%");
  }
  int64_t commits_sharded = 0;
  int64_t commits_exclusive = 0;
  for (const auto& engine : d->engines) {
    const EngineTotals& t = engine->totals();
    r.views_created += t.views_created;
    r.fragments_created += t.fragments_created;
    r.fragments_evicted += t.fragments_evicted;
    r.from_views += t.queries_answered_from_views;
    commits_sharded += t.commits_sharded;
    commits_exclusive += t.commits_exclusive;
  }
  if (commits_sharded + commits_exclusive != completed) {
    r.violations.push_back("commits_sharded + commits_exclusive != queries");
  }
  if (static_cast<int64_t>(lock_after.commits - lock_before.commits) !=
      completed) {
    r.violations.push_back("commit_lock_stats().commits delta != queries");
  }
  r.commit_held_s = lock_after.held_seconds - lock_before.held_seconds;
  for (size_t s = 0; s < shards_after.size(); ++s) {
    const double before =
        s < shards_before.size() ? shards_before[s].held_seconds : 0.0;
    r.max_shard_held_s =
        std::max(r.max_shard_held_s, shards_after[s].held_seconds - before);
  }
  r.pool_bytes_final = pool.PoolBytesSnapshot();
  r.bytes_written = d->engines[0]->fs().ledger().bytes_written;
  if (spec.metrics_observer) {
    const Status valid =
        ValidatePrometheusText(d->metrics.RenderPrometheusText());
    if (!valid.ok()) {
      r.violations.push_back("metrics scrape invalid: " + valid.ToString());
    }
  }
  for (const auto& recorder : d->recorders) {
    r.view_candidates += recorder->view_candidates();
    r.fragment_candidates += recorder->fragment_candidates();
    r.spans.insert(r.spans.end(), recorder->spans().begin(),
                   recorder->spans().end());
  }
  return r;
}

// --- reporting ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string HostBlock() {
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + Json(DEEPSEA_BENCH_BUILD_TYPE) +
         ", \"compiler\": " + Json(kCompiler) +
         ", \"cpu_model\": " + Json(CpuModel()) + "}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

using Passes = std::vector<const PassResult*>;

template <typename Fn>
std::vector<double> Collect(const Passes& passes, Fn fn) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(fn(*p));
  return v;
}

template <typename Fn>
double MedianOf(const Passes& passes, Fn fn) {
  return Median(Collect(passes, fn));
}

/// Set-up times of every pass, each scaled by its pass's host scale when
/// `scaled`.
std::vector<double> PooledSetupS(const Passes& passes, bool scaled) {
  std::vector<double> out;
  for (const PassResult* p : passes) {
    const double scale = scaled ? p->Scale() : 1.0;
    for (double s : p->setups_s) out.push_back(s * scale);
  }
  return out;
}

/// End-to-end metrics over the untraced passes. Host times: setup_s the
/// median of every set-up timed, every other one the median over passes
/// (latency percentiles taken within each pass), all at the reference
/// host speed (host_probe.h). Simulated figures come
/// from `firsts`, the first pass of each stream: sim_total_s and
/// pool_gb_final are means per stream, the others pool the streams.
std::vector<Metric> EndToEnd(const Passes& passes, const Passes& firsts) {
  const auto qps = [](const PassResult& p) { return p.RefQps(); };
  const auto cpu = [](const PassResult& p) { return p.RefCpuUsPerQuery(); };
  const auto p50 = [](const PassResult& p) {
    return Percentile(p.ref_latency_us, 50.0);
  };
  const auto p99 = [](const PassResult& p) {
    return Percentile(p.ref_latency_us, 99.0);
  };
  const double n = std::max<double>(1.0, static_cast<double>(firsts.size()));
  double sim = 0.0;
  double base = 0.0;
  double pool_bytes = 0.0;
  std::vector<double> sim_s;
  for (const PassResult* p : firsts) {
    sim += p->sim_total_s;
    base += p->base_total_s;
    pool_bytes += p->pool_bytes_final;
    sim_s.insert(sim_s.end(), p->sim_s.begin(), p->sim_s.end());
  }
  return {
      {"setup_s", Median(PooledSetupS(passes, true)), "s"},
      {"throughput_qps", MedianOf(passes, qps), "q/s"},
      {"query_p50_us", MedianOf(passes, p50), "us"},
      {"query_p99_us", MedianOf(passes, p99), "us"},
      {"cpu_us_per_query", MedianOf(passes, cpu), "us"},
      {"sim_total_s", sim / n, "sim_s"},
      {"sim_query_p99_s", Percentile(sim_s, 99.0), "sim_s"},
      {"sim_cost_vs_hive", base > 0.0 ? sim / base : 0.0, "ratio"},
      {"pool_gb_final", pool_bytes / n / 1e9, "GB"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Span durations of the traced passes, by kind.
struct SpanTotals {
  std::vector<std::vector<double>> per_query_ns;  ///< per kind, per query
  std::vector<double> total_ns;                   ///< per kind
  std::vector<double> count;                      ///< spans per kind

  /// Durations are scaled to the reference host speed, pass by pass.
  explicit SpanTotals(const Passes& traced)
      : per_query_ns(kSpanKinds),
        total_ns(kSpanKinds, 0.0),
        count(kSpanKinds, 0.0) {
    std::vector<double> sums(kSpanKinds, 0.0);
    for (const PassResult* p : traced) {
      const double scale = p->Scale();
      for (const Span& s : p->spans) {
        const size_t k = static_cast<size_t>(s.kind);
        const double ns = scale * static_cast<double>(s.end_ns - s.start_ns);
        sums[k] += ns;
        total_ns[k] += ns;
        count[k] += 1.0;
        if (s.kind != SpanKind::kQuery) continue;
        // The root is recorded last, so it closes its query.
        for (size_t i = 0; i < sums.size(); ++i) {
          per_query_ns[i].push_back(sums[i]);
        }
        std::fill(sums.begin(), sums.end(), 0.0);
      }
    }
  }

  double Queries() const { return std::max(1.0, count[0]); }
  double Total(SpanKind k) const { return total_ns[static_cast<size_t>(k)]; }
  double MeanUs(SpanKind k) const { return Total(k) / Queries() / 1e3; }
  double P99Us(SpanKind k) const {
    return Percentile(per_query_ns[static_cast<size_t>(k)], 99.0) / 1e3;
  }
  double Share(SpanKind k) const {
    return Total(k) / std::max(1.0, Total(SpanKind::kQuery));
  }
  double PerQuery(SpanKind k) const {
    return count[static_cast<size_t>(k)] / Queries();
  }
};

/// Per-layer metrics over the traced passes (spans pooled over them);
/// the trace overhead compares them with the untraced passes.
std::vector<Metric> PerLayer(const Passes& traced, const Passes& untraced) {
  const SpanTotals spans(traced);
  double attributed = 0.0;
  for (int k = 1; k < kSpanKinds; ++k) {
    attributed += spans.Share(static_cast<SpanKind>(k));
  }
  // Counters summed over the traced passes, per completed query.
  const auto sum = [&traced](auto fn) {
    double s = 0.0;
    for (const PassResult* p : traced) s += static_cast<double>(fn(*p));
    return s;
  };
  const double completed =
      std::max(1.0, sum([](const PassResult& p) { return p.Completed(); }));
  const auto per_query = [&](auto fn) { return sum(fn) / completed; };
  const double wall = sum([](const PassResult& p) { return p.wall_s; });
  const double held = sum([](const PassResult& p) { return p.commit_held_s; });
  const double created =
      sum([](const PassResult& p) { return p.fragments_created; });
  const double evicted =
      sum([](const PassResult& p) { return p.fragments_evicted; });
  const auto qps = [](const PassResult& p) { return p.RefQps(); };
  const double untraced_qps = MedianOf(untraced, qps);

  using K = SpanKind;
  return {
      {"context.enter_us", spans.MeanUs(K::kContextEnter), "us"},
      {"context.release_us", spans.MeanUs(K::kContextRelease), "us"},
      {"context.share",
       spans.Share(K::kContextEnter) + spans.Share(K::kContextRelease),
       "ratio"},
      {"rewrite.us", spans.MeanUs(K::kRewrite), "us"},
      {"rewrite.p99_us", spans.P99Us(K::kRewrite), "us"},
      {"rewrite.share", spans.Share(K::kRewrite), "ratio"},
      {"rewrite.calls_per_query", spans.PerQuery(K::kRewrite), "count"},
      {"rewrite.from_view_ratio",
       per_query([](const PassResult& p) { return p.from_views; }), "ratio"},
      {"rewrite.fragments_read_per_query",
       per_query([](const PassResult& p) { return p.fragments_read; }),
       "count"},
      {"candidates.us", spans.MeanUs(K::kCandidates), "us"},
      {"candidates.share", spans.Share(K::kCandidates), "ratio"},
      {"candidates.view_per_query",
       per_query([](const PassResult& p) { return p.view_candidates; }),
       "count"},
      {"candidates.fragment_per_query",
       per_query([](const PassResult& p) { return p.fragment_candidates; }),
       "count"},
      {"selection.us", spans.MeanUs(K::kSelection), "us"},
      {"selection.p99_us", spans.P99Us(K::kSelection), "us"},
      {"selection.share", spans.Share(K::kSelection), "ratio"},
      {"selection.items_per_query",
       per_query([](const PassResult& p) { return p.selection_items; }),
       "count"},
      {"commit.wait_us", spans.MeanUs(K::kCommitWait), "us"},
      {"commit.wait_p99_us", spans.P99Us(K::kCommitWait), "us"},
      {"commit.share", spans.Share(K::kCommitWait), "ratio"},
      {"commit.replan_ratio",
       per_query([](const PassResult& p) { return p.replans; }), "ratio"},
      {"commit.exclusive_ratio",
       per_query([](const PassResult& p) { return p.exclusive; }), "ratio"},
      {"commit.held_fraction", wall > 0.0 ? held / wall : 0.0, "ratio"},
      {"commit.max_shard_held_fraction",
       MedianOf(traced,
                [](const PassResult& p) {
                  return p.wall_s > 0.0 ? p.max_shard_held_s / p.wall_s : 0.0;
                }),
       "ratio"},
      {"apply.us", spans.MeanUs(K::kApply), "us"},
      {"apply.p99_us", spans.P99Us(K::kApply), "us"},
      {"apply.share", spans.Share(K::kApply), "ratio"},
      {"apply.fragments_created",
       MedianOf(traced,
                [](const PassResult& p) {
                  return static_cast<double>(p.fragments_created);
                }),
       "count"},
      {"apply.fragments_evicted",
       MedianOf(traced,
                [](const PassResult& p) {
                  return static_cast<double>(p.fragments_evicted);
                }),
       "count"},
      {"apply.churn_ratio", created > 0.0 ? evicted / created : 0.0, "ratio"},
      {"apply.max_pool_fill",
       Max(Collect(traced,
                   [](const PassResult& p) { return p.max_pool_fill; })),
       "ratio"},
      {"apply.write_gb",
       MedianOf(traced,
                [](const PassResult& p) { return p.bytes_written / 1e9; }),
       "GB"},
      {"trace.attributed_fraction", attributed, "ratio"},
      {"trace.overhead_fraction",
       untraced_qps > 0.0 ? 1.0 - MedianOf(traced, qps) / untraced_qps : 0.0,
       "ratio"},
  };
}

bool WriteSpans(const std::string& path,
                const std::vector<PassResult>& passes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "query_id,span,parent,start_ns,end_ns\n");
  for (const PassResult& p : passes) {
    for (const Span& s : p.spans) {
      std::fprintf(f, "%lld,%s,%s,%lld,%lld\n",
                   static_cast<long long>(s.query_id), SpanKindName(s.kind),
                   s.kind == SpanKind::kQuery ? "" : "query",
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: deepsea_perfbench --workload "
               "{sdss_10g|q30_hot|shared_2t} --seed N --seconds S "
               "--trace {0|1} [--spans PATH]\n");
  return 2;
}

/// Every pass of a single-engine run replays a seeded stream from a
/// fresh pool, so each must reproduce the decisions of the stream's
/// first pass bit for bit.
bool SameDecisions(const PassResult& a, const PassResult& b) {
  return std::memcmp(&a.sim_total_s, &b.sim_total_s, sizeof(double)) == 0 &&
         a.views_created == b.views_created &&
         a.fragments_created == b.fragments_created &&
         a.fragments_evicted == b.fragments_evicted &&
         a.from_views == b.from_views;
}

void PrintDigest(const PassResult& p) {
  uint64_t bits = 0;
  std::memcpy(&bits, &p.sim_total_s, sizeof(bits));
  std::printf(
      "digest stream %d: sim_total_s=%.17g bits=%016llx views_created=%lld "
      "fragments_created=%lld fragments_evicted=%lld "
      "queries_from_views=%lld\n",
      p.stream, p.sim_total_s, static_cast<unsigned long long>(bits),
      static_cast<long long>(p.views_created),
      static_cast<long long>(p.fragments_created),
      static_cast<long long>(p.fragments_evicted),
      static_cast<long long>(p.from_views));
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::atoll(value);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }

  std::printf("host: %s\n", HostBlock().c_str());
  std::vector<std::vector<WorkloadQuery>> streams;
  for (int j = 0; j < spec->streams; ++j) {
    const uint64_t stream_seed = StreamSeed(static_cast<uint64_t>(seed), j);
    streams.push_back(spec->sdss ? SdssQueries(spec->queries, stream_seed)
                                 : HotQ30Queries(spec->queries, stream_seed));
  }
  std::printf(
      "workload: %s engines=%d queries_per_pass=%d streams=%d seed=%lld "
      "trace=%d s_max_gb=%s\n",
      spec->name, spec->engines, spec->queries, spec->streams, seed, trace,
      std::isfinite(spec->pool_limit_bytes)
          ? Number(spec->pool_limit_bytes / 1e9).c_str()
          : "unbounded");
  std::fflush(stdout);

  // Passes while another fits. An untraced run covers every stream; a
  // traced run alternates untraced and traced passes over the same
  // stream and needs at least one of each.
  const auto run_start = Clock::now();
  std::vector<PassResult> passes;
  for (int i = 0;; ++i) {
    const int stream = (trace == 1 ? i / 2 : i) % spec->streams;
    const std::vector<WorkloadQuery>& queries =
        streams[static_cast<size_t>(stream)];
    std::vector<double> setups;
    for (int k = 0; k < kExtraSetupsPerPass; ++k) {
      setups.push_back(TimeSetup(*spec, queries));
    }
    const bool traced = trace == 1 && i % 2 == 1;
    passes.push_back(RunPass(*spec, queries, traced, i));
    PassResult& p = passes.back();
    p.stream = stream;
    p.setups_s = std::move(setups);
    p.setups_s.push_back(p.setup_s);
    std::printf(
        "pass %d (stream %d)%s: setup %.3f s, wall %.3f s, %zu queries, "
        "%.1f q/s "
        "(%.1f at reference speed, probe %.0f us), "
        "sim_total_s %.17g, views %lld, fragments +%lld -%lld, "
        "from_views %lld, replans %lld, max pool/S_max %.4f\n",
        i, stream, traced ? " (traced)" : "", p.setup_s, p.wall_s,
        p.latency_us.size(), p.Qps(), p.RefQps(), Median(p.probe_us),
        p.sim_total_s,
        static_cast<long long>(p.views_created),
        static_cast<long long>(p.fragments_created),
        static_cast<long long>(p.fragments_evicted),
        static_cast<long long>(p.from_views),
        static_cast<long long>(p.replans), p.max_pool_fill);
    std::fflush(stdout);
    if (!p.violations.empty()) break;
    const bool enough =
        passes.size() >= (trace == 0 ? static_cast<size_t>(spec->streams) : 2);
    const double elapsed = Seconds(run_start, Clock::now());
    if (enough && elapsed + p.setup_s + p.wall_s > seconds) break;
  }

  // --- correctness ---
  std::vector<std::string> violations;
  for (const PassResult& p : passes) {
    if (*std::min_element(p.setups_s.begin(), p.setups_s.end()) < 0.0) {
      violations.push_back("set-up failed");
    }
    violations.insert(violations.end(), p.violations.begin(),
                      p.violations.end());
  }
  // The first pass of each stream, in stream order.
  Passes firsts;
  for (int j = 0; j < spec->streams; ++j) {
    for (const PassResult& p : passes) {
      if (p.stream == j) {
        firsts.push_back(&p);
        break;
      }
    }
  }
  if (spec->engines == 1) {
    for (const PassResult& p : passes) {
      for (const PassResult* first : firsts) {
        if (first->stream == p.stream && !SameDecisions(p, *first)) {
          violations.push_back("single-engine passes disagree on decisions");
        }
      }
    }
    for (const PassResult* first : firsts) PrintDigest(*first);
  }

  Passes untraced, traced;
  int64_t attempted = 0, failed = 0;
  for (const PassResult& p : passes) {
    (p.traced ? traced : untraced).push_back(&p);
    attempted += p.attempted;
    failed += p.failed;
  }
  const std::vector<Metric> metrics = trace == 1
                                          ? PerLayer(traced, untraced)
                                          : EndToEnd(untraced, firsts);
  if (!spans_path.empty() && trace == 1 && !WriteSpans(spans_path, passes)) {
    violations.push_back("cannot write spans to " + spans_path);
  }
  for (const std::string& v : violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }

  // Human-readable table: every metric by name and unit, plus the
  // failure fraction (carried in the JSON as failed / attempted).
  const size_t samples = passes.front().latency_us.size();
  std::printf("passes: %zu untraced, %zu traced; %zu latency samples per "
              "pass, %zu above its p99\n",
              untraced.size(), traced.size(), samples, samples / 100);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  const double failed_fraction =
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  std::printf("  %-34s %18.6f %s\n", "failed_fraction", failed_fraction,
              "ratio");
  if (trace == 0) {
    // The same host times as measured, before scaling to the reference
    // host speed.
    std::vector<double> probe_us;
    for (const PassResult* p : untraced) {
      probe_us.insert(probe_us.end(), p->probe_us.begin(), p->probe_us.end());
    }
    const std::vector<Metric> raw = {
        {"raw setup_s", Median(PooledSetupS(untraced, false)), "s"},
        {"raw throughput_qps",
         MedianOf(untraced, [](const PassResult& p) { return p.Qps(); }),
         "q/s"},
        {"raw query_p50_us",
         MedianOf(untraced,
                  [](const PassResult& p) {
                    return Percentile(p.latency_us, 50.0);
                  }),
         "us"},
        {"raw query_p99_us",
         MedianOf(untraced,
                  [](const PassResult& p) {
                    return Percentile(p.latency_us, 99.0);
                  }),
         "us"},
        {"raw cpu_us_per_query",
         MedianOf(untraced,
                  [](const PassResult& p) { return p.CpuUsPerQuery(); }),
         "us"},
        {"probe_us (median)", Median(probe_us), "us"},
    };
    for (const Metric& m : raw) {
      std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
  }

  const bool correct = violations.empty();
  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i > 0 ? ", " : "") + Json(metrics[i].name) +
            ": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": " + Json(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace deepsea

int main(int argc, char** argv) {
  return deepsea::perfbench::Main(argc, argv);
}
