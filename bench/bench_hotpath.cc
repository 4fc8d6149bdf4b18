// Statistics hot-path bench: the multi-engine rows of the "plan under a
// shared lock, commit sharded" change (DESIGN.md, "Statistics hot path
// and locking discipline").
//
//   Section 1 (stats_scaling) is retired: bench_micro_core's
//   BM_DecayedHits and BM_AccumulatedBenefit rows time H(I) and B(V,t)
//   over growing histories, and ViewStatsIncrementalTest and
//   FragmentStatsIncrementalTest check them against their definitions.
//
//   2. throughput — 1..32 engines free-running on one SharedPool (no
//      turnstile), under three workload shapes: "shared" (every engine
//      draws fresh ranges from the same template pool, so footprints
//      overlap and nearly every query is a creator), "shared_warmed"
//      (the same stream replayed against a pre-warmed pool, so commits
//      are stats-only folds), and "disjoint" (engine i works one
//      private template, so read/write footprints are disjoint and
//      sharded commits never conflict). Planning runs under the
//      shared (S) lock; commits — creators included, via view-id
//      reservation and precise catalog footprints — take the sharded
//      (IX + view-group shards) path unless they merge, evict inline,
//      execute physically, or replan. Replans are split
//      genuine-conflict vs spurious, and the per-shard hold times
//      (PoolManager::commit_shard_stats) yield the max shard
//      serialization fraction. Four rows double as runtime
//      assertions: spurious replans on disjoint (engines <= 8), a
//      warmed row with zero sharded commits, a majority-exclusive
//      cold shared row, or warmed multi-engine throughput below 0.75x
//      the single-engine rate each fail the bench — after section 3
//      has run and the result files are written.
//
//   3. observer_overhead — the 4-engine fixed-total-work throughput
//      config re-run with no observer and with one shared
//      MetricsObserver, so the cost of always-on telemetry
//      is pinned as a fraction of no-observer throughput (EXPERIMENTS
//      budget: MetricsObserver <= 5%). Each mode is measured
//      repeat-and-median (5 runs, 3 in smoke) and the reported
//      fraction is clamped at zero: sub-noise observers report 0%, not
//      a nonsensical negative overhead.
//
// Usage:
//   bench_hotpath [--smoke] [--json=PATH] [--csv=PATH]
// --smoke shrinks all sections to CI size. JSON results land in
// BENCH_hotpath.json by default (the repo's perf baseline file);
// --csv additionally writes the same rows in CSV form.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/shared_pool.h"
#include "exp/metrics.h"

using namespace deepsea;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- section 2: multi-engine shared-pool throughput -----------------

struct ThroughputRow {
  const char* workload = "shared";
  int engines = 0;
  int queries = 0;
  int replans = 0;  ///< speculative plans invalidated by a foreign commit
  int replans_conflict = 0;  ///< genuine read-set conflicts
  int replans_spurious = 0;  ///< epoch-table coverage loss
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  uint64_t commits = 0;
  int64_t commits_sharded = 0;    ///< commits that stayed on the IX path
  int64_t commits_exclusive = 0;  ///< structural / escalated X commits
  double commit_held_seconds = 0.0;
  double commit_held_fraction = 0.0;
  /// Max over commit shards of (shard hold time / wall): the worst
  /// single view-group serialization. The aggregate fraction above can
  /// exceed 1 at high tenancy (sharded commits overlap); this one is
  /// the true bottleneck measure.
  double max_shard_held_fraction = 0.0;
  double sim_seconds = 0.0;  ///< simulated workload cost (sanity column)
};

/// Which per-engine query streams a throughput run uses. kSharedWarmed
/// replays the shared stream against a pool pre-warmed with the same
/// queries: candidate views are already tracked and materialized, so
/// the measured commits are stats-only folds — the sharded-commit path
/// under footprint-overlapping traffic (the cold shared rows pin every
/// commit to the exclusive path by tracking new views).
enum class WorkloadKind { kShared, kSharedWarmed, kDisjoint };

const char* WorkloadName(WorkloadKind workload) {
  switch (workload) {
    case WorkloadKind::kShared:
      return "shared";
    case WorkloadKind::kSharedWarmed:
      return "shared_warmed";
    case WorkloadKind::kDisjoint:
      return "disjoint";
  }
  return "unknown";
}

/// The disjoint-footprint workload: engine i works template
/// kDisjointTemplates[i % 8] exclusively, so each engine's views —
/// and therefore its read/write footprints — are private (for
/// engines <= 8; beyond that engines pair up mod 8).
constexpr const char* kDisjointTemplates[8] = {"Q1",  "Q7",  "Q9",  "Q5",
                                               "Q12", "Q16", "Q26", "Q29"};

/// Telemetry attached during a throughput run (section 3): none, or one
/// MetricsObserver shared by every engine, as the observer contract
/// allows (its hot path takes one per-tenant lock per hook).
enum class ObserverMode { kNone, kMetrics };

const char* ObserverModeName(ObserverMode mode) {
  switch (mode) {
    case ObserverMode::kNone:
      return "none";
    case ObserverMode::kMetrics:
      return "metrics";
  }
  return "unknown";
}

/// Client think time between a tenant's queries: models the round trip
/// of the interactive sessions the paper's workload represents. This is
/// what shared-lock planning converts into capacity — while one
/// tenant thinks, the others plan concurrently; only the commit
/// serializes.
constexpr auto kThinkTime = std::chrono::microseconds(500);

/// `total_queries` split evenly across `engines` free-running threads
/// on ONE shared pool — total work (and thus final pool size) is fixed
/// per row, so queries/second across rows measures concurrency alone.
ThroughputRow RunThroughput(int engines, int total_queries,
                            WorkloadKind workload = WorkloadKind::kShared,
                            ObserverMode mode = ObserverMode::kNone) {
  ThroughputRow row;
  row.workload = WorkloadName(workload);
  row.engines = engines;
  const int per_engine = total_queries / engines;

  Catalog catalog;
  const auto data = bench::Dataset(100.0, /*sdss_distribution=*/true);
  if (!BigBenchDataset::Generate(data, &catalog).ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    std::exit(1);
  }
  EngineOptions options = bench::DeepSea().options;
  options.pool_limit_bytes = 12e9;
  SharedPool pool(&catalog, options);

  // Per-engine query streams. Shared: one global workload dealt out in
  // contiguous chunks, so every row processes the same query set
  // regardless of engine count. Disjoint: engine i draws its own SDSS
  // range stream over its private template.
  std::vector<std::vector<WorkloadQuery>> streams(
      static_cast<size_t>(engines));
  if (workload != WorkloadKind::kDisjoint) {
    const std::vector<WorkloadQuery> all =
        bench::SdssWorkload(per_engine * engines, 2017);
    for (int e = 0; e < engines; ++e) {
      const size_t lo = static_cast<size_t>(e) * static_cast<size_t>(per_engine);
      streams[static_cast<size_t>(e)].assign(
          all.begin() + static_cast<long>(lo),
          all.begin() + static_cast<long>(lo + static_cast<size_t>(per_engine)));
    }
  } else {
    // Each engine cycles over a small set of distinct SDSS ranges on
    // its private template. Repeats model the warmed pool: a query
    // whose candidate signatures are all known tracks no new views, so
    // its commit is non-structural and takes the sharded path. (A
    // fresh range per query would re-track the range-bearing aggregate
    // candidate every time and pin every commit to the X path.)
    for (int e = 0; e < engines; ++e) {
      SdssTraceModel sdss(SdssTraceModel::Config{},
                          2017 + static_cast<uint64_t>(e));
      const Interval ra(-20.0, 400.0);
      const int distinct = std::max(1, per_engine / 8);
      std::vector<WorkloadQuery> ranges;
      for (const Interval& r : sdss.GenerateTrace(distinct)) {
        ranges.push_back({kDisjointTemplates[e % 8],
                          SdssTraceModel::MapRange(r, ra, bench::ItemSkDomain())});
      }
      for (int i = 0; i < per_engine; ++i) {
        streams[static_cast<size_t>(e)].push_back(
            ranges[static_cast<size_t>(i) % ranges.size()]);
      }
    }
  }
  std::vector<std::unique_ptr<DeepSeaEngine>> fleet;
  for (int e = 0; e < engines; ++e) {
    fleet.push_back(std::make_unique<DeepSeaEngine>(
        &catalog, &pool, "tenant" + std::to_string(e)));
  }

  // Warm the pool with the full query set before the measured run: the
  // re-run tracks no new views, so its commits are non-structural and
  // take the sharded path. (Warmup runs before the lock-stat diff
  // below, so it contributes nothing to the measured row.)
  if (workload == WorkloadKind::kSharedWarmed) {
    DeepSeaEngine warm(&catalog, &pool, "warm");
    for (const auto& stream : streams) {
      for (const WorkloadQuery& q : stream) {
        auto plan =
            BigBenchTemplates::Build(q.template_name, q.range.lo, q.range.hi);
        if (!plan.ok()) continue;
        (void)warm.ProcessQuery(*plan);
      }
    }
  }

  MetricsObserver metrics;
  if (mode == ObserverMode::kMetrics) {
    metrics.set_pool(pool.pool());
    for (auto& engine : fleet) engine->set_observer(&metrics);
  }

  // Engine construction enters the commit section briefly (InitStages);
  // measure the run alone by diffing the pool's lock stats around it.
  const PoolManager::CommitLockStats before = pool.pool()->commit_lock_stats();
  const auto shards_before = pool.pool()->commit_shard_stats();
  std::vector<double> sim(static_cast<size_t>(engines), 0.0);
  std::vector<int> done(static_cast<size_t>(engines), 0);
  std::vector<int> replans(static_cast<size_t>(engines), 0);
  std::vector<int> conflict(static_cast<size_t>(engines), 0);
  std::vector<int> spurious(static_cast<size_t>(engines), 0);
  const double t0 = NowSeconds();
  {
    std::vector<std::thread> threads;
    for (int e = 0; e < engines; ++e) {
      threads.emplace_back([&, e] {
        for (const WorkloadQuery& q : streams[static_cast<size_t>(e)]) {
          auto plan =
              BigBenchTemplates::Build(q.template_name, q.range.lo, q.range.hi);
          if (!plan.ok()) continue;
          auto report = fleet[static_cast<size_t>(e)]->ProcessQuery(*plan);
          if (!report.ok()) continue;
          sim[static_cast<size_t>(e)] += report->total_seconds;
          replans[static_cast<size_t>(e)] += report->replanned ? 1 : 0;
          conflict[static_cast<size_t>(e)] += report->replan_conflict ? 1 : 0;
          spurious[static_cast<size_t>(e)] += report->replan_spurious ? 1 : 0;
          ++done[static_cast<size_t>(e)];
          std::this_thread::sleep_for(kThinkTime);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  row.wall_seconds = NowSeconds() - t0;
  const PoolManager::CommitLockStats after = pool.pool()->commit_lock_stats();
  const auto shards_after = pool.pool()->commit_shard_stats();

  for (int e = 0; e < engines; ++e) {
    row.queries += done[static_cast<size_t>(e)];
    row.replans += replans[static_cast<size_t>(e)];
    row.replans_conflict += conflict[static_cast<size_t>(e)];
    row.replans_spurious += spurious[static_cast<size_t>(e)];
    row.sim_seconds += sim[static_cast<size_t>(e)];
    const EngineTotals& totals = fleet[static_cast<size_t>(e)]->totals();
    row.commits_sharded += totals.commits_sharded;
    row.commits_exclusive += totals.commits_exclusive;
  }
  row.queries_per_second =
      row.wall_seconds > 0.0 ? row.queries / row.wall_seconds : 0.0;
  row.commits = after.commits - before.commits;
  row.commit_held_seconds = after.held_seconds - before.held_seconds;
  row.commit_held_fraction = row.wall_seconds > 0.0
                                 ? row.commit_held_seconds / row.wall_seconds
                                 : 0.0;
  for (size_t s = 0; s < shards_after.size(); ++s) {
    const double held = shards_after[s].held_seconds -
                        (s < shards_before.size()
                             ? shards_before[s].held_seconds
                             : 0.0);
    if (row.wall_seconds > 0.0) {
      row.max_shard_held_fraction =
          std::max(row.max_shard_held_fraction, held / row.wall_seconds);
    }
  }
  return row;
}

// --- section 3: observer overhead -----------------------------------

struct OverheadRow {
  const char* mode = "none";
  int repeats = 0;
  ThroughputRow run;  ///< the median-q/s run of the repeats
  double median_qps = 0.0;
  /// max(0, 1 - median q/s(mode) / median q/s(none)): positive =
  /// slower than no-observer. Medians over repeated runs squeeze out
  /// scheduler noise, and the clamp keeps sub-noise observers at 0
  /// instead of a nonsensical negative overhead.
  double overhead_fraction = 0.0;
};

/// Runs the 4-engine fixed-total-work config `repeats` times under
/// `mode` and returns the row whose q/s is the median of the repeats.
OverheadRow MeasureOverhead(ObserverMode mode, int engines, int total_queries,
                            int repeats) {
  OverheadRow out;
  out.mode = ObserverModeName(mode);
  out.repeats = repeats;
  std::vector<ThroughputRow> runs;
  runs.reserve(static_cast<size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    runs.push_back(
        RunThroughput(engines, total_queries, WorkloadKind::kShared, mode));
  }
  std::sort(runs.begin(), runs.end(),
            [](const ThroughputRow& a, const ThroughputRow& b) {
              return a.queries_per_second < b.queries_per_second;
            });
  out.run = runs[runs.size() / 2];
  out.median_qps = out.run.queries_per_second;
  return out;
}

// --- output ---------------------------------------------------------

std::string ToJson(bool smoke, const std::vector<ThroughputRow>& throughput,
                   const std::vector<OverheadRow>& overhead) {
  std::string out;
  char buf[512];
  out += "{\n  \"bench\": \"hotpath\",\n";
  std::snprintf(buf, sizeof(buf), "  \"smoke\": %s,\n",
                smoke ? "true" : "false");
  out += buf;
  out += "  \"throughput\": [\n";
  for (size_t i = 0; i < throughput.size(); ++i) {
    const ThroughputRow& r = throughput[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"workload\": \"%s\", \"engines\": %d, \"queries\": %d, "
        "\"replans\": %d, \"replans_conflict\": %d, "
        "\"replans_spurious\": %d, \"wall_seconds\": %.3f, "
        "\"queries_per_second\": %.1f, \"commits\": %llu, "
        "\"commits_sharded\": %lld, \"commits_exclusive\": %lld, "
        "\"commit_held_seconds\": %.3f, \"commit_held_fraction\": %.3f, "
        "\"max_shard_held_fraction\": %.3f, \"sim_seconds\": %.1f}%s\n",
        r.workload, r.engines, r.queries, r.replans, r.replans_conflict,
        r.replans_spurious, r.wall_seconds, r.queries_per_second,
        static_cast<unsigned long long>(r.commits),
        static_cast<long long>(r.commits_sharded),
        static_cast<long long>(r.commits_exclusive), r.commit_held_seconds,
        r.commit_held_fraction, r.max_shard_held_fraction, r.sim_seconds,
        i + 1 < throughput.size() ? "," : "");
    out += buf;
  }
  out += "  ],\n  \"observer_overhead\": [\n";
  for (size_t i = 0; i < overhead.size(); ++i) {
    const OverheadRow& r = overhead[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"mode\": \"%s\", \"engines\": %d, \"queries\": %d, "
        "\"repeats\": %d, \"wall_seconds\": %.3f, "
        "\"queries_per_second\": %.1f, \"overhead_fraction\": %.4f}%s\n",
        r.mode, r.run.engines, r.run.queries, r.repeats, r.run.wall_seconds,
        r.median_qps, r.overhead_fraction,
        i + 1 < overhead.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

std::string ToCsv(const std::vector<ThroughputRow>& throughput,
                  const std::vector<OverheadRow>& overhead) {
  std::string out;
  char buf[256];
  out += "section,workload,engines,queries,replans,replans_conflict,"
         "replans_spurious,wall_seconds,queries_per_second,commits,"
         "commits_sharded,commits_exclusive,commit_held_seconds,"
         "commit_held_fraction,max_shard_held_fraction\n";
  for (const ThroughputRow& r : throughput) {
    std::snprintf(buf, sizeof(buf),
                  "throughput,%s,%d,%d,%d,%d,%d,%.3f,%.1f,%llu,%lld,%lld,"
                  "%.3f,%.3f,%.3f\n",
                  r.workload, r.engines, r.queries, r.replans,
                  r.replans_conflict, r.replans_spurious, r.wall_seconds,
                  r.queries_per_second,
                  static_cast<unsigned long long>(r.commits),
                  static_cast<long long>(r.commits_sharded),
                  static_cast<long long>(r.commits_exclusive),
                  r.commit_held_seconds, r.commit_held_fraction,
                  r.max_shard_held_fraction);
    out += buf;
  }
  out += "section,mode,engines,queries,repeats,wall_seconds,"
         "queries_per_second,overhead_fraction\n";
  for (const OverheadRow& r : overhead) {
    std::snprintf(buf, sizeof(buf),
                  "observer_overhead,%s,%d,%d,%d,%.3f,%.1f,%.4f\n", r.mode,
                  r.run.engines, r.run.queries, r.repeats, r.run.wall_seconds,
                  r.median_qps, r.overhead_fraction);
    out += buf;
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return n == content.size();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_hotpath.json";
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--csv=", 6) == 0) csv_path = argv[i] + 6;
  }

  bench::Banner("Statistics hot path",
                smoke ? "shared-lock planning + sharded commits (smoke)"
                      : "shared-lock planning + sharded commits");

  // Section 2. Fixed total work split across growing engine counts,
  // under both workload shapes. The disjoint rows double as a runtime
  // assertion: sharded commits with disjoint footprints must never
  // replan spuriously.
  const int total_queries = smoke ? 60 : 240;
  const std::vector<int> engine_counts =
      smoke ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 2, 4, 8, 16, 32};
  std::vector<ThroughputRow> throughput;
  bool spurious_on_disjoint = false;
  bool no_sharded_on_warmed = false;
  bool exclusive_majority_on_shared = false;
  bool warmed_scaleup_collapsed = false;
  double warmed_single_engine_qps = 0.0;
  for (WorkloadKind workload :
       {WorkloadKind::kShared, WorkloadKind::kSharedWarmed,
        WorkloadKind::kDisjoint}) {
    std::printf(
        "\nthroughput/%s (%d queries total, shared pool, %lldus think):\n",
        WorkloadName(workload), total_queries,
        static_cast<long long>(kThinkTime.count()));
    std::printf("%8s %8s %8s %9s %9s %8s %8s %8s %8s %10s %10s\n", "engines",
                "queries", "replans", "conflict", "spurious", "sharded",
                "excl", "wall(s)", "q/s", "held/wall", "maxshard");
    for (int engines : engine_counts) {
      throughput.push_back(RunThroughput(engines, total_queries, workload));
      const ThroughputRow& r = throughput.back();
      std::printf("%8d %8d %8d %9d %9d %8lld %8lld %8.3f %8.1f %10.3f %10.3f\n",
                  r.engines, r.queries, r.replans, r.replans_conflict,
                  r.replans_spurious, static_cast<long long>(r.commits_sharded),
                  static_cast<long long>(r.commits_exclusive), r.wall_seconds,
                  r.queries_per_second, r.commit_held_fraction,
                  r.max_shard_held_fraction);
      // Engines <= 8 keep one private template per engine; any spurious
      // replan there means the epoch table lost coverage on a workload
      // that publishes almost nothing — a regression.
      if (workload == WorkloadKind::kDisjoint && engines <= 8 &&
          r.replans_spurious != 0) {
        spurious_on_disjoint = true;
      }
      // The warmed-shared rows exist to exercise the sharded commit
      // path on footprint-overlapping traffic (the smoke run included):
      // a warmed row with zero sharded commits means stats-only folds
      // regressed onto the exclusive path.
      if (workload == WorkloadKind::kSharedWarmed && r.commits_sharded == 0) {
        no_sharded_on_warmed = true;
      }
      // The COLD shared rows are the view-id-reservation showcase:
      // every engine keeps tracking fresh candidate views, and with
      // placeholder ids + precise catalog footprints those structural
      // commits stay on the IX path. Exclusive commits should be the
      // minority (evictions and replans only); a majority-exclusive
      // row means creators regressed onto the X path.
      if (workload == WorkloadKind::kShared &&
          r.commits_sharded <= r.commits_exclusive) {
        exclusive_majority_on_shared = true;
      }
      // Warmed scale-up floor: 2 engines once collapsed to ~0.67x the
      // single-engine rate (conflict replans re-planning under the held
      // X lock convoyed the other tenant). The ratio is computed
      // within one bench run, so machine-speed noise cancels; 0.75 sits
      // above the historical collapse and below legitimate jitter.
      if (workload == WorkloadKind::kSharedWarmed) {
        if (r.engines == 1) {
          warmed_single_engine_qps = r.queries_per_second;
        } else if (warmed_single_engine_qps > 0.0 &&
                   r.queries_per_second < 0.75 * warmed_single_engine_qps) {
          warmed_scaleup_collapsed = true;
        }
      }
    }
  }
  // The gates are recorded here and enforced after section 3 and the
  // result files, so a failing run still measures observer overhead and
  // leaves its rows behind.
  std::vector<const char*> failures;
  if (spurious_on_disjoint) {
    failures.push_back("spurious replans on the disjoint-footprint workload");
  }
  if (no_sharded_on_warmed) {
    failures.push_back("no sharded commits on the warmed shared workload");
  }
  if (exclusive_majority_on_shared) {
    failures.push_back(
        "exclusive commits outnumber sharded commits on the cold shared "
        "workload");
  }
  if (warmed_scaleup_collapsed) {
    failures.push_back(
        "warmed shared throughput collapsed below 0.75x the single-engine "
        "rate");
  }

  // Section 3. The cost of always-on telemetry: the 4-engine fixed-
  // total-work config under each observer mode, repeat-and-median so a
  // single lucky/unlucky scheduler draw cannot sign-flip the fraction.
  // Think time and planning dominate the per-query path, so the
  // MetricsObserver hot path (one uncontended per-tenant lock per hook)
  // must stay within a few percent of no-observer throughput.
  const int overhead_engines = 4;
  const int overhead_repeats = smoke ? 3 : 5;
  std::vector<OverheadRow> overhead;
  std::printf("\nobserver_overhead (%d engines, %d queries total, median of %d):\n",
              overhead_engines, total_queries, overhead_repeats);
  std::printf("%10s %8s %8s %8s %10s\n", "observer", "queries", "wall(s)",
              "q/s", "overhead");
  for (ObserverMode mode : {ObserverMode::kNone, ObserverMode::kMetrics}) {
    OverheadRow r =
        MeasureOverhead(mode, overhead_engines, total_queries, overhead_repeats);
    const double base_qps =
        overhead.empty() ? r.median_qps : overhead.front().median_qps;
    r.overhead_fraction =
        base_qps > 0.0 ? std::max(0.0, 1.0 - r.median_qps / base_qps) : 0.0;
    overhead.push_back(r);
    std::printf("%10s %8d %8.3f %8.1f %9.1f%%\n", r.mode, r.run.queries,
                r.run.wall_seconds, r.median_qps,
                100.0 * r.overhead_fraction);
  }

  std::printf(
      "\nExpected: queries/second improves with engines (planning and think"
      "\ntime overlap; disjoint-footprint commits overlap too) with zero"
      "\nspurious replans on the disjoint workload and no single commit"
      "\nshard dominating (maxshard well under the old exclusive-lock"
      "\nheld/wall); observer overhead within a few percent of no-observer"
      "\nthroughput (MetricsObserver budget: 5%%); warmed shared rows keep"
      "\ncommits on the sharded path and multi-engine warmed rows stay"
      "\nabove 0.75x the single-engine rate; cold shared rows commit"
      "\nmajority-sharded (view-id reservation keeps creators off the X"
      "\npath).\n\n");

  const std::string json = ToJson(smoke, throughput, overhead);
  if (!WriteFile(json_path, json)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  if (!csv_path.empty()) {
    if (!WriteFile(csv_path, ToCsv(throughput, overhead))) {
      std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  for (const char* failure : failures) {
    std::fprintf(stderr, "FAIL: %s\n", failure);
  }
  return failures.empty() ? 0 : 1;
}
