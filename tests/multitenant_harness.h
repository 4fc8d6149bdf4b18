#ifndef DEEPSEA_TESTS_MULTITENANT_HARNESS_H_
#define DEEPSEA_TESTS_MULTITENANT_HARNESS_H_

// Deterministic concurrency harness for multi-tenant engines sharing
// one PoolManager. The pieces:
//
//  * Turnstile — a schedule-controlled interleaver. Tenant threads call
//    Await(me) before each query and Advance() after it, so the global
//    commit order equals a chosen schedule exactly, independent of OS
//    scheduling. With it a threaded run can be compared bit-for-bit
//    against a single-threaded replay of the same commit order.
//  * SdssTenantWorkload / BuildPlans — per-tenant SDSS-patterned
//    workloads (the golden-trace construction, parameterized by seed so
//    tenants get distinct but reproducible query streams).
//  * ShuffledSchedule — a seeded permutation of the round-robin commit
//    order.
//  * PoolFingerprint — a canonical text rendering of everything the
//    pool adapts (views, statistics, fragments, FS files, clock) with
//    %.17g doubles. Two runs with the same commit order must produce
//    identical fingerprints; this is the "pool state is a function of
//    commit order alone" assertion.
//  * RunScheduled — drives N tenants over a fresh SharedPool in a given
//    commit order, either single-threaded (replay) or with one
//    std::thread per tenant gated through a Turnstile.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/engine.h"
#include "core/shared_pool.h"
#include "workload/bigbench.h"
#include "workload/sdss.h"

namespace deepsea {
namespace mt {

/// Schedule-controlled interleaver: Await(who) blocks the caller until
/// the schedule's current step belongs to `who`; Advance() moves to the
/// next step and wakes everyone. Steps are tenant indices; tenant t
/// must appear in the schedule exactly as often as it has queries.
class Turnstile {
 public:
  explicit Turnstile(std::vector<int> schedule)
      : schedule_(std::move(schedule)) {}

  /// Returns false when the schedule is exhausted (caller should stop).
  bool Await(int who) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return step_ >= schedule_.size() || schedule_[step_] == who;
    });
    return step_ < schedule_.size();
  }

  void Advance() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++step_;
    }
    cv_.notify_all();
  }

 private:
  std::vector<int> schedule_;
  size_t step_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
};

struct TenantQuery {
  std::string template_name;
  Interval range;
};

/// The golden-trace workload shape (Section 10.1: SDSS selection ranges
/// mapped onto item_sk over randomly chosen join templates), with the
/// seed exposed so each tenant draws a distinct reproducible stream.
inline std::vector<TenantQuery> SdssTenantWorkload(int n, uint64_t seed) {
  SdssTraceModel sdss(SdssTraceModel::Config{}, seed);
  const auto trace = sdss.GenerateTrace(n);
  const Interval ra(-20.0, 400.0);
  const Interval item_sk(0.0, 400000.0);
  Rng rng(seed + 1);
  const auto names = BigBenchTemplates::Names();
  std::vector<TenantQuery> out;
  out.reserve(trace.size());
  for (const Interval& r : trace) {
    const std::string& name =
        names[static_cast<size_t>(rng.UniformInt(0, names.size() - 1))];
    out.push_back({name, SdssTraceModel::MapRange(r, ra, item_sk)});
  }
  return out;
}

/// Pre-builds the plan trees so worker threads never run the template
/// builder concurrently (plans reference base tables by name only, so
/// one plan set can be replayed against any catalog with those tables).
inline std::vector<PlanPtr> BuildPlans(const std::vector<TenantQuery>& queries) {
  std::vector<PlanPtr> out;
  out.reserve(queries.size());
  for (const TenantQuery& q : queries) {
    auto plan = BigBenchTemplates::Build(q.template_name, q.range.lo, q.range.hi);
    EXPECT_TRUE(plan.ok()) << q.template_name;
    out.push_back(*plan);
  }
  return out;
}

/// A seeded fully random commit order: each step picks uniformly among
/// the tenants that still have queries left. Unlike ShuffledSchedule
/// (a permuted round robin, which keeps tenants roughly in lockstep)
/// this produces bursts — one tenant can commit many times while
/// another's plan stays in flight — which is exactly the shape that
/// stresses read-set validation and the bounded epoch table.
inline std::vector<int> RandomSchedule(
    const std::vector<int>& queries_per_tenant, uint64_t seed) {
  std::vector<int> remaining = queries_per_tenant;
  std::vector<int> alive;
  for (size_t t = 0; t < remaining.size(); ++t) {
    if (remaining[t] > 0) alive.push_back(static_cast<int>(t));
  }
  Rng rng(seed);
  std::vector<int> schedule;
  while (!alive.empty()) {
    const size_t i = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(alive.size()) - 1));
    const int who = alive[i];
    schedule.push_back(who);
    if (--remaining[static_cast<size_t>(who)] == 0) {
      alive.erase(alive.begin() + static_cast<long>(i));
    }
  }
  return schedule;
}

/// A seeded permutation of the round-robin commit order: tenant t
/// appears `queries_per_tenant[t]` times. seed selects the permutation;
/// the same seed always yields the same schedule.
inline std::vector<int> ShuffledSchedule(
    const std::vector<int>& queries_per_tenant, uint64_t seed) {
  std::vector<int> schedule;
  std::vector<int> remaining = queries_per_tenant;
  bool any = true;
  while (any) {
    any = false;
    for (size_t t = 0; t < remaining.size(); ++t) {
      if (remaining[t] <= 0) continue;
      schedule.push_back(static_cast<int>(t));
      --remaining[t];
      any = true;
    }
  }
  Rng rng(seed);
  for (size_t i = schedule.size(); i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(schedule[i - 1], schedule[j]);
  }
  return schedule;
}

/// Canonical rendering of the pool's full adaptive state. Doubles use
/// %.17g (bit-identical round-trip); view order is track order, which
/// is itself a function of the commit order. Only call on a quiesced
/// pool (all tenant threads joined).
inline std::string PoolFingerprint(const PoolManager& pool) {
  std::string out = StrFormat(
      "clock=%lld pool_bytes=%.17g fs_bytes=%.17g\n",
      static_cast<long long>(pool.clock()), pool.PoolBytes(),
      pool.fs().TotalBytes("pool/"));
  for (const ViewInfo* v : pool.views().AllViews()) {
    out += StrFormat("view %s whole=%d S=%.17g C=%.17g events=%lld\n",
                     v->id.c_str(), v->whole_materialized ? 1 : 0,
                     v->stats.size_bytes, v->stats.creation_cost,
                     static_cast<long long>(v->stats.events().size()));
    for (const auto& [attr, part] : v->partitions) {
      for (const FragmentStats& f : part.fragments()) {
        out += StrFormat(
            "  frag %s [%.17g,%.17g] mat=%d S=%.17g hits=%lld\n", attr.c_str(),
            f.interval.lo, f.interval.hi, f.materialized ? 1 : 0, f.size_bytes,
            static_cast<long long>(f.hits().size()));
      }
    }
  }
  for (const std::string& path : pool.fs().List("pool/")) {
    out += "file " + path + "\n";
  }
  return out;
}

/// One QueryReport as a comparable line: the golden-trace field set
/// prefixed with the tenant id, all doubles %.17g.
inline std::string FormatTenantReport(const QueryReport& r) {
  std::string created;
  for (size_t i = 0; i < r.created_views.size(); ++i) {
    if (i > 0) created += ";";
    created += r.created_views[i];
  }
  return StrFormat(
      "%s,%lld,%.17g,%.17g,%.17g,%.17g,%s,%d,%s,%d,%d,%d,%.17g",
      r.tenant_id.c_str(), static_cast<long long>(r.query_index),
      r.base_seconds, r.best_seconds, r.materialize_seconds, r.total_seconds,
      r.used_view.c_str(), r.fragments_read, created.c_str(),
      r.created_fragments, r.evicted_fragments, r.merged_fragments,
      r.pool_bytes_after);
}

struct ScheduledRunResult {
  std::vector<std::vector<std::string>> reports;  ///< [tenant][i-th query]
  std::string fingerprint;
};

/// Runs tenant t's `plans[t]` over a fresh SharedPool in the exact
/// global commit order given by `schedule`. threaded=false replays the
/// schedule on the calling thread; threaded=true runs one std::thread
/// per tenant gated through a Turnstile — same commit order, real
/// concurrency. `catalog` should be fresh per run: engines register
/// view tables in it, and two runs with different schedules would
/// otherwise see each other's registrations. `configure`, when given,
/// runs against the quiesced pool before any engine is built — the
/// fault-injection tests use it to install a FaultPolicy (which must
/// outlive the call). `attach`, when given, runs once per engine after
/// construction and before any query — the metrics tests use it to
/// attach observers (tenant index is the second argument; observers
/// must satisfy the engine_observer.h concurrency contract themselves
/// when the run is threaded).
inline ScheduledRunResult RunScheduled(
    Catalog* catalog, const EngineOptions& options,
    const std::vector<std::string>& tenants,
    const std::vector<std::vector<PlanPtr>>& plans,
    const std::vector<int>& schedule, bool threaded,
    const std::function<void(PoolManager*)>& configure = nullptr,
    const std::function<void(DeepSeaEngine*, int)>& attach = nullptr) {
  const int n = static_cast<int>(plans.size());
  SharedPool shared(catalog, options);
  if (configure) configure(shared.pool());
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
  engines.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    engines.push_back(
        std::make_unique<DeepSeaEngine>(catalog, &shared, tenants[t]));
    if (attach) attach(engines.back().get(), t);
  }
  ScheduledRunResult out;
  out.reports.resize(static_cast<size_t>(n));
  if (!threaded) {
    std::vector<size_t> next(static_cast<size_t>(n), 0);
    for (int who : schedule) {
      const size_t i = next[static_cast<size_t>(who)]++;
      auto report = engines[static_cast<size_t>(who)]->ProcessQuery(
          plans[static_cast<size_t>(who)][i]);
      if (!report.ok()) {
        ADD_FAILURE() << "tenant " << tenants[static_cast<size_t>(who)]
                      << " query " << i << ": " << report.status().ToString();
        continue;
      }
      out.reports[static_cast<size_t>(who)].push_back(
          FormatTenantReport(*report));
    }
  } else {
    Turnstile turnstile(schedule);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      threads.emplace_back([&, t] {
        for (const PlanPtr& plan : plans[static_cast<size_t>(t)]) {
          if (!turnstile.Await(t)) break;
          auto report = engines[static_cast<size_t>(t)]->ProcessQuery(plan);
          if (report.ok()) {
            out.reports[static_cast<size_t>(t)].push_back(
                FormatTenantReport(*report));
          }
          turnstile.Advance();
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  out.fingerprint = PoolFingerprint(*shared.pool());
  return out;
}

}  // namespace mt
}  // namespace deepsea

#endif  // DEEPSEA_TESTS_MULTITENANT_HARNESS_H_
