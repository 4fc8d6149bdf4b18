// Multi-tenant pool bench: is one shared pool of S_max better than
// partitioning the same budget into k private pools of S_max/k? The
// paper's pool is workload-aware (Phi ranks views by decayed benefit
// per byte), so a shared pool can shift capacity toward whichever
// tenant currently earns it — static partitioning cannot. The effect
// is largest on skewed tenant mixes: the hot tenant's views starve in
// a S_max/k slice while the cold tenants' slices sit half empty.
//
// Usage:
//   bench_multitenant_pool [--smoke] [--csv=PATH]
// --smoke runs a CI-sized workload (same shape, 10x fewer queries);
// --csv writes the per-query telemetry rows (QueryTrace schema) to
// PATH instead of stdout. Both modes check `shape multitenant shared <
// split` and exit 1 when it fails.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "core/shared_pool.h"
#include "exp/trace.h"

using namespace deepsea;

namespace {

constexpr double kSMaxBytes = 12e9;

struct TenantSpec {
  std::string name;
  uint64_t seed;
  int queries;
};

struct TenantOutcome {
  int queries = 0;
  double total_seconds = 0.0;
  double base_seconds = 0.0;
};

/// Deterministic interleaving of the tenants' streams: the tenant query
/// counts are laid out round-robin and shuffled with a fixed seed, so
/// both variants process the same global order.
std::vector<int> MakeSchedule(const std::vector<TenantSpec>& tenants) {
  std::vector<int> schedule;
  std::vector<int> remaining;
  for (const TenantSpec& t : tenants) remaining.push_back(t.queries);
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
  Rng rng(99);
  for (size_t i = schedule.size(); i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(schedule[i - 1], schedule[j]);
  }
  return schedule;
}

/// Runs the interleaved workload with every tenant attached to ONE
/// shared pool of `pool_bytes` (shared=true) or each tenant on a
/// private engine limited to `pool_bytes / k` (shared=false). Returns
/// per-tenant totals; per-query rows land in `trace` under
/// "<variant>/<tenant>" labels.
std::vector<TenantOutcome> RunVariant(
    bool shared, const std::vector<TenantSpec>& tenants,
    const std::vector<std::vector<WorkloadQuery>>& workloads,
    const std::vector<int>& schedule, double pool_bytes, QueryTrace* trace) {
  const std::string variant = shared ? "shared" : "split";
  EngineOptions options = bench::DeepSea().options;
  options.pool_limit_bytes =
      shared ? pool_bytes : pool_bytes / static_cast<double>(tenants.size());

  // The shared variant needs one catalog for all tenants (they see each
  // other's registered view tables); private engines each get their own
  // catalog, exactly as ExperimentRunner isolates strategies.
  std::vector<std::unique_ptr<Catalog>> catalogs;
  std::unique_ptr<SharedPool> pool;
  std::vector<std::unique_ptr<DeepSeaEngine>> engines;
  const auto data = bench::Dataset(100.0, /*sdss_distribution=*/true);
  if (shared) {
    catalogs.push_back(std::make_unique<Catalog>());
    if (!BigBenchDataset::Generate(data, catalogs.back().get()).ok()) return {};
    pool = std::make_unique<SharedPool>(catalogs.back().get(), options);
  }
  for (const TenantSpec& t : tenants) {
    if (shared) {
      engines.push_back(std::make_unique<DeepSeaEngine>(catalogs.back().get(),
                                                        pool.get(), t.name));
    } else {
      catalogs.push_back(std::make_unique<Catalog>());
      if (!BigBenchDataset::Generate(data, catalogs.back().get()).ok()) {
        return {};
      }
      engines.push_back(
          std::make_unique<DeepSeaEngine>(catalogs.back().get(), options));
    }
  }

  std::vector<TenantOutcome> out(tenants.size());
  std::vector<size_t> next(tenants.size(), 0);
  for (int who : schedule) {
    const size_t t = static_cast<size_t>(who);
    const WorkloadQuery& q = workloads[t][next[t]++];
    auto plan = BigBenchTemplates::Build(q.template_name, q.range.lo, q.range.hi);
    if (!plan.ok()) continue;
    auto report = engines[t]->ProcessQuery(*plan);
    if (!report.ok()) {
      std::fprintf(stderr, "%s/%s query failed: %s\n", variant.c_str(),
                   tenants[t].name.c_str(),
                   report.status().ToString().c_str());
      continue;
    }
    trace->Record(variant + "/" + tenants[t].name, *report);
    ++out[t].queries;
    out[t].total_seconds += report->total_seconds;
    out[t].base_seconds += report->base_seconds;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--csv=", 6) == 0) csv_path = argv[i] + 6;
  }

  const int scale = smoke ? 1 : 10;
  // Skewed mix: one hot tenant issues 60% of the traffic.
  const std::vector<TenantSpec> tenants = {
      {"hot", 2017, 60 * scale},
      {"warm", 4034, 20 * scale},
      {"cold", 6051, 20 * scale},
  };
  bench::Banner("Multi-tenant pool",
                smoke ? "shared S_max vs k pools of S_max/k (smoke)"
                      : "shared S_max vs k pools of S_max/k, 100GB");

  std::vector<std::vector<WorkloadQuery>> workloads;
  for (const TenantSpec& t : tenants) {
    workloads.push_back(bench::SdssWorkload(t.queries, t.seed));
  }
  const std::vector<int> schedule = MakeSchedule(tenants);

  QueryTrace trace;
  const auto shared = RunVariant(true, tenants, workloads, schedule,
                                 kSMaxBytes, &trace);
  const auto split = RunVariant(false, tenants, workloads, schedule,
                                kSMaxBytes, &trace);
  if (shared.size() != tenants.size() || split.size() != tenants.size()) {
    std::fprintf(stderr, "variant run failed\n");
    return 1;
  }

  TablePrinter table;
  table.Header({"tenant", "queries", "shared (s)", "split (s)", "base (s)",
                "shared/split"});
  double shared_total = 0.0, split_total = 0.0, base_total = 0.0;
  for (size_t t = 0; t < tenants.size(); ++t) {
    shared_total += shared[t].total_seconds;
    split_total += split[t].total_seconds;
    base_total += shared[t].base_seconds;
    table.Row({tenants[t].name, std::to_string(shared[t].queries),
               FmtSeconds(shared[t].total_seconds),
               FmtSeconds(split[t].total_seconds),
               FmtSeconds(shared[t].base_seconds),
               FmtRatio(split[t].total_seconds > 0.0
                            ? shared[t].total_seconds / split[t].total_seconds
                            : 0.0)});
  }
  table.Row({"ALL", "-", FmtSeconds(shared_total), FmtSeconds(split_total),
             FmtSeconds(base_total),
             FmtRatio(split_total > 0.0 ? shared_total / split_total : 0.0)});
  std::printf(
      "\nExpected: the workload-aware shared pool tracks the skew (the hot"
      "\ntenant gets most of S_max), beating the static S_max/k slices on"
      "\naggregate cost.\n");
  // The claim DESIGN.md cites for one shared S_max.
  bench::ShapeGate shapes;
  shapes.Check("multitenant shared < split", shared_total < split_total);
  std::printf("\n");

  if (csv_path.empty()) {
    std::printf("%s", trace.ToCsv().c_str());
  } else {
    Status w = trace.WriteCsv(csv_path);
    if (!w.ok()) {
      std::fprintf(stderr, "csv write failed: %s\n", w.ToString().c_str());
      return 1;
    }
    std::printf("wrote %zu telemetry rows to %s\n", trace.size(),
                csv_path.c_str());
  }
  return shapes.ExitCode();
}
