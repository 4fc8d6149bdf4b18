#include "exp/metrics.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "common/str_util.h"
#include "core/engine_options.h"

namespace deepsea {

constexpr double MetricsObserver::kBucketBounds[];
const char* const MetricsObserver::kBucketLabels[kFiniteBuckets] = {
    "1e-06", "1e-05", "0.0001", "0.001", "0.01", "0.1",
    "1",     "10",    "100",    "1000",  "10000", "100000"};

namespace {

using Snapshot = MetricsObserver::MetricsSnapshot;

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Observe(double value, Snapshot::Histogram* h) {
  h->count += 1;
  h->sum += value;
  h->buckets[MetricsObserver::BucketIndex(value)] += 1;
}

void AddHistogram(const Snapshot::Histogram& in, Snapshot::Histogram* out) {
  out->count += in.count;
  out->sum += in.sum;
  for (size_t b = 0; b < MetricsObserver::kBucketCount; ++b) {
    out->buckets[b] += in.buckets[b];
  }
}

/// Prometheus sample-value formatting: %.17g round-trips doubles, with
/// the spec spellings for the non-finite values.
std::string FormatValue(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return StrFormat("%.17g", v);
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
std::string EscapeLabelValue(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

size_t MetricsObserver::BucketIndex(double value) {
  for (size_t i = 0; i < kFiniteBuckets; ++i) {
    if (value <= kBucketBounds[i]) return i;
  }
  return kFiniteBuckets;  // +Inf
}

void MetricsObserver::set_pool(const PoolManager* pool) {
  pool_ = pool;
  attach_held_seconds_ =
      pool != nullptr ? pool->commit_lock_stats().held_seconds : 0.0;
  attach_wall_ns_ = SteadyNowNs();
}

MetricsObserver::TenantSlot* MetricsObserver::Slot(const std::string& tenant) {
  {
    std::shared_lock<std::shared_mutex> lock(tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> lock(tenants_mu_);
  auto& slot = tenants_[tenant];
  if (slot == nullptr) slot = std::make_unique<TenantSlot>();
  return slot.get();
}

void MetricsObserver::OnStageEnd(EngineStage stage, const QueryContext& ctx,
                                 double sim_seconds, double wall_seconds) {
  TenantSlot* slot = Slot(ctx.tenant());
  const size_t s = static_cast<size_t>(stage);
  std::lock_guard<std::mutex> lock(slot->mu);
  Observe(sim_seconds, &slot->data.stage_sim[s]);
  Observe(wall_seconds, &slot->data.stage_wall[s]);
}

void MetricsObserver::OnQueryEnd(const QueryReport& report) {
  TenantSlot* slot = Slot(report.tenant_id);
  std::lock_guard<std::mutex> lock(slot->mu);
  slot->data.counts.Add(report);
  Observe(report.total_seconds, &slot->data.query_sim);
}

MetricsObserver::MetricsSnapshot::Tenant
MetricsObserver::MetricsSnapshot::Totals() const {
  Tenant total;
  for (const auto& [name, t] : tenants) {
    (void)name;
    total.counts += t.counts;
    for (size_t s = 0; s < kStageCount; ++s) {
      AddHistogram(t.stage_sim[s], &total.stage_sim[s]);
      AddHistogram(t.stage_wall[s], &total.stage_wall[s]);
    }
    AddHistogram(t.query_sim, &total.query_sim);
  }
  return total;
}

MetricsObserver::MetricsSnapshot MetricsObserver::TakeSnapshot() const {
  MetricsSnapshot snap;
  {
    std::shared_lock<std::shared_mutex> lock(tenants_mu_);
    for (const auto& [name, slot] : tenants_) {
      std::lock_guard<std::mutex> slot_lock(slot->mu);
      snap.tenants[name] = slot->data;
    }
  }
  if (pool_ != nullptr) {
    // One shared-lock pass over the pool makes the gauges mutually
    // consistent (never call from inside the commit section).
    auto shared = pool_->SharedLock();
    MetricsSnapshot::PoolGauges& g = snap.pool;
    g.present = true;
    g.pool_bytes = pool_->PoolBytes();
    g.pool_limit_bytes = pool_->options().pool_limit_bytes;
    g.commit_clock = pool_->clock();
    for (const ViewInfo* v : pool_->views().AllViews()) {
      ++g.views_tracked;
      if (v->InPool()) ++g.views_materialized;
      if (v->Quarantined(g.commit_clock)) ++g.views_quarantined;
      for (const auto& [attr, part] : v->partitions) {
        (void)attr;
        for (const FragmentStats& f : part.fragments()) {
          ++g.fragments_tracked;
          if (f.materialized) ++g.fragments_materialized;
        }
      }
    }
    const PoolManager::CommitLockStats lock_stats =
        pool_->commit_lock_stats();
    g.commits = lock_stats.commits;
    g.commit_lock_held_seconds = lock_stats.held_seconds;
    g.commit_shards = pool_->commit_shard_stats();
    const double wall =
        static_cast<double>(SteadyNowNs() - attach_wall_ns_) * 1e-9;
    g.commit_lock_hold_fraction =
        wall > 0.0
            ? (lock_stats.held_seconds - attach_held_seconds_) / wall
            : 0.0;
  }
  return snap;
}

// --- Prometheus rendering --------------------------------------------

namespace {

const MetricInfo* FindInfo(const std::vector<MetricInfo>& registry,
                           const char* name) {
  for (const MetricInfo& m : registry) {
    if (std::strcmp(m.name, name) == 0) return &m;
  }
  return nullptr;
}

}  // namespace

const std::vector<MetricInfo>& MetricsObserver::Registry() {
  static const std::vector<MetricInfo> kRegistry = {
      {"deepsea_queries_total", "counter",
       "Queries processed (OnQueryEnd).", "tenant", false, false},
      {"deepsea_replanned_queries_total", "counter",
       "Queries whose speculative shared-lock plan was invalidated by a "
       "foreign commit and replanned under the exclusive lock.",
       "tenant", false, false},
      {"deepsea_replans_conflict_total", "counter",
       "Replans caused by a genuine read-set conflict: a foreign commit "
       "published after the plan's read epoch (or still in flight) wrote "
       "something the plan read.",
       "tenant", false, false},
      {"deepsea_replans_spurious_total", "counter",
       "Replans forced without a proven conflict because the bounded "
       "epoch table no longer covered the plan's read epoch.",
       "tenant", false, false},
      {"deepsea_commits_sharded_total", "counter",
       "Queries that committed on the sharded (IX + per-view shard "
       "locks) path after read-set validation.",
       "tenant", false, false},
      {"deepsea_commits_exclusive_reason_total", "counter",
       "Queries that committed on the exclusive (X) path, by the path "
       "decision that took them there: merge (merge pass enabled), "
       "eviction (decision evicts inline), physical (physical "
       "execution), replan (the plan failed read-set validation). Only "
       "nonzero cells are exported.",
       "reason,tenant", false, false},
      {"deepsea_queries_from_views_total", "counter",
       "Queries answered from a materialized view.", "tenant", false, false},
      {"deepsea_degraded_queries_total", "counter",
       "Queries whose selection decision was abandoned after storage "
       "faults (answered from pre-fault pool state).",
       "tenant", false, false},
      {"deepsea_fragments_read_total", "counter",
       "Materialized fragments read by chosen rewritings.", "tenant", false,
       false},
      {"deepsea_views_materialized_total", "counter",
       "View materializations committed (whole-view or initial "
       "partitioned creation).",
       "tenant", false, false},
      {"deepsea_view_creations_total", "counter",
       "View creations committed, by kind: first (the view's first "
       "creation), recreation (a view created before whose pool content "
       "had all left), topup (pieces added to a view still holding pool "
       "content).",
       "kind,tenant", false, false},
      {"deepsea_view_creation_premium_seconds_total", "counter",
       "Simulated seconds the creating queries paid over their "
       "conventional plans (total - base), split evenly over the views "
       "each created, by creation kind.",
       "kind,tenant", false, false},
      {"deepsea_view_creations_withheld_total", "counter",
       "Repeat creations withheld by the realized-return gate: view "
       "candidates that passed the benefit filter but were created before "
       "and have not paid back, counted once per query, by the kind of "
       "creation withheld: recreation (the view holds no pool content: "
       "always withheld) or topup (withheld until the benefit accrued "
       "since its last creation covers the debt); first is always 0.",
       "kind,tenant", false, false},
      {"deepsea_fragments_materialized_total", "counter",
       "Fragments that entered the pool (initial fragments and "
       "refinements).",
       "tenant", false, false},
      {"deepsea_evictions_total", "counter",
       "Fragments/whole views that left the pool (policy evictions, "
       "split parents, merge parents).",
       "tenant", false, false},
      {"deepsea_merges_total", "counter",
       "Fragment pairs merged by the maintenance pass.", "tenant", false,
       false},
      {"deepsea_faults_total", "counter",
       "Decision-execution attempts that failed and rolled back.", "tenant",
       false, false},
      {"deepsea_retries_total", "counter",
       "Rolled-back attempts that were retried (transient faults).",
       "tenant", false, false},
      {"deepsea_degrades_total", "counter",
       "Degrade events (abandoned Apply or merge pass; a query can "
       "contribute several).",
       "tenant", false, false},
      {"deepsea_materialized_bytes_total", "counter",
       "Bytes written into the pool (views, fragments, merged "
       "fragments).",
       "tenant", false, false},
      {"deepsea_evicted_bytes_total", "counter",
       "Bytes evicted from the pool (the reconfiguration cost side of "
       "Def. 4).",
       "tenant", false, false},
      {"deepsea_selection_decisions_total", "counter",
       "Queries whose selection stage resolved a knapsack (every query "
       "except under the Hive baseline).",
       "tenant", false, false},
      {"deepsea_selection_objective_total", "counter",
       "Summed knapsack objective value (admitted benefit, kept pool "
       "content included) of the committed decisions — the "
       "decision-quality numerator: divide by "
       "deepsea_selection_decisions_total for mean objective.",
       "tenant", false, false},
      {"deepsea_stage_sim_seconds", "histogram",
       "Simulated seconds charged per pipeline stage invocation.",
       "stage,tenant", false, false},
      {"deepsea_stage_wall_seconds", "histogram",
       "Host wall-clock seconds spent per pipeline stage invocation "
       "(measured only while an observer is attached).",
       "stage,tenant", true, false},
      {"deepsea_query_sim_seconds", "histogram",
       "Total simulated seconds charged per query (best plan + "
       "materialization overheads).",
       "tenant", false, false},
      {"deepsea_pool_bytes", "gauge",
       "Current pool occupancy S(C) in bytes.", "", false, true},
      {"deepsea_pool_limit_bytes", "gauge",
       "Configured pool limit S_max in bytes (+Inf when unbounded).", "",
       false, true},
      {"deepsea_pool_views_tracked", "gauge",
       "Views tracked in STAT (materialized or candidate).", "", false,
       true},
      {"deepsea_pool_views_materialized", "gauge",
       "Tracked views with at least one materialized piece.", "", false,
       true},
      {"deepsea_pool_fragments_tracked", "gauge",
       "Fragments tracked across all partitions.", "", false, true},
      {"deepsea_pool_fragments_materialized", "gauge",
       "Tracked fragments currently materialized in the pool.", "", false,
       true},
      {"deepsea_pool_views_quarantined", "gauge",
       "Views currently quarantined after repeated permanent faults.", "",
       false, true},
      {"deepsea_commit_clock", "gauge",
       "The pool's global commit clock (ticked commits across all "
       "tenants).",
       "", false, true},
      {"deepsea_commits_total", "counter",
       "Commit sections entered (includes non-ticking commits such as "
       "engine construction and state loads).",
       "", false, true},
      {"deepsea_commit_lock_held_seconds_total", "counter",
       "Aggregate host wall-clock time commit sections have been held "
       "(exclusive and sharded; concurrent sharded commits each "
       "contribute their full span).",
       "", true, true},
      {"deepsea_commit_shard_held_seconds_total", "counter",
       "Aggregate host wall-clock time each commit shard has been held "
       "by sharded commits; only shards with at least one acquisition "
       "are exported.",
       "shard", true, true},
      {"deepsea_commit_lock_hold_fraction", "gauge",
       "Commit-lock hold time over wall time since the pool was "
       "attached to this observer.",
       "", true, true},
  };
  return kRegistry;
}

std::string MetricsObserver::RenderPrometheusText(
    const RenderOptions& options) const {
  const MetricsSnapshot snap = TakeSnapshot();
  const std::vector<MetricInfo>& registry = Registry();
  std::string out;
  out.reserve(1 << 14);

  auto header = [&](const char* name) -> const MetricInfo* {
    const MetricInfo* info = FindInfo(registry, name);
    if (info == nullptr) return nullptr;  // registry/render drift bug
    if (!options.include_host_metrics && info->host_time) return nullptr;
    out += StrFormat("# HELP %s %s\n", info->name, info->help);
    out += StrFormat("# TYPE %s %s\n", info->name, info->type);
    return info;
  };
  // One series per EngineTotals field, one sample per tenant.
  auto tenant_counter = [&]<typename T>(const char* name,
                                        T EngineTotals::*field) {
    if (header(name) == nullptr) return;
    for (const auto& [tenant, t] : snap.tenants) {
      const double value = static_cast<double>(t.counts.*field);
      out += StrFormat("%s{tenant=\"%s\"} %s\n", name,
                       EscapeLabelValue(tenant).c_str(),
                       FormatValue(value).c_str());
    }
  };
  // Histogram series with an optional extra fixed label ("stage=...").
  auto histogram_series = [&](const char* name, const std::string& extra,
                              const std::string& tenant,
                              const MetricsSnapshot::Histogram& h) {
    const std::string labels =
        extra + (extra.empty() ? "" : ",") + "tenant=\"" +
        EscapeLabelValue(tenant) + "\"";
    uint64_t cumulative = 0;
    for (size_t b = 0; b < kFiniteBuckets; ++b) {
      cumulative += h.buckets[b];
      out += StrFormat("%s_bucket{%s,le=\"%s\"} %llu\n", name, labels.c_str(),
                       kBucketLabels[b],
                       static_cast<unsigned long long>(cumulative));
    }
    cumulative += h.buckets[kFiniteBuckets];
    out += StrFormat("%s_bucket{%s,le=\"+Inf\"} %llu\n", name, labels.c_str(),
                     static_cast<unsigned long long>(cumulative));
    out += StrFormat("%s_sum{%s} %s\n", name, labels.c_str(),
                     FormatValue(h.sum).c_str());
    out += StrFormat("%s_count{%s} %lld\n", name, labels.c_str(),
                     static_cast<long long>(h.count));
  };
  auto gauge = [&](const char* name, const std::string& value) {
    if (header(name) == nullptr) return;
    out += StrFormat("%s %s\n", name, value.c_str());
  };

  tenant_counter("deepsea_queries_total", &EngineTotals::queries);
  tenant_counter("deepsea_replanned_queries_total", &EngineTotals::replans);
  tenant_counter("deepsea_replans_conflict_total",
                 &EngineTotals::replans_conflict);
  tenant_counter("deepsea_replans_spurious_total",
                 &EngineTotals::replans_spurious);
  tenant_counter("deepsea_commits_sharded_total",
                 &EngineTotals::commits_sharded);
  if (header("deepsea_commits_exclusive_reason_total") != nullptr) {
    for (const auto& [tenant, t] : snap.tenants) {
      for (size_t r = 0; r < kExclusiveReasonCount; ++r) {
        const int64_t n = t.counts.commits_exclusive_by_reason[r];
        if (n == 0) continue;
        out += StrFormat(
            "deepsea_commits_exclusive_reason_total{reason=\"%s\","
            "tenant=\"%s\"} %lld\n",
            kExclusiveReasonNames[r], EscapeLabelValue(tenant).c_str(),
            static_cast<long long>(n));
      }
    }
  }
  tenant_counter("deepsea_queries_from_views_total",
                 &EngineTotals::queries_answered_from_views);
  tenant_counter("deepsea_degraded_queries_total",
                 &EngineTotals::queries_degraded);
  tenant_counter("deepsea_fragments_read_total", &EngineTotals::fragments_read);
  tenant_counter("deepsea_views_materialized_total",
                 &EngineTotals::views_created);
  // One series per creation kind and tenant, every kind exported.
  auto kind_counter = [&]<typename T>(
      const char* name,
      std::array<T, kCreationKindCount> EngineTotals::*field) {
    if (header(name) == nullptr) return;
    for (const auto& [tenant, t] : snap.tenants) {
      for (size_t k = 0; k < kCreationKindCount; ++k) {
        out += StrFormat(
            "%s{kind=\"%s\",tenant=\"%s\"} %s\n", name,
            kCreationKindNames[k], EscapeLabelValue(tenant).c_str(),
            FormatValue(static_cast<double>((t.counts.*field)[k])).c_str());
      }
    }
  };
  kind_counter("deepsea_view_creations_total",
               &EngineTotals::views_created_by_kind);
  kind_counter("deepsea_view_creation_premium_seconds_total",
               &EngineTotals::creation_premium_by_kind);
  kind_counter("deepsea_view_creations_withheld_total",
               &EngineTotals::creations_withheld_by_kind);
  tenant_counter("deepsea_fragments_materialized_total",
                 &EngineTotals::fragments_created);
  tenant_counter("deepsea_evictions_total", &EngineTotals::fragments_evicted);
  tenant_counter("deepsea_merges_total", &EngineTotals::fragments_merged);
  tenant_counter("deepsea_faults_total", &EngineTotals::faults);
  tenant_counter("deepsea_retries_total", &EngineTotals::retries);
  tenant_counter("deepsea_degrades_total", &EngineTotals::degrades);
  tenant_counter("deepsea_materialized_bytes_total",
                 &EngineTotals::materialized_bytes);
  tenant_counter("deepsea_evicted_bytes_total", &EngineTotals::evicted_bytes);

  tenant_counter("deepsea_selection_decisions_total",
                 &EngineTotals::selection_decisions);
  tenant_counter("deepsea_selection_objective_total",
                 &EngineTotals::selection_benefit);

  // Stage histograms: unobserved (zero-call) stage/tenant series are
  // omitted, the standard client behaviour for unused series.
  if (header("deepsea_stage_sim_seconds") != nullptr) {
    for (const auto& [tenant, t] : snap.tenants) {
      for (size_t s = 0; s < kStageCount; ++s) {
        if (t.stage_sim[s].count == 0) continue;
        histogram_series(
            "deepsea_stage_sim_seconds",
            StrFormat("stage=\"%s\"",
                      EngineStageName(static_cast<EngineStage>(s))),
            tenant, t.stage_sim[s]);
      }
    }
  }
  if (header("deepsea_stage_wall_seconds") != nullptr) {
    for (const auto& [tenant, t] : snap.tenants) {
      for (size_t s = 0; s < kStageCount; ++s) {
        if (t.stage_wall[s].count == 0) continue;
        histogram_series(
            "deepsea_stage_wall_seconds",
            StrFormat("stage=\"%s\"",
                      EngineStageName(static_cast<EngineStage>(s))),
            tenant, t.stage_wall[s]);
      }
    }
  }
  if (header("deepsea_query_sim_seconds") != nullptr) {
    for (const auto& [tenant, t] : snap.tenants) {
      if (t.query_sim.count == 0) continue;
      histogram_series("deepsea_query_sim_seconds", "", tenant, t.query_sim);
    }
  }

  if (snap.pool.present) {
    const MetricsSnapshot::PoolGauges& g = snap.pool;
    gauge("deepsea_pool_bytes", FormatValue(g.pool_bytes));
    gauge("deepsea_pool_limit_bytes", FormatValue(g.pool_limit_bytes));
    gauge("deepsea_pool_views_tracked",
          StrFormat("%lld", static_cast<long long>(g.views_tracked)));
    gauge("deepsea_pool_views_materialized",
          StrFormat("%lld", static_cast<long long>(g.views_materialized)));
    gauge("deepsea_pool_fragments_tracked",
          StrFormat("%lld", static_cast<long long>(g.fragments_tracked)));
    gauge("deepsea_pool_fragments_materialized",
          StrFormat("%lld",
                    static_cast<long long>(g.fragments_materialized)));
    gauge("deepsea_pool_views_quarantined",
          StrFormat("%lld", static_cast<long long>(g.views_quarantined)));
    gauge("deepsea_commit_clock",
          StrFormat("%lld", static_cast<long long>(g.commit_clock)));
    gauge("deepsea_commits_total",
          StrFormat("%llu", static_cast<unsigned long long>(g.commits)));
    gauge("deepsea_commit_lock_held_seconds_total",
          FormatValue(g.commit_lock_held_seconds));
    if (header("deepsea_commit_shard_held_seconds_total") != nullptr) {
      for (size_t i = 0; i < g.commit_shards.size(); ++i) {
        if (g.commit_shards[i].acquisitions == 0) continue;
        out += StrFormat(
            "deepsea_commit_shard_held_seconds_total{shard=\"%zu\"} %s\n", i,
            FormatValue(g.commit_shards[i].held_seconds).c_str());
      }
    }
    gauge("deepsea_commit_lock_hold_fraction",
          FormatValue(g.commit_lock_hold_fraction));

  }
  return out;
}

// --- exposition-format validator -------------------------------------

namespace {

bool ValidMetricName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
  };
  auto tail = [&](char c) {
    return head(c) || std::isdigit(static_cast<unsigned char>(c));
  };
  if (!head(s[0])) return false;
  for (size_t i = 1; i < s.size(); ++i) {
    if (!tail(s[i])) return false;
  }
  return true;
}

bool ValidLabelName(const std::string& s) {
  if (s.empty()) return false;
  auto head = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  if (!head(s[0])) return false;
  for (size_t i = 1; i < s.size(); ++i) {
    if (!head(s[i]) && !std::isdigit(static_cast<unsigned char>(s[i]))) {
      return false;
    }
  }
  return true;
}

bool ParseSampleValue(const std::string& s, double* out) {
  if (s == "+Inf" || s == "Inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "-Inf") {
    *out = -std::numeric_limits<double>::infinity();
    return true;
  }
  if (s == "NaN") {
    *out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  Result<double> v = ParseDouble(s);
  if (!v.ok()) return false;
  *out = *v;
  return true;
}

struct ParsedSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
  size_t line = 0;
};

struct FamilyState {
  std::string type;  ///< "" until a TYPE line is seen
  bool help_seen = false;
  bool samples_seen = false;
  bool closed = false;  ///< a different family started after this one
  std::vector<ParsedSample> samples;
};

Status LineError(size_t line, const std::string& message) {
  return Status::InvalidArgument(
      StrFormat("exposition line %zu: %s", line, message.c_str()));
}

/// Parses `name{labels} value [timestamp]`.
Status ParseSample(const std::string& text, size_t line, ParsedSample* out) {
  size_t i = 0;
  const size_t n = text.size();
  while (i < n && text[i] != '{' && text[i] != ' ' && text[i] != '\t') ++i;
  out->name = text.substr(0, i);
  out->line = line;
  if (!ValidMetricName(out->name)) {
    return LineError(line, "invalid metric name '" + out->name + "'");
  }
  if (i < n && text[i] == '{') {
    ++i;
    while (true) {
      while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
      if (i < n && text[i] == '}') {
        ++i;
        break;
      }
      size_t name_start = i;
      while (i < n && text[i] != '=') ++i;
      if (i >= n) return LineError(line, "unterminated label set");
      std::string label = text.substr(name_start, i - name_start);
      if (!ValidLabelName(label)) {
        return LineError(line, "invalid label name '" + label + "'");
      }
      ++i;  // '='
      if (i >= n || text[i] != '"') {
        return LineError(line, "label value must be double-quoted");
      }
      ++i;
      std::string value;
      bool terminated = false;
      while (i < n) {
        char c = text[i];
        if (c == '\\') {
          if (i + 1 >= n) return LineError(line, "dangling escape");
          char esc = text[i + 1];
          if (esc == '\\') {
            value += '\\';
          } else if (esc == '"') {
            value += '"';
          } else if (esc == 'n') {
            value += '\n';
          } else {
            return LineError(line,
                             StrFormat("invalid escape '\\%c'", esc));
          }
          i += 2;
          continue;
        }
        if (c == '"') {
          terminated = true;
          ++i;
          break;
        }
        value += c;
        ++i;
      }
      if (!terminated) return LineError(line, "unterminated label value");
      if (out->labels.count(label) != 0) {
        return LineError(line, "duplicate label '" + label + "'");
      }
      out->labels[label] = value;
      if (i < n && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < n && text[i] == '}') {
        ++i;
        break;
      }
      return LineError(line, "expected ',' or '}' in label set");
    }
  }
  while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
  size_t value_start = i;
  while (i < n && text[i] != ' ' && text[i] != '\t') ++i;
  const std::string value_token = text.substr(value_start, i - value_start);
  if (!ParseSampleValue(value_token, &out->value)) {
    return LineError(line, "invalid sample value '" + value_token + "'");
  }
  while (i < n && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i < n) {
    // Optional timestamp: a (signed) integer in milliseconds.
    size_t ts_start = i;
    if (text[i] == '-' || text[i] == '+') ++i;
    while (i < n && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
    if (i != n || i == ts_start) {
      return LineError(line, "trailing garbage after sample value");
    }
  }
  return Status::OK();
}

std::string SeriesKey(const ParsedSample& s) {
  std::string key = s.name;
  for (const auto& [k, v] : s.labels) key += "|" + k + "=" + v;
  return key;
}

/// The family a sample belongs to: for histogram/summary suffixes the
/// declared base family, otherwise the sample name itself.
std::string FamilyOf(const std::string& sample_name,
                     const std::map<std::string, FamilyState>& families) {
  static const char* kSuffixes[] = {"_bucket", "_sum", "_count"};
  for (const char* suffix : kSuffixes) {
    const size_t len = std::strlen(suffix);
    if (sample_name.size() > len &&
        sample_name.compare(sample_name.size() - len, len, suffix) == 0) {
      const std::string base = sample_name.substr(0, sample_name.size() - len);
      auto it = families.find(base);
      if (it != families.end() &&
          (it->second.type == "histogram" || it->second.type == "summary")) {
        return base;
      }
    }
  }
  return sample_name;
}

Status CheckHistogramFamily(const std::string& family,
                            const FamilyState& state) {
  // Group samples by their label set minus `le`.
  struct Group {
    std::vector<std::pair<double, double>> buckets;  ///< (le, value)
    bool have_sum = false;
    bool have_count = false;
    double count = 0.0;
    size_t line = 0;
  };
  std::map<std::string, Group> groups;
  for (const ParsedSample& s : state.samples) {
    std::map<std::string, std::string> labels = s.labels;
    double le = 0.0;
    const bool is_bucket = s.name == family + "_bucket";
    if (is_bucket) {
      auto it = labels.find("le");
      if (it == labels.end()) {
        return LineError(s.line, family + "_bucket sample without le label");
      }
      if (!ParseSampleValue(it->second, &le)) {
        return LineError(s.line, "unparseable le value '" + it->second + "'");
      }
      labels.erase(it);
    }
    std::string key;
    for (const auto& [k, v] : labels) key += k + "=" + v + "|";
    Group& g = groups[key];
    g.line = s.line;
    if (is_bucket) {
      g.buckets.emplace_back(le, s.value);
    } else if (s.name == family + "_sum") {
      g.have_sum = true;
    } else if (s.name == family + "_count") {
      g.have_count = true;
      g.count = s.value;
    } else {
      return LineError(s.line, "histogram family " + family +
                                   " may only expose _bucket/_sum/_count "
                                   "samples, got " + s.name);
    }
  }
  for (const auto& [key, g] : groups) {
    (void)key;
    if (g.buckets.empty()) {
      return LineError(g.line,
                       "histogram series of " + family + " has no buckets");
    }
    std::vector<std::pair<double, double>> sorted = g.buckets;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    double prev = -1.0;
    bool first = true;
    for (const auto& [le, value] : sorted) {
      if (!first && value < prev) {
        return LineError(g.line, "histogram " + family +
                                     " buckets are not cumulative "
                                     "non-decreasing");
      }
      prev = value;
      first = false;
    }
    if (!std::isinf(sorted.back().first)) {
      return LineError(g.line,
                       "histogram " + family + " is missing the +Inf bucket");
    }
    if (!g.have_sum) {
      return LineError(g.line, "histogram " + family + " is missing _sum");
    }
    if (!g.have_count) {
      return LineError(g.line, "histogram " + family + " is missing _count");
    }
    if (g.count != sorted.back().second) {
      return LineError(g.line, "histogram " + family +
                                   " _count disagrees with the +Inf bucket");
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidatePrometheusText(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty exposition");
  if (text.back() != '\n') {
    return Status::InvalidArgument("exposition must end with a newline");
  }
  std::map<std::string, FamilyState> families;
  std::set<std::string> series_seen;
  std::string current_family;
  size_t line_no = 0;

  auto enter_family = [&](const std::string& family,
                          size_t line) -> Status {
    if (family == current_family) return Status::OK();
    if (!current_family.empty()) families[current_family].closed = true;
    FamilyState& state = families[family];
    if (state.closed) {
      return LineError(line, "samples of metric family '" + family +
                                 "' are not contiguous");
    }
    current_family = family;
    return Status::OK();
  };

  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name doc" / "# TYPE name type" / free-form comment.
      std::vector<std::string> tokens = Split(line, ' ');
      if (tokens.size() >= 3 && tokens[1] == "HELP") {
        const std::string& name = tokens[2];
        if (!ValidMetricName(name)) {
          return LineError(line_no, "HELP for invalid metric name");
        }
        DEEPSEA_RETURN_IF_ERROR(enter_family(name, line_no));
        FamilyState& state = families[name];
        if (state.help_seen) {
          return LineError(line_no, "second HELP for metric " + name);
        }
        if (state.samples_seen) {
          return LineError(line_no, "HELP after samples of " + name);
        }
        state.help_seen = true;
      } else if (tokens.size() >= 3 && tokens[1] == "TYPE") {
        if (tokens.size() != 4) {
          return LineError(line_no, "malformed TYPE line");
        }
        const std::string& name = tokens[2];
        const std::string& type = tokens[3];
        if (!ValidMetricName(name)) {
          return LineError(line_no, "TYPE for invalid metric name");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          return LineError(line_no, "unknown metric type '" + type + "'");
        }
        DEEPSEA_RETURN_IF_ERROR(enter_family(name, line_no));
        FamilyState& state = families[name];
        if (!state.type.empty()) {
          return LineError(line_no, "second TYPE for metric " + name);
        }
        if (state.samples_seen) {
          return LineError(line_no, "TYPE after samples of " + name);
        }
        state.type = type;
      }
      // Any other # line is a comment; ignore.
      continue;
    }
    ParsedSample sample;
    DEEPSEA_RETURN_IF_ERROR(ParseSample(line, line_no, &sample));
    const std::string family = FamilyOf(sample.name, families);
    DEEPSEA_RETURN_IF_ERROR(enter_family(family, line_no));
    FamilyState& state = families[family];
    state.samples_seen = true;
    const std::string key = SeriesKey(sample);
    if (!series_seen.insert(key).second) {
      return LineError(line_no, "duplicate series " + sample.name);
    }
    if (state.type == "counter" &&
        (std::isnan(sample.value) || sample.value < 0.0)) {
      return LineError(line_no, "counter " + sample.name +
                                    " has a negative or NaN value");
    }
    if (state.type == "histogram" && sample.name == family) {
      return LineError(line_no, "histogram " + family +
                                    " exposes a bare sample (expected "
                                    "_bucket/_sum/_count)");
    }
    state.samples.push_back(std::move(sample));
  }

  for (const auto& [family, state] : families) {
    if (state.type == "histogram") {
      DEEPSEA_RETURN_IF_ERROR(CheckHistogramFamily(family, state));
    }
  }
  return Status::OK();
}

}  // namespace deepsea
