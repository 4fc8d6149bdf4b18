// SaveState / LoadState: persistence of the engine's adaptive state
// (see the declarations in core/engine.h). The format is line-based:
//
//   DEEPSEA-STATE 2
//   CLOCK <t>
//   TENANT <ord> <name>                       (0+; non-default tenants)
//   VIEW
//   PLAN <line-count>
//   <serialized plan, see plan/plan_serde.h>
//   STATS <size_bytes> <creation_cost> <size_actual> <cost_actual> <whole>
//   EVENT <time> <saving> <tenant>            (0+ per view)
//   PARTITION <attr> <lo> <hi> <li> <hi_inc>  (0+ per view)
//   PENDING <lo> <hi> <li> <hi_inc>           (0+ per partition)
//   FRAGMENT <lo> <hi> <li> <hi_inc> <size> <materialized>
//   HIT <time> <has_range> <lo> <hi> <li> <hi_inc> <tenant>  (0+ per fragment)
//   ENDVIEW
//
// Version 1 (no TENANT lines, no tenant field on EVENT/HIT) is still
// accepted; missing tenant fields default to the 0 ordinal. Saved
// tenant ordinals are remapped through the loading pool's registry, so
// a blob saved by one pool restores correct attributions in another.

#include <cassert>
#include <cstdlib>
#include <map>
#include <memory>
#include <utility>

#include "common/str_util.h"
#include "core/engine.h"
#include "core/view_sizing.h"
#include "plan/plan_serde.h"
#include "plan/signature.h"

namespace deepsea {

namespace {

std::string FmtInterval(const Interval& iv) {
  return StrFormat("%.17g %.17g %d %d", iv.lo, iv.hi, iv.lo_inclusive ? 1 : 0,
                   iv.hi_inclusive ? 1 : 0);
}

// --- strict field parsers (plus ParseDouble, common/str_util.h).
//     atof/atoi silently map garbage to 0, which turns a corrupted blob
//     into a quietly wrong pool; every field of a state line must parse
//     completely or the whole load is rejected.

Result<int64_t> ParseInt(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty integer in state");
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size()) {
    return Status::InvalidArgument("bad integer in state: " + s);
  }
  return static_cast<int64_t>(v);
}

Result<bool> ParseFlag(const std::string& s) {
  if (s == "1") return true;
  if (s == "0") return false;
  return Status::InvalidArgument("bad flag in state: " + s);
}

// Parses 4 whitespace-separated interval fields starting at parts[at].
Result<Interval> ParseInterval(const std::vector<std::string>& parts, size_t at) {
  if (parts.size() < at + 4) {
    return Status::InvalidArgument("truncated interval in state");
  }
  DEEPSEA_ASSIGN_OR_RETURN(double lo, ParseDouble(parts[at]));
  DEEPSEA_ASSIGN_OR_RETURN(double hi, ParseDouble(parts[at + 1]));
  DEEPSEA_ASSIGN_OR_RETURN(bool lo_inc, ParseFlag(parts[at + 2]));
  DEEPSEA_ASSIGN_OR_RETURN(bool hi_inc, ParseFlag(parts[at + 3]));
  return Interval(lo, hi, lo_inc, hi_inc);
}

// --- parsed representation of a state blob (phase 1 output). LoadState
//     fully parses and validates into these values before touching any
//     engine state, so a malformed blob can never leave a partial load.

struct ParsedHit {
  double time = 0.0;
  bool has_range = false;
  Interval range;
  int32_t tenant = 0;
};

struct ParsedFragment {
  Interval interval;
  double size_bytes = 0.0;
  bool materialized = false;
  std::vector<ParsedHit> hits;
};

struct ParsedPartition {
  std::string attr;
  Interval domain;
  std::vector<Interval> pending;
  std::vector<ParsedFragment> fragments;
};

struct ParsedEvent {
  double time = 0.0;
  double saving = 0.0;
  int32_t tenant = 0;
};

struct ParsedView {
  PlanPtr plan;
  PlanSignature signature;
  double size_bytes = 0.0;
  double creation_cost = 0.0;
  bool size_is_actual = false;
  bool cost_is_actual = false;
  bool whole_materialized = false;
  std::vector<ParsedEvent> events;
  std::vector<ParsedPartition> partitions;
};

struct ParsedState {
  int64_t clock = 0;
  std::vector<std::pair<int32_t, std::string>> tenants;  // saved ord -> name
  std::vector<ParsedView> views;
};

}  // namespace

Result<std::string> DeepSeaEngine::SaveState() const {
  // Shared-mode lock: a consistent snapshot that doesn't block other
  // readers (and waits for any in-flight commit to finish).
  auto lock = pool_->SharedLock();
  std::string out = "DEEPSEA-STATE 2\n";
  out += StrFormat("CLOCK %lld\n", static_cast<long long>(pool_->clock()));
  const std::vector<std::string> tenants = pool_->Tenants();
  for (size_t ord = 1; ord < tenants.size(); ++ord) {
    out += StrFormat("TENANT %d %s\n", static_cast<int>(ord),
                     tenants[ord].c_str());
  }
  for (const ViewInfo* view : pool_->views().AllViews()) {
    if (!view->plan) continue;
    out += "VIEW\n";
    const std::string plan_text = SerializePlan(view->plan);
    int plan_lines = 0;
    for (char c : plan_text) {
      if (c == '\n') ++plan_lines;
    }
    out += StrFormat("PLAN %d\n", plan_lines);
    out += plan_text;
    out += StrFormat("STATS %.17g %.17g %d %d %d\n", view->stats.size_bytes,
                     view->stats.creation_cost,
                     view->stats.size_is_actual ? 1 : 0,
                     view->stats.cost_is_actual ? 1 : 0,
                     view->whole_materialized ? 1 : 0);
    for (const BenefitEvent& e : view->stats.events()) {
      out += StrFormat("EVENT %.17g %.17g %d\n", e.time, e.saving,
                       static_cast<int>(e.tenant));
    }
    for (const auto& [attr, part] : view->partitions) {
      out += "PARTITION " + attr + " " + FmtInterval(part.domain) + "\n";
      for (const Interval& iv : part.pending) {
        out += "PENDING " + FmtInterval(iv) + "\n";
      }
      for (const FragmentStats& f : part.fragments) {
        out += "FRAGMENT " + FmtInterval(f.interval) +
               StrFormat(" %.17g %d\n", f.size_bytes, f.materialized ? 1 : 0);
        for (const FragmentHit& h : f.hits()) {
          out += StrFormat("HIT %.17g %d ", h.time, h.has_range ? 1 : 0) +
                 FmtInterval(h.range) +
                 StrFormat(" %d\n", static_cast<int>(h.tenant));
        }
      }
    }
    out += "ENDVIEW\n";
  }
  return out;
}

Status DeepSeaEngine::LoadState(const std::string& state) {
  // --- phase 1: parse and validate the whole blob into ParsedState.
  // Mutates nothing, so a truncated, version-skewed, or field-mangled
  // blob returns an error with the engine exactly as it was — no
  // partial loads.
  const std::vector<std::string> lines = Split(state, '\n');
  size_t i = 0;
  auto next_parts = [&]() { return Split(lines[i], ' '); };
  if (i >= lines.size() ||
      (lines[i] != "DEEPSEA-STATE 1" && lines[i] != "DEEPSEA-STATE 2")) {
    return Status::InvalidArgument("bad or unsupported state header");
  }
  ++i;

  ParsedState parsed;
  if (i < lines.size() && lines[i].rfind("CLOCK ", 0) == 0) {
    DEEPSEA_ASSIGN_OR_RETURN(parsed.clock, ParseInt(lines[i].substr(6)));
    ++i;
  }
  while (i < lines.size() && lines[i].rfind("TENANT ", 0) == 0) {
    const auto parts = next_parts();
    if (parts.size() != 3) return Status::InvalidArgument("bad TENANT line");
    DEEPSEA_ASSIGN_OR_RETURN(int64_t saved_ord, ParseInt(parts[1]));
    parsed.tenants.emplace_back(static_cast<int32_t>(saved_ord), parts[2]);
    ++i;
  }

  while (i < lines.size()) {
    if (lines[i].empty()) {
      ++i;
      continue;
    }
    if (lines[i] != "VIEW") {
      return Status::InvalidArgument("expected VIEW at line " +
                                     std::to_string(i));
    }
    ++i;
    if (i >= lines.size() || lines[i].rfind("PLAN ", 0) != 0) {
      return Status::InvalidArgument("expected PLAN after VIEW");
    }
    ParsedView pv;
    DEEPSEA_ASSIGN_OR_RETURN(int64_t plan_lines, ParseInt(lines[i].substr(5)));
    if (plan_lines < 0) return Status::InvalidArgument("bad PLAN line count");
    ++i;
    std::string plan_text;
    for (int64_t k = 0; k < plan_lines; ++k) {
      if (i >= lines.size()) return Status::InvalidArgument("truncated plan");
      plan_text += lines[i++] + "\n";
    }
    DEEPSEA_ASSIGN_OR_RETURN(pv.plan, DeserializePlan(plan_text));
    // Signatures are resolved after the structural parse (see below):
    // a stored plan may reference an earlier view's table, so resolution
    // must run in definition order against the registrations the apply
    // phase will perform.

    if (i >= lines.size() || lines[i].rfind("STATS ", 0) != 0) {
      return Status::InvalidArgument("expected STATS");
    }
    {
      const auto parts = next_parts();
      if (parts.size() != 6) return Status::InvalidArgument("bad STATS line");
      DEEPSEA_ASSIGN_OR_RETURN(pv.size_bytes, ParseDouble(parts[1]));
      DEEPSEA_ASSIGN_OR_RETURN(pv.creation_cost, ParseDouble(parts[2]));
      DEEPSEA_ASSIGN_OR_RETURN(pv.size_is_actual, ParseFlag(parts[3]));
      DEEPSEA_ASSIGN_OR_RETURN(pv.cost_is_actual, ParseFlag(parts[4]));
      DEEPSEA_ASSIGN_OR_RETURN(pv.whole_materialized, ParseFlag(parts[5]));
      ++i;
    }
    // `part` / `frag` always point at the most recent element and are
    // re-taken after every push_back (which may reallocate).
    ParsedPartition* part = nullptr;
    ParsedFragment* frag = nullptr;
    while (i < lines.size() && lines[i] != "ENDVIEW") {
      const auto parts = next_parts();
      if (parts[0] == "EVENT" && (parts.size() == 3 || parts.size() == 4)) {
        ParsedEvent e;
        DEEPSEA_ASSIGN_OR_RETURN(e.time, ParseDouble(parts[1]));
        DEEPSEA_ASSIGN_OR_RETURN(e.saving, ParseDouble(parts[2]));
        if (parts.size() == 4) {
          DEEPSEA_ASSIGN_OR_RETURN(int64_t ord, ParseInt(parts[3]));
          e.tenant = static_cast<int32_t>(ord);
        }
        pv.events.push_back(e);
      } else if (parts[0] == "PARTITION" && parts.size() == 6) {
        ParsedPartition p;
        p.attr = parts[1];
        DEEPSEA_ASSIGN_OR_RETURN(p.domain, ParseInterval(parts, 2));
        pv.partitions.push_back(std::move(p));
        part = &pv.partitions.back();
        frag = nullptr;
      } else if (parts[0] == "PENDING" && parts.size() == 5 && part != nullptr) {
        DEEPSEA_ASSIGN_OR_RETURN(Interval iv, ParseInterval(parts, 1));
        part->pending.push_back(iv);
      } else if (parts[0] == "FRAGMENT" && parts.size() == 7 &&
                 part != nullptr) {
        ParsedFragment f;
        DEEPSEA_ASSIGN_OR_RETURN(f.interval, ParseInterval(parts, 1));
        DEEPSEA_ASSIGN_OR_RETURN(f.size_bytes, ParseDouble(parts[5]));
        DEEPSEA_ASSIGN_OR_RETURN(f.materialized, ParseFlag(parts[6]));
        part->fragments.push_back(std::move(f));
        frag = &part->fragments.back();
      } else if (parts[0] == "HIT" && (parts.size() == 7 || parts.size() == 8) &&
                 frag != nullptr) {
        ParsedHit hit;
        DEEPSEA_ASSIGN_OR_RETURN(hit.time, ParseDouble(parts[1]));
        DEEPSEA_ASSIGN_OR_RETURN(hit.has_range, ParseFlag(parts[2]));
        DEEPSEA_ASSIGN_OR_RETURN(hit.range, ParseInterval(parts, 3));
        if (parts.size() == 8) {
          DEEPSEA_ASSIGN_OR_RETURN(int64_t ord, ParseInt(parts[7]));
          hit.tenant = static_cast<int32_t>(ord);
        }
        frag->hits.push_back(hit);
      } else {
        return Status::InvalidArgument("unexpected state line: " + lines[i]);
      }
      ++i;
    }
    if (i >= lines.size()) return Status::InvalidArgument("missing ENDVIEW");
    ++i;  // consume ENDVIEW
    parsed.views.push_back(std::move(pv));
  }

  // --- phase 2: under the exclusive commit, first resolve plan
  // signatures (read-only, still fallible — an early return here leaves
  // the engine unchanged), then apply the validated state. Every
  // operation in the apply half is infallible, so the load lands
  // completely or not at all.
  CommitGuard commit = pool_->BeginCommit(observer_, tenant_, tenant_ord_);
  ViewCatalog* views = pool_->stat(commit);
  SimFs* fs = pool_->fs(commit);
  FilterTree* index = pool_->rewrite_index(commit);

  {
    // Stored plans may reference earlier views' tables (a view defined
    // over a rewritten plan), which the apply loop registers as it
    // tracks each view. Resolution therefore runs in definition order
    // against an overlay catalog that mirrors those registrations — the
    // real catalog is never touched, so failure cannot leave a partial
    // load.
    Catalog overlay = *catalog_;
    int next_id = views->peek_next_id();
    // canonical signature -> id this load will assign (blobs hold each
    // view once, but a linear scan keeps duplicates deterministic too).
    std::vector<std::pair<std::string, std::string>> fresh_ids;
    for (ParsedView& pv : parsed.views) {
      DEEPSEA_ASSIGN_OR_RETURN(pv.signature,
                               ComputeSignature(pv.plan, overlay));
      const std::string canonical = pv.signature.ToString();
      std::string id;
      if (const ViewInfo* existing = views->FindBySignature(canonical)) {
        id = existing->id;
      } else {
        for (const auto& [c, assigned] : fresh_ids) {
          if (c == canonical) {
            id = assigned;
            break;
          }
        }
        if (id.empty()) {
          id = StrFormat("v%d", next_id++);
          fresh_ids.emplace_back(canonical, id);
        }
      }
      // Mirror RegisterViewTable: register the view's output schema
      // under its (predicted) id; skip silently when the schema cannot
      // be derived, exactly as the apply phase will.
      if (!overlay.Contains(id)) {
        auto schema = pv.plan->OutputSchema(overlay);
        if (schema.ok()) overlay.Put(std::make_shared<Table>(id, *schema));
      }
    }
  }
  // State restore is a recovery path: the fault-injection policy must
  // not fail it (and restored files are not fresh pool writes the
  // policy should count). Detach it for the duration.
  FaultPolicy* saved_policy = fs->fault_policy();
  fs->set_fault_policy(nullptr);

  pool_->AdvanceClockTo(commit, parsed.clock);
  // Remap saved tenant ordinals into this pool's registry (InternTenant
  // takes its own mutex, never the commit lock — safe to call here).
  std::map<int32_t, int32_t> tenant_remap;
  for (const auto& [saved_ord, name] : parsed.tenants) {
    tenant_remap[saved_ord] = pool_->InternTenant(name);
  }
  auto remap_tenant = [&](int32_t saved) {
    auto it = tenant_remap.find(saved);
    return it != tenant_remap.end() ? it->second : saved;
  };

  for (ParsedView& pv : parsed.views) {
    const bool known =
        views->FindBySignature(pv.signature.ToString()) != nullptr;
    ViewInfo* view = views->Track(pv.plan, pv.signature);
    if (!known) {
      pool_->RegisterViewTable(view);
      index->Insert(view->signature, view->id);
    }
    view->stats.size_bytes = pv.size_bytes;
    view->stats.creation_cost = pv.creation_cost;
    view->stats.size_is_actual = pv.size_is_actual;
    view->stats.cost_is_actual = pv.cost_is_actual;
    view->whole_materialized = pv.whole_materialized;
    if (pv.whole_materialized) {
      Status st =
          fs->Put(StrFormat("pool/%s/full", view->id.c_str()), pv.size_bytes);
      assert(st.ok());  // no policy installed: Put cannot fail
      (void)st;
    }
    for (const ParsedEvent& e : pv.events) {
      // AppendEvent, not RecordUse: loading a blob into a pool that
      // already tracks this view may interleave older timestamps, which
      // the RecordUse time-order assert would (rightly) reject. The
      // incremental caches stay exact regardless of order.
      view->stats.AppendEvent({e.time, e.saving, remap_tenant(e.tenant)});
    }
    for (ParsedPartition& pp : pv.partitions) {
      PartitionState* part = view->EnsurePartition(pp.attr, pp.domain);
      part->pending = pp.pending;
      // Attach the derived histogram (as RegisterPartitionCandidates
      // would) so fragment size estimation works after load.
      auto view_table = catalog_->Get(view->id);
      if (view_table.ok() && (*view_table)->GetHistogram(pp.attr) == nullptr) {
        auto hist = DeriveViewHistogram(*catalog_, options_, *view, pp.attr);
        if (hist.ok()) (*view_table)->SetHistogram(pp.attr, *hist);
      }
      for (const ParsedFragment& pf : pp.fragments) {
        FragmentStats* frag = part->Track(pf.interval, pf.size_bytes);
        frag->size_bytes = pf.size_bytes;
        frag->materialized = pf.materialized;
        std::vector<FragmentHit> restored;
        restored.reserve(pf.hits.size());
        for (const ParsedHit& h : pf.hits) {
          FragmentHit hit;
          hit.time = h.time;
          hit.has_range = h.has_range;
          hit.range = h.range;
          hit.tenant = remap_tenant(h.tenant);
          restored.push_back(hit);
        }
        // AdoptHits rebuilds the running-max and resets the timed-out
        // prefix cursor, so the restored stats evaluate exactly as if
        // the hits had been recorded live.
        frag->AdoptHits(std::move(restored));
        if (pf.materialized) {
          Status st =
              fs->Put(FragmentPath(*view, part->attr, pf.interval),
                      pf.size_bytes);
          assert(st.ok());  // no policy installed: Put cannot fail
          (void)st;
        }
      }
    }
  }
  // The loop above wrote materialized flags and sizes directly; bring
  // every view's cached pool-byte counter back in sync.
  for (ViewInfo* v : views->AllViews()) v->RefreshCachedBytes();
  fs->set_fault_policy(saved_policy);
  return Status::OK();
}

}  // namespace deepsea
