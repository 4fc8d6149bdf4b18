// SaveState / LoadState: persistence of the engine's adaptive state
// (see the declarations in core/engine.h). The format is line-based:
//
//   DEEPSEA-STATE 4
//   CLOCK <t>
//   VIEW
//   PLAN <line-count>
//   <serialized plan over base tables only, see plan/plan_serde.h>
//   STATS <size_bytes> <creation_cost> <whole>
//   LEDGER <paid> <earned> <n0> <created>     (0-1 per view)
//   EVENT <time> <saving>                     (0+ per view)
//   PARTITION <attr> <lo> <hi> <li> <hi_inc>  (0+ per view)
//   PENDING <lo> <hi> <li> <hi_inc>           (0+ per partition)
//   FRAGMENT <lo> <hi> <li> <hi_inc> <size> <materialized>
//   HIT <time> <has_range> <lo> <hi> <li> <hi_inc>  (0+ per fragment)
//   ENDVIEW
//
// Benefit events and hits carry no tenant: Φ pools them across tenants,
// so a blob saved by one pool restores into any other. Views are defined
// over base tables only, so a PLAN holds no VIEWREF line; the plan parser
// rejects one, and with it the whole blob. LEDGER is the view's
// realized-return ledger (ViewLedger), new in version 4. A version 3
// blob, which has no LEDGER line, still loads and leaves the ledgers as
// they were (empty in a fresh engine); any other header is rejected
// like a corrupt blob, and so is a blob with a non-finite number (nan,
// inf) in any line.

#include <cassert>
#include <cmath>
#include <cstdlib>
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

// --- strict field parsers (over ParseDouble, common/str_util.h).
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

// A finite number. ParseDouble takes strtod's "nan" and "inf", which no
// saved state holds: a NaN endpoint breaks the fragment index's
// interval order, and a NaN time or size reaches integer conversions.
Result<double> ParseFinite(const std::string& s) {
  DEEPSEA_ASSIGN_OR_RETURN(double v, ParseDouble(s));
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite number in state: " + s);
  }
  return v;
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
  DEEPSEA_ASSIGN_OR_RETURN(double lo, ParseFinite(parts[at]));
  DEEPSEA_ASSIGN_OR_RETURN(double hi, ParseFinite(parts[at + 1]));
  DEEPSEA_ASSIGN_OR_RETURN(bool lo_inc, ParseFlag(parts[at + 2]));
  DEEPSEA_ASSIGN_OR_RETURN(bool hi_inc, ParseFlag(parts[at + 3]));
  return Interval(lo, hi, lo_inc, hi_inc);
}

// --- parsed representation of a state blob (phase 1 output). LoadState
//     fully parses and validates into these values before touching any
//     engine state, so a malformed blob can never leave a partial load.

struct ParsedFragment {
  Interval interval;
  double size_bytes = 0.0;
  bool materialized = false;
  std::vector<FragmentHit> hits;
};

struct ParsedPartition {
  std::string attr;
  Interval domain;
  std::vector<Interval> pending;
  std::vector<ParsedFragment> fragments;
};

struct ParsedView {
  PlanPtr plan;
  PlanSignature signature;
  double size_bytes = 0.0;
  double creation_cost = 0.0;
  bool whole_materialized = false;
  bool has_ledger = false;
  ViewLedger ledger;
  std::vector<BenefitEvent> events;
  std::vector<ParsedPartition> partitions;
};

struct ParsedState {
  int64_t clock = 0;
  std::vector<ParsedView> views;
};

}  // namespace

Result<std::string> DeepSeaEngine::SaveState() const {
  // Shared-mode lock: a consistent snapshot that doesn't block other
  // readers (and waits for any in-flight commit to finish).
  auto lock = pool_->SharedLock();
  std::string out = "DEEPSEA-STATE 4\n";
  out += StrFormat("CLOCK %lld\n", static_cast<long long>(pool_->clock()));
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
    out += StrFormat("STATS %.17g %.17g %d\n", view->stats.size_bytes,
                     view->stats.creation_cost,
                     view->whole_materialized ? 1 : 0);
    out += StrFormat("LEDGER %.17g %.17g %.17g %d\n", view->ledger.paid,
                     view->ledger.earned, view->ledger.n0,
                     view->ledger.created ? 1 : 0);
    for (const BenefitEvent& e : view->stats.events()) {
      out += StrFormat("EVENT %.17g %.17g\n", e.time, e.saving);
    }
    for (const auto& [attr, part] : view->partitions) {
      out += "PARTITION " + attr + " " + FmtInterval(part.domain) + "\n";
      for (const Interval& iv : part.pending) {
        out += "PENDING " + FmtInterval(iv) + "\n";
      }
      for (const FragmentStats& f : part.fragments()) {
        out += "FRAGMENT " + FmtInterval(f.interval) +
               StrFormat(" %.17g %d\n", f.size_bytes, f.materialized ? 1 : 0);
        for (const FragmentHit& h : f.hits()) {
          out += StrFormat("HIT %.17g %d ", h.time, h.has_range ? 1 : 0) +
                 FmtInterval(h.range) + "\n";
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
      (lines[i] != "DEEPSEA-STATE 3" && lines[i] != "DEEPSEA-STATE 4")) {
    return Status::InvalidArgument("bad or unsupported state header");
  }
  const bool ledgers = lines[i] == "DEEPSEA-STATE 4";
  ++i;

  ParsedState parsed;
  if (i < lines.size() && lines[i].rfind("CLOCK ", 0) == 0) {
    DEEPSEA_ASSIGN_OR_RETURN(parsed.clock, ParseInt(lines[i].substr(6)));
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
    // Signatures are resolved in phase 2, against the catalog under the
    // commit section.

    if (i >= lines.size() || lines[i].rfind("STATS ", 0) != 0) {
      return Status::InvalidArgument("expected STATS");
    }
    {
      const auto parts = next_parts();
      if (parts.size() != 4) return Status::InvalidArgument("bad STATS line");
      DEEPSEA_ASSIGN_OR_RETURN(pv.size_bytes, ParseFinite(parts[1]));
      DEEPSEA_ASSIGN_OR_RETURN(pv.creation_cost, ParseFinite(parts[2]));
      DEEPSEA_ASSIGN_OR_RETURN(pv.whole_materialized, ParseFlag(parts[3]));
      ++i;
    }
    // `part` / `frag` always point at the most recent element and are
    // re-taken after every push_back (which may reallocate).
    ParsedPartition* part = nullptr;
    ParsedFragment* frag = nullptr;
    while (i < lines.size() && lines[i] != "ENDVIEW") {
      const auto parts = next_parts();
      if (parts[0] == "LEDGER" && parts.size() == 5 && ledgers &&
          !pv.has_ledger) {
        DEEPSEA_ASSIGN_OR_RETURN(pv.ledger.paid, ParseFinite(parts[1]));
        DEEPSEA_ASSIGN_OR_RETURN(pv.ledger.earned, ParseFinite(parts[2]));
        DEEPSEA_ASSIGN_OR_RETURN(pv.ledger.n0, ParseFinite(parts[3]));
        DEEPSEA_ASSIGN_OR_RETURN(pv.ledger.created, ParseFlag(parts[4]));
        pv.has_ledger = true;
      } else if (parts[0] == "EVENT" && parts.size() == 3) {
        BenefitEvent e;
        DEEPSEA_ASSIGN_OR_RETURN(e.time, ParseFinite(parts[1]));
        DEEPSEA_ASSIGN_OR_RETURN(e.saving, ParseFinite(parts[2]));
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
        DEEPSEA_ASSIGN_OR_RETURN(f.size_bytes, ParseFinite(parts[5]));
        DEEPSEA_ASSIGN_OR_RETURN(f.materialized, ParseFlag(parts[6]));
        part->fragments.push_back(std::move(f));
        frag = &part->fragments.back();
      } else if (parts[0] == "HIT" && parts.size() == 7 && frag != nullptr) {
        FragmentHit hit;
        DEEPSEA_ASSIGN_OR_RETURN(hit.time, ParseFinite(parts[1]));
        DEEPSEA_ASSIGN_OR_RETURN(hit.has_range, ParseFlag(parts[2]));
        DEEPSEA_ASSIGN_OR_RETURN(hit.range, ParseInterval(parts, 3));
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
  CommitGuard commit = pool_->BeginCommit();
  ViewCatalog* views = pool_->stat(commit);
  SimFs* fs = pool_->fs(commit);
  FilterTree* index = pool_->rewrite_index(commit);

  for (ParsedView& pv : parsed.views) {
    DEEPSEA_ASSIGN_OR_RETURN(pv.signature, ComputeSignature(pv.plan, *catalog_));
  }
  // State restore is a recovery path: the fault-injection policy must
  // not fail it (and restored files are not fresh pool writes the
  // policy should count). Detach it for the duration.
  FaultPolicy* saved_policy = fs->fault_policy();
  fs->set_fault_policy(nullptr);

  pool_->AdvanceClockTo(commit, parsed.clock);

  for (ParsedView& pv : parsed.views) {
    const bool known =
        views->FindBySignature(pv.signature.ToString()) != nullptr;
    ViewInfo* view = views->Track(pv.plan, pv.signature);
    if (!known) {
      pool_->RegisterViewTable(view, catalog_);
      index->Insert(view->signature, view->id);
    }
    view->stats.size_bytes = pv.size_bytes;
    view->stats.creation_cost = pv.creation_cost;
    view->whole_materialized = pv.whole_materialized;
    if (pv.has_ledger) view->ledger = pv.ledger;
    if (pv.whole_materialized) {
      Status st =
          fs->Put(StrFormat("pool/%s/full", view->id.c_str()), pv.size_bytes);
      assert(st.ok());  // no policy installed: Put cannot fail
      (void)st;
    }
    for (const BenefitEvent& e : pv.events) {
      // AppendEvent, not RecordUse: loading a blob into a pool that
      // already tracks this view may interleave older timestamps, which
      // the RecordUse time-order assert would (rightly) reject. The
      // incremental caches stay exact regardless of order.
      view->stats.AppendEvent(e);
    }
    for (ParsedPartition& pp : pv.partitions) {
      PartitionState* part = view->EnsurePartition(pp.attr, pp.domain);
      part->pending = pp.pending;
      // Attach the derived histogram (as RegisterPartitionCandidates
      // would) so fragment size estimation works after load.
      auto view_table = catalog_->Get(view->id);
      if (view_table.ok() && (*view_table)->GetHistogram(pp.attr) == nullptr) {
        auto hist = DeriveViewHistogram(*catalog_, *view, pp.attr);
        if (hist.ok()) (*view_table)->SetHistogram(pp.attr, *hist);
      }
      for (ParsedFragment& pf : pp.fragments) {
        FragmentStats* frag = part->Track(pf.interval, pf.size_bytes).first;
        frag->size_bytes = pf.size_bytes;
        frag->materialized = pf.materialized;
        // AdoptHits sorts the hits by time (a blob may list them in any
        // order) and rebuilds the running sum, so the restored stats
        // evaluate exactly as if the hits had been recorded live.
        frag->AdoptHits(std::move(pf.hits));
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
  // The loop above wrote materialized flags, sizes and hit lists
  // directly; bring the pool-content index, its cached bytes and the
  // part masses back in sync.
  for (ViewInfo* v : views->AllViews()) pool_->RefreshView(v);
  fs->set_fault_policy(saved_policy);
  return Status::OK();
}

}  // namespace deepsea
