#include "plan/signature.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <utility>

#include "common/str_util.h"

namespace deepsea {

namespace {

// Merges column `b` into the equivalence class structure containing `a`
// (union-find over small vectors; class counts are tiny).
void AddEquivalence(std::vector<std::set<std::string>>* classes,
                    const std::string& a, const std::string& b) {
  int ia = -1, ib = -1;
  for (size_t i = 0; i < classes->size(); ++i) {
    if ((*classes)[i].count(a)) ia = static_cast<int>(i);
    if ((*classes)[i].count(b)) ib = static_cast<int>(i);
  }
  if (ia < 0 && ib < 0) {
    classes->push_back({a, b});
  } else if (ia >= 0 && ib < 0) {
    (*classes)[static_cast<size_t>(ia)].insert(b);
  } else if (ia < 0 && ib >= 0) {
    (*classes)[static_cast<size_t>(ib)].insert(a);
  } else if (ia != ib) {
    auto& ca = (*classes)[static_cast<size_t>(ia)];
    auto& cb = (*classes)[static_cast<size_t>(ib)];
    ca.insert(cb.begin(), cb.end());
    classes->erase(classes->begin() + ib);
  }
}

// Intersects `update` into the stored range for its column.
void MergeRange(std::map<std::string, ColumnRange>* ranges, const ColumnRange& r) {
  auto it = ranges->find(r.column);
  if (it == ranges->end()) {
    (*ranges)[r.column] = r;
    return;
  }
  ColumnRange& cur = it->second;
  if (r.lo > cur.lo || (r.lo == cur.lo && !r.lo_inclusive)) {
    cur.lo = r.lo;
    cur.lo_inclusive = r.lo_inclusive;
  }
  if (r.hi < cur.hi || (r.hi == cur.hi && !r.hi_inclusive)) {
    cur.hi = r.hi;
    cur.hi_inclusive = r.hi_inclusive;
  }
}

void AbsorbPredicate(PlanSignature* sig, const ExprPtr& pred) {
  const RangeExtraction ex = ExtractRanges(pred);
  for (const ColumnRange& r : ex.ranges) MergeRange(&sig->ranges, r);
  for (const auto& [a, b] : ex.column_equalities) {
    AddEquivalence(&sig->equiv_classes, a, b);
  }
  for (const ExprPtr& res : ex.residuals) {
    if (sig->residuals.insert(res->ToString()).second) {
      sig->residual_exprs.push_back(res);
    }
  }
}

// Appends [first, last) separated by ','.
template <typename It>
void AppendJoined(std::string* out, It first, It last) {
  for (It it = first; it != last; ++it) {
    if (it != first) out->push_back(',');
    out->append(*it);
  }
}

// Appends `v` exactly as printf's "%.6g": std::to_chars in general format
// with precision 6 is specified to produce the same characters.
void AppendG6(std::string* out, double v) {
  char buf[32];
  const std::to_chars_result res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 6);
  out->append(buf, res.ptr);
}

// Appends each class as "{a,b}", the classes separated by ',' and in the
// byte order of these renderings.
void AppendClasses(std::string* out,
                   const std::vector<std::set<std::string>>& classes) {
  const size_t begin = out->size();
  std::vector<std::pair<size_t, size_t>> spans;  // offset from begin, length
  if (classes.size() > 1) spans.reserve(classes.size());
  for (const auto& cls : classes) {
    if (out->size() > begin) out->push_back(',');
    const size_t start = out->size();
    out->push_back('{');
    AppendJoined(out, cls.begin(), cls.end());
    out->push_back('}');
    if (classes.size() > 1) spans.emplace_back(start - begin, out->size() - start);
  }
  if (spans.size() < 2) return;
  const std::string rendered = out->substr(begin);
  std::vector<std::string_view> parts;
  parts.reserve(spans.size());
  for (const auto& [offset, length] : spans) {
    parts.emplace_back(rendered.data() + offset, length);
  }
  std::sort(parts.begin(), parts.end());
  out->resize(begin);
  AppendJoined(out, parts.begin(), parts.end());
}

// One node's signature from its children's (`left`, `right`; null where
// the node has fewer). Sort and Limit are resolved by SignatureTable::Get.
Result<PlanSignature> DeriveSignature(const PlanPtr& plan,
                                      const PlanSignature* left,
                                      const PlanSignature* right,
                                      const Catalog& catalog) {
  PlanSignature sig;
  switch (plan->kind()) {
    case PlanKind::kViewRef:
      return Status::NotImplemented("signatures over view reads are not supported");
    case PlanKind::kScan: {
      sig.relations.push_back(plan->table_name());
      DEEPSEA_ASSIGN_OR_RETURN(Schema schema, plan->OutputSchema(catalog));
      for (const auto& col : schema.columns()) sig.output_columns.insert(col.name);
      return sig;
    }
    case PlanKind::kSort:
    case PlanKind::kLimit:
      break;
    case PlanKind::kSelect: {
      sig = *left;
      if (sig.has_aggregate) {
        // Selections above an aggregate act on aggregate output; treat
        // them as residuals so matching stays sound (a view without the
        // post-aggregate filter is still a superset).
        for (const ExprPtr& conj : SplitConjuncts(plan->predicate())) {
          sig.residuals.insert("post-agg:" + conj->ToString());
        }
        return sig;
      }
      AbsorbPredicate(&sig, plan->predicate());
      return sig;
    }
    case PlanKind::kJoin: {
      const PlanSignature& l = *left;
      const PlanSignature& r = *right;
      if (l.has_aggregate || r.has_aggregate) {
        return Status::NotImplemented(
            "signatures for joins over aggregates are not supported");
      }
      sig.relations = l.relations;
      sig.relations.insert(sig.relations.end(), r.relations.begin(),
                           r.relations.end());
      std::sort(sig.relations.begin(), sig.relations.end());
      sig.equiv_classes = l.equiv_classes;
      for (const auto& cls : r.equiv_classes) {
        auto it = cls.begin();
        const std::string& first = *it;
        for (++it; it != cls.end(); ++it) {
          AddEquivalence(&sig.equiv_classes, first, *it);
        }
      }
      sig.ranges = l.ranges;
      for (const auto& [col, rr] : r.ranges) MergeRange(&sig.ranges, rr);
      sig.residuals = l.residuals;
      sig.residuals.insert(r.residuals.begin(), r.residuals.end());
      sig.residual_exprs = l.residual_exprs;
      for (const ExprPtr& e : r.residual_exprs) {
        if (!l.residuals.count(e->ToString())) sig.residual_exprs.push_back(e);
      }
      sig.output_columns = l.output_columns;
      sig.output_columns.insert(r.output_columns.begin(), r.output_columns.end());
      sig.computed_outputs = l.computed_outputs;
      sig.computed_outputs.insert(r.computed_outputs.begin(),
                                  r.computed_outputs.end());
      AbsorbPredicate(&sig, plan->predicate());
      return sig;
    }
    case PlanKind::kProject: {
      sig = *left;
      std::set<std::string> new_outputs;
      for (size_t i = 0; i < plan->project_exprs().size(); ++i) {
        const ExprPtr& e = plan->project_exprs()[i];
        const std::string& name = plan->project_names()[i];
        if (e->kind() == ExprKind::kColumnRef && e->column_name() == name) {
          new_outputs.insert(name);
        } else {
          sig.computed_outputs.insert(e->ToString() + " AS " + name);
          new_outputs.insert(name);
        }
      }
      sig.output_columns = std::move(new_outputs);
      return sig;
    }
    case PlanKind::kAggregate: {
      sig = *left;
      if (sig.has_aggregate) {
        return Status::NotImplemented("nested aggregates are not supported");
      }
      sig.has_aggregate = true;
      sig.group_by = plan->group_by();
      std::sort(sig.group_by.begin(), sig.group_by.end());
      for (const auto& a : plan->aggregates()) sig.agg_specs.insert(a.ToString());
      std::set<std::string> new_outputs(plan->group_by().begin(),
                                        plan->group_by().end());
      for (const auto& a : plan->aggregates()) new_outputs.insert(a.output_name);
      sig.output_columns = std::move(new_outputs);
      return sig;
    }
  }
  return Status::Internal("bad plan kind");
}

}  // namespace

std::set<std::string> PlanSignature::ClassOf(const std::string& column) const {
  for (const auto& cls : equiv_classes) {
    if (cls.count(column)) return cls;
  }
  return {column};
}

std::string PlanSignature::ToString() const {
  // One buffer, sized up front: labels, separators and the strings, plus
  // at most 13 characters per rendered double.
  size_t size = 96;
  auto add = [&size](const auto& strings) {
    for (const std::string& str : strings) size += str.size() + 1;
  };
  add(relations);
  for (const auto& cls : equiv_classes) {
    add(cls);
    size += 3;
  }
  for (const auto& [col, r] : ranges) size += col.size() + 32;
  add(residuals);
  add(output_columns);
  add(computed_outputs);
  add(group_by);
  add(agg_specs);

  std::string out;
  out.reserve(size);
  out += "relations=[";
  AppendJoined(&out, relations.begin(), relations.end());
  out += "] equiv={";
  AppendClasses(&out, equiv_classes);
  out += "} ranges={";
  for (auto it = ranges.begin(); it != ranges.end(); ++it) {
    if (it != ranges.begin()) out.push_back(',');
    const ColumnRange& r = it->second;
    out += it->first;
    out.push_back(':');
    out.push_back(r.lo_inclusive ? '[' : '(');
    AppendG6(&out, r.lo);
    out.push_back(',');
    AppendG6(&out, r.hi);
    out.push_back(r.hi_inclusive ? ']' : ')');
  }
  out += "} residuals={";
  AppendJoined(&out, residuals.begin(), residuals.end());
  out += "} outputs={";
  AppendJoined(&out, output_columns.begin(), output_columns.end());
  out.push_back('}');
  if (!computed_outputs.empty()) {
    out += " computed={";
    AppendJoined(&out, computed_outputs.begin(), computed_outputs.end());
    out.push_back('}');
  }
  if (has_aggregate) {
    out += " groupby=[";
    AppendJoined(&out, group_by.begin(), group_by.end());
    out += "] aggs={";
    AppendJoined(&out, agg_specs.begin(), agg_specs.end());
    out.push_back('}');
  }
  return out;
}

bool PlanSignature::operator==(const PlanSignature& other) const {
  return ToString() == other.ToString();
}

const std::string& SignatureTable::Entry::key() const {
  if (keyed_->key.empty()) keyed_->key = keyed_->sig.ToString();
  return keyed_->key;
}

const SignatureTable::Entry& SignatureTable::Get(const PlanPtr& plan) {
  for (const Entry& e : entries_) {
    if (e.plan_.get() == plan.get()) return e;
  }
  const Entry* left = plan->children().empty() ? nullptr : &Get(plan->child(0));
  const Entry* right = plan->children().size() > 1 ? &Get(plan->child(1)) : nullptr;
  Entry entry;
  entry.plan_ = plan;
  if (plan->kind() == PlanKind::kLimit) {
    // LIMIT changes content non-semantically (row subset): such
    // subplans are neither matched nor offered as view candidates.
    entry.status_ = Status::NotImplemented("signatures for LIMIT are not supported");
  } else if (left != nullptr && !left->ok()) {
    entry.status_ = left->status_;
  } else if (right != nullptr && !right->ok()) {
    entry.status_ = right->status_;
  } else if (plan->kind() == PlanKind::kSort) {
    // Sorting does not change content; signatures see through it.
    entry.keyed_ = left->keyed_;
  } else {
    Result<PlanSignature> sig =
        DeriveSignature(plan, left != nullptr ? &left->sig() : nullptr,
                        right != nullptr ? &right->sig() : nullptr, *catalog_);
    if (sig.ok()) {
      entry.keyed_ = std::make_shared<KeyedSignature>();
      entry.keyed_->sig = std::move(*sig);
    } else {
      entry.status_ = sig.status();
    }
  }
  entries_.push_back(std::move(entry));
  return entries_.back();
}

Result<PlanSignature> ComputeSignature(const PlanPtr& plan, const Catalog& catalog) {
  SignatureTable table(&catalog);
  const SignatureTable::Entry& entry = table.Get(plan);
  if (!entry.ok()) return entry.status();
  return entry.sig();
}

Interval RangeInterval(const ColumnRange& range) {
  return Interval(range.lo, range.hi, range.lo_inclusive, range.hi_inclusive);
}

bool RangeAdmits(const Interval& view, const std::optional<Interval>& query) {
  return query.has_value() && view.Contains(*query);
}

bool SignatureSubsumes(const PlanSignature& view_sig,
                       const PlanSignature& query_sig) {
  // 1. Relation classes must be equal.
  if (view_sig.relations != query_sig.relations) return false;
  // 2. Every view equivalence class must be contained in a query class:
  //    the view enforces no equality the query does not also enforce.
  for (const auto& vcls : view_sig.equiv_classes) {
    bool contained = false;
    for (const auto& qcls : query_sig.equiv_classes) {
      if (std::includes(qcls.begin(), qcls.end(), vcls.begin(), vcls.end())) {
        contained = true;
        break;
      }
    }
    if (!contained) return false;
  }
  // 3. View ranges must contain query ranges (view at least as wide); a
  //    view may constrain only columns the query constrains.
  for (const auto& [col, vrange] : view_sig.ranges) {
    const auto qit = query_sig.ranges.find(col);
    std::optional<Interval> qi;
    if (qit != query_sig.ranges.end()) qi = RangeInterval(qit->second);
    if (!RangeAdmits(RangeInterval(vrange), qi)) return false;
  }
  // 4. View residuals must be a subset of query residuals.
  if (!std::includes(query_sig.residuals.begin(), query_sig.residuals.end(),
                     view_sig.residuals.begin(), view_sig.residuals.end())) {
    return false;
  }
  // 5. Aggregation compatibility: same presence and the same spec.
  if (view_sig.has_aggregate != query_sig.has_aggregate) return false;
  if (view_sig.has_aggregate) {
    if (view_sig.group_by != query_sig.group_by ||
        view_sig.agg_specs != query_sig.agg_specs) {
      return false;
    }
    // Compensating predicates (query constraints the view lacks) must be
    // expressible over the aggregate output, i.e. reference only
    // group-by columns; compensating residuals are not supported.
    const std::set<std::string> gb(view_sig.group_by.begin(),
                                   view_sig.group_by.end());
    for (const auto& [col, qrange] : query_sig.ranges) {
      const auto vit = view_sig.ranges.find(col);
      const bool identical =
          vit != view_sig.ranges.end() && vit->second.lo == qrange.lo &&
          vit->second.hi == qrange.hi &&
          vit->second.lo_inclusive == qrange.lo_inclusive &&
          vit->second.hi_inclusive == qrange.hi_inclusive;
      if (!identical && !gb.count(col)) return false;
    }
    for (const auto& res : query_sig.residuals) {
      if (!view_sig.residuals.count(res)) return false;
    }
  }
  // 6. Output availability: the view must expose every column the query
  //    outputs and every column needed by compensating predicates.
  for (const auto& col : query_sig.output_columns) {
    if (!view_sig.output_columns.count(col)) return false;
  }
  for (const auto& comp : query_sig.computed_outputs) {
    // A computed output can be re-derived if the view still has the raw
    // columns, but our compensation only selects/projects by name; be
    // conservative.
    if (!view_sig.computed_outputs.count(comp)) return false;
  }
  if (!view_sig.has_aggregate) {
    for (const auto& [col, qrange] : query_sig.ranges) {
      (void)qrange;
      if (!view_sig.output_columns.count(col)) return false;
    }
  }
  return true;
}

}  // namespace deepsea
