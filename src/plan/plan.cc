#include "plan/plan.h"

#include <algorithm>

#include "common/str_util.h"

namespace deepsea {

const char* PlanKindName(PlanKind k) {
  switch (k) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kSelect:
      return "Select";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kViewRef:
      return "ViewRef";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

std::string SortKey::ToString() const {
  return column + (ascending ? " ASC" : " DESC");
}

std::string AggregateSpec::ToString() const {
  const std::string arg = fn == AggFunc::kCount && input_column.empty()
                              ? "*"
                              : input_column;
  return std::string(AggFuncName(fn)) + "(" + arg + ") AS " + output_name;
}

PlanPtr Scan(std::string table) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kScan;
  n->table_name_ = std::move(table);
  return n;
}

PlanPtr Select(PlanPtr input, ExprPtr predicate) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kSelect;
  n->children_ = {std::move(input)};
  n->predicate_ = std::move(predicate);
  return n;
}

PlanPtr Project(PlanPtr input, std::vector<ExprPtr> exprs,
                std::vector<std::string> names) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kProject;
  n->children_ = {std::move(input)};
  n->project_exprs_ = std::move(exprs);
  n->project_names_ = std::move(names);
  return n;
}

PlanPtr Join(PlanPtr left, PlanPtr right, ExprPtr condition) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kJoin;
  n->children_ = {std::move(left), std::move(right)};
  n->predicate_ = std::move(condition);
  return n;
}

PlanPtr Aggregate(PlanPtr input, std::vector<std::string> group_by,
                  std::vector<AggregateSpec> aggs) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kAggregate;
  n->children_ = {std::move(input)};
  n->group_by_ = std::move(group_by);
  n->aggregates_ = std::move(aggs);
  return n;
}

PlanPtr ViewRef(std::string view_name, std::string partition_attr,
                std::vector<Interval> fragments) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kViewRef;
  n->table_name_ = std::move(view_name);
  n->view_partition_attr_ = std::move(partition_attr);
  n->view_fragments_ = std::move(fragments);
  return n;
}

PlanPtr Sort(PlanPtr input, std::vector<SortKey> keys) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kSort;
  n->children_ = {std::move(input)};
  n->sort_keys_ = std::move(keys);
  return n;
}

PlanPtr Limit(PlanPtr input, int64_t limit) {
  auto n = std::make_shared<PlanNode>(PlanNode::PrivateTag{});
  n->kind_ = PlanKind::kLimit;
  n->children_ = {std::move(input)};
  n->limit_ = limit;
  return n;
}

Result<Schema> PlanNode::OutputSchema(const Catalog& catalog) const {
  switch (kind_) {
    case PlanKind::kScan:
    case PlanKind::kViewRef: {
      DEEPSEA_ASSIGN_OR_RETURN(TablePtr table, catalog.Get(table_name_));
      return table->schema();
    }
    case PlanKind::kSelect:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      return children_[0]->OutputSchema(catalog);
    case PlanKind::kProject: {
      DEEPSEA_ASSIGN_OR_RETURN(Schema in, children_[0]->OutputSchema(catalog));
      Schema out;
      for (size_t i = 0; i < project_exprs_.size(); ++i) {
        const ExprPtr& e = project_exprs_[i];
        DataType t = DataType::kDouble;
        if (e->kind() == ExprKind::kColumnRef) {
          const auto idx = in.FindColumn(e->column_name());
          if (!idx.has_value()) {
            return Status::NotFound("project column not found: " +
                                    e->column_name());
          }
          t = in.column(*idx).type;
        } else if (e->kind() == ExprKind::kLiteral) {
          t = e->literal().type();
        } else if (e->kind() == ExprKind::kComparison ||
                   e->kind() == ExprKind::kLogical) {
          t = DataType::kBool;
        }
        out.AddColumn(ColumnDef{project_names_[i], t});
      }
      return out;
    }
    case PlanKind::kJoin: {
      DEEPSEA_ASSIGN_OR_RETURN(Schema l, children_[0]->OutputSchema(catalog));
      DEEPSEA_ASSIGN_OR_RETURN(Schema r, children_[1]->OutputSchema(catalog));
      return l.Concat(r);
    }
    case PlanKind::kAggregate: {
      DEEPSEA_ASSIGN_OR_RETURN(Schema in, children_[0]->OutputSchema(catalog));
      Schema out;
      for (const std::string& g : group_by_) {
        const auto idx = in.FindColumn(g);
        if (!idx.has_value()) {
          return Status::NotFound("group-by column not found: " + g);
        }
        out.AddColumn(in.column(*idx));
      }
      for (const AggregateSpec& a : aggregates_) {
        DataType t = DataType::kDouble;
        if (a.fn == AggFunc::kCount) {
          t = DataType::kInt64;
        } else {
          const auto idx = in.FindColumn(a.input_column);
          if (!idx.has_value()) {
            return Status::NotFound("aggregate input column not found: " +
                                    a.input_column);
          }
          if (a.fn == AggFunc::kMin || a.fn == AggFunc::kMax) {
            t = in.column(*idx).type;
          } else if (a.fn == AggFunc::kSum &&
                     in.column(*idx).type == DataType::kInt64) {
            t = DataType::kInt64;
          }
        }
        out.AddColumn(ColumnDef{a.output_name, t});
      }
      return out;
    }
  }
  return Status::Internal("bad plan kind");
}

std::string PlanNode::ToString(int indent) const {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad + PlanKindName(kind_);
  switch (kind_) {
    case PlanKind::kScan:
      line += "(";
      line += table_name_;
      line += ")";
      break;
    case PlanKind::kViewRef: {
      line += "(";
      line += table_name_;
      if (!view_fragments_.empty()) {
        std::vector<std::string> frags;
        for (const auto& iv : view_fragments_) frags.push_back(iv.ToString());
        line += " frags[";
        line += view_partition_attr_;
        line += "]=";
        line += Join(frags, ",");
      }
      line += ")";
      break;
    }
    case PlanKind::kSelect:
    case PlanKind::kJoin:
      if (predicate_) {
        line += "(";
        line += predicate_->ToString();
        line += ")";
      }
      break;
    case PlanKind::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < project_exprs_.size(); ++i) {
        parts.push_back(project_exprs_[i]->ToString() + " AS " + project_names_[i]);
      }
      line += "(";
      line += Join(parts, ", ");
      line += ")";
      break;
    }
    case PlanKind::kAggregate: {
      std::vector<std::string> parts;
      for (const auto& a : aggregates_) parts.push_back(a.ToString());
      line += "(by=[";
      line += Join(group_by_, ",");
      line += "] ";
      line += Join(parts, ", ");
      line += ")";
      break;
    }
    case PlanKind::kSort: {
      std::vector<std::string> parts;
      for (const auto& k : sort_keys_) parts.push_back(k.ToString());
      line += "(";
      line += Join(parts, ", ");
      line += ")";
      break;
    }
    case PlanKind::kLimit:
      line += "(";
      line += std::to_string(limit_);
      line += ")";
      break;
  }
  std::string out = line;
  for (const auto& c : children_) {
    out += "\n";
    out += c->ToString(indent + 1);
  }
  return out;
}

std::vector<std::string> PlanNode::BaseTables() const {
  std::vector<std::string> out;
  if (kind_ == PlanKind::kScan || kind_ == PlanKind::kViewRef) {
    out.push_back(table_name_);
  }
  for (const auto& c : children_) {
    auto sub = c->BaseTables();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CollectSubplans(const PlanPtr& plan, std::vector<PlanPtr>* out) {
  if (!plan) return;
  out->push_back(plan);
  for (const auto& c : plan->children()) CollectSubplans(c, out);
}

PlanPtr ReplacePlanNode(const PlanPtr& root, const PlanNode* target,
                        const PlanPtr& replacement) {
  if (!root) return root;
  if (root.get() == target) return replacement;
  // Rebuild children; reuse this node when nothing below changed.
  std::vector<PlanPtr> new_children;
  bool changed = false;
  for (const PlanPtr& c : root->children()) {
    PlanPtr nc = ReplacePlanNode(c, target, replacement);
    changed = changed || nc.get() != c.get();
    new_children.push_back(std::move(nc));
  }
  if (!changed) return root;
  switch (root->kind()) {
    case PlanKind::kScan:
    case PlanKind::kViewRef:
      return root;  // leaves have no children to replace
    case PlanKind::kSelect:
      return Select(new_children[0], root->predicate());
    case PlanKind::kProject:
      return Project(new_children[0], root->project_exprs(),
                     root->project_names());
    case PlanKind::kJoin:
      return Join(new_children[0], new_children[1], root->predicate());
    case PlanKind::kAggregate:
      return Aggregate(new_children[0], root->group_by(), root->aggregates());
    case PlanKind::kSort:
      return Sort(new_children[0], root->sort_keys());
    case PlanKind::kLimit:
      return Limit(new_children[0], root->limit());
  }
  return root;
}

}  // namespace deepsea
