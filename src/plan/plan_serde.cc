#include "plan/plan_serde.h"

#include <cassert>
#include <vector>

#include "common/str_util.h"
#include "sql/parser.h"

namespace deepsea {

namespace {

void SerializeNode(const PlanPtr& plan, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth), ' ');
  switch (plan->kind()) {
    case PlanKind::kScan:
      *out += "SCAN " + plan->table_name();
      break;
    case PlanKind::kViewRef:
      // Stored plans define views, and views read base tables only.
      assert(false && "SerializePlan over a ViewRef");
      break;
    case PlanKind::kSelect:
      *out += "SELECT " + plan->predicate()->ToString();
      break;
    case PlanKind::kJoin:
      *out += "JOIN " + plan->predicate()->ToString();
      break;
    case PlanKind::kProject: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < plan->project_exprs().size(); ++i) {
        parts.push_back(plan->project_exprs()[i]->ToString() + " AS " +
                        plan->project_names()[i]);
      }
      *out += "PROJECT " + Join(parts, "; ");
      break;
    }
    case PlanKind::kAggregate: {
      std::vector<std::string> aggs;
      for (const AggregateSpec& a : plan->aggregates()) {
        aggs.push_back(a.ToString());
      }
      *out += "AGGREGATE by=" + Join(plan->group_by(), ",") +
              " aggs=" + Join(aggs, "; ");
      break;
    }
    case PlanKind::kSort: {
      std::vector<std::string> keys;
      for (const SortKey& k : plan->sort_keys()) keys.push_back(k.ToString());
      *out += "SORT " + Join(keys, "; ");
      break;
    }
    case PlanKind::kLimit:
      *out += "LIMIT " + std::to_string(plan->limit());
      break;
  }
  *out += "\n";
  for (const PlanPtr& child : plan->children()) {
    SerializeNode(child, depth + 1, out);
  }
}

struct Line {
  int depth = 0;
  std::string op;    // SCAN, SELECT, ...
  std::string rest;  // remainder after the op keyword
};

Result<std::vector<Line>> ParseLines(const std::string& text) {
  std::vector<Line> out;
  for (const std::string& raw : Split(text, '\n')) {
    if (raw.empty()) continue;
    Line line;
    size_t i = 0;
    while (i < raw.size() && raw[i] == ' ') ++i;
    line.depth = static_cast<int>(i);
    const size_t sp = raw.find(' ', i);
    line.op = raw.substr(i, sp == std::string::npos ? std::string::npos : sp - i);
    if (sp != std::string::npos) line.rest = raw.substr(sp + 1);
    out.push_back(std::move(line));
  }
  if (out.empty()) return Status::InvalidArgument("empty plan text");
  return out;
}

Result<AggregateSpec> ParseAggSpec(const std::string& text) {
  // "SUM(col) AS name" / "COUNT(*) AS name".
  const size_t lparen = text.find('(');
  const size_t rparen = text.find(')');
  const size_t as = text.find(" AS ");
  if (lparen == std::string::npos || rparen == std::string::npos ||
      as == std::string::npos || rparen < lparen || as < rparen) {
    return Status::InvalidArgument("malformed aggregate spec: " + text);
  }
  AggregateSpec spec;
  const std::string fn = text.substr(0, lparen);
  if (fn == "COUNT") {
    spec.fn = AggFunc::kCount;
  } else if (fn == "SUM") {
    spec.fn = AggFunc::kSum;
  } else if (fn == "MIN") {
    spec.fn = AggFunc::kMin;
  } else if (fn == "MAX") {
    spec.fn = AggFunc::kMax;
  } else if (fn == "AVG") {
    spec.fn = AggFunc::kAvg;
  } else {
    return Status::InvalidArgument("unknown aggregate function: " + fn);
  }
  const std::string arg = text.substr(lparen + 1, rparen - lparen - 1);
  if (arg != "*") spec.input_column = arg;
  spec.output_name = text.substr(as + 4);
  return spec;
}

Result<PlanPtr> BuildNode(const std::vector<Line>& lines, size_t* index,
                          int expected_depth) {
  if (*index >= lines.size() || lines[*index].depth != expected_depth) {
    return Status::InvalidArgument(
        StrFormat("malformed plan tree near line %zu", *index));
  }
  const Line& line = lines[(*index)++];
  // Gather children (all following lines one level deeper).
  auto parse_children = [&](int count) -> Result<std::vector<PlanPtr>> {
    std::vector<PlanPtr> children;
    for (int c = 0; c < count; ++c) {
      DEEPSEA_ASSIGN_OR_RETURN(PlanPtr child,
                               BuildNode(lines, index, expected_depth + 1));
      children.push_back(std::move(child));
    }
    return children;
  };
  if (line.op == "SCAN") {
    if (line.rest.empty()) return Status::InvalidArgument("SCAN needs a table");
    return Scan(line.rest);
  }
  if (line.op == "SELECT" || line.op == "JOIN") {
    DEEPSEA_ASSIGN_OR_RETURN(ExprPtr predicate, ParseSqlExpression(line.rest));
    if (line.op == "SELECT") {
      DEEPSEA_ASSIGN_OR_RETURN(auto children, parse_children(1));
      return Select(children[0], std::move(predicate));
    }
    DEEPSEA_ASSIGN_OR_RETURN(auto children, parse_children(2));
    return Join(children[0], children[1], std::move(predicate));
  }
  if (line.op == "PROJECT") {
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const std::string& item : Split(line.rest, ';')) {
      std::string trimmed = item;
      while (!trimmed.empty() && trimmed.front() == ' ') trimmed.erase(0, 1);
      const size_t as = trimmed.rfind(" AS ");
      if (as == std::string::npos) {
        return Status::InvalidArgument("PROJECT item missing AS: " + item);
      }
      DEEPSEA_ASSIGN_OR_RETURN(ExprPtr e,
                               ParseSqlExpression(trimmed.substr(0, as)));
      exprs.push_back(std::move(e));
      names.push_back(trimmed.substr(as + 4));
    }
    DEEPSEA_ASSIGN_OR_RETURN(auto children, parse_children(1));
    return Project(children[0], std::move(exprs), std::move(names));
  }
  if (line.op == "SORT") {
    std::vector<SortKey> keys;
    for (const std::string& item : Split(line.rest, ';')) {
      std::string trimmed = item;
      while (!trimmed.empty() && trimmed.front() == ' ') trimmed.erase(0, 1);
      if (trimmed.empty()) continue;
      SortKey key;
      if (trimmed.size() > 4 && trimmed.substr(trimmed.size() - 4) == " ASC") {
        key.column = trimmed.substr(0, trimmed.size() - 4);
        key.ascending = true;
      } else if (trimmed.size() > 5 &&
                 trimmed.substr(trimmed.size() - 5) == " DESC") {
        key.column = trimmed.substr(0, trimmed.size() - 5);
        key.ascending = false;
      } else {
        return Status::InvalidArgument("malformed sort key: " + trimmed);
      }
      keys.push_back(std::move(key));
    }
    DEEPSEA_ASSIGN_OR_RETURN(auto children, parse_children(1));
    return Sort(children[0], std::move(keys));
  }
  if (line.op == "LIMIT") {
    DEEPSEA_ASSIGN_OR_RETURN(auto children, parse_children(1));
    return Limit(children[0], std::atoll(line.rest.c_str()));
  }
  if (line.op == "AGGREGATE") {
    // "by=a,b aggs=SPEC; SPEC"
    const size_t aggs_pos = line.rest.find(" aggs=");
    if (line.rest.rfind("by=", 0) != 0 || aggs_pos == std::string::npos) {
      return Status::InvalidArgument("malformed AGGREGATE: " + line.rest);
    }
    std::vector<std::string> group_by;
    const std::string by = line.rest.substr(3, aggs_pos - 3);
    if (!by.empty()) {
      for (const std::string& g : Split(by, ',')) group_by.push_back(g);
    }
    std::vector<AggregateSpec> aggs;
    for (const std::string& item : Split(line.rest.substr(aggs_pos + 6), ';')) {
      std::string trimmed = item;
      while (!trimmed.empty() && trimmed.front() == ' ') trimmed.erase(0, 1);
      if (trimmed.empty()) continue;
      DEEPSEA_ASSIGN_OR_RETURN(AggregateSpec spec, ParseAggSpec(trimmed));
      aggs.push_back(std::move(spec));
    }
    DEEPSEA_ASSIGN_OR_RETURN(auto children, parse_children(1));
    return Aggregate(children[0], std::move(group_by), std::move(aggs));
  }
  return Status::InvalidArgument("unknown plan operator: " + line.op);
}

}  // namespace

std::string SerializePlan(const PlanPtr& plan) {
  std::string out;
  SerializeNode(plan, 0, &out);
  return out;
}

Result<PlanPtr> DeserializePlan(const std::string& text) {
  DEEPSEA_ASSIGN_OR_RETURN(std::vector<Line> lines, ParseLines(text));
  size_t index = 0;
  DEEPSEA_ASSIGN_OR_RETURN(PlanPtr plan, BuildNode(lines, &index, 0));
  if (index != lines.size()) {
    return Status::InvalidArgument("trailing lines after plan root");
  }
  return plan;
}

}  // namespace deepsea
