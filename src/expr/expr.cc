#include "expr/expr.h"

#include <algorithm>

#include "common/str_util.h"

namespace deepsea {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* LogicalOpSymbol(LogicalOp op) {
  switch (op) {
    case LogicalOp::kAnd:
      return "AND";
    case LogicalOp::kOr:
      return "OR";
    case LogicalOp::kNot:
      return "NOT";
  }
  return "?";
}

const char* ArithOpSymbol(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

ExprPtr Col(std::string name) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kColumnRef;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Lit(Value v) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kComparison;
  e->compare_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kAnd;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kOr;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr Not(ExprPtr operand) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kLogical;
  e->logical_op_ = LogicalOp::kNot;
  e->left_ = std::move(operand);
  return e;
}

ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>(Expr::PrivateTag{});
  e->kind_ = ExprKind::kArithmetic;
  e->arith_op_ = op;
  e->left_ = std::move(lhs);
  e->right_ = std::move(rhs);
  return e;
}

ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts) {
  ExprPtr acc;
  for (const auto& c : conjuncts) {
    if (!c) continue;
    acc = acc ? And(acc, c) : c;
  }
  return acc;
}

ExprPtr RangePredicate(const std::string& column, double lo, double hi) {
  return And(Cmp(CompareOp::kGe, Col(column), LitD(lo)),
             Cmp(CompareOp::kLe, Col(column), LitD(hi)));
}

Result<Value> Expr::Eval(const Row& row, const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kColumnRef: {
      const auto idx = schema.FindColumn(column_name_);
      if (!idx.has_value()) {
        return Status::NotFound("column not in schema: " + column_name_);
      }
      if (*idx >= row.size()) {
        return Status::Internal("row narrower than schema");
      }
      return row[*idx];
    }
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kComparison: {
      DEEPSEA_ASSIGN_OR_RETURN(Value l, left_->Eval(row, schema));
      DEEPSEA_ASSIGN_OR_RETURN(Value r, right_->Eval(row, schema));
      if (l.is_null() || r.is_null()) return Value(false);  // SQL-ish: null fails
      const int c = l.Compare(r);
      switch (compare_op_) {
        case CompareOp::kEq:
          return Value(c == 0);
        case CompareOp::kNe:
          return Value(c != 0);
        case CompareOp::kLt:
          return Value(c < 0);
        case CompareOp::kLe:
          return Value(c <= 0);
        case CompareOp::kGt:
          return Value(c > 0);
        case CompareOp::kGe:
          return Value(c >= 0);
      }
      return Status::Internal("bad compare op");
    }
    case ExprKind::kLogical: {
      DEEPSEA_ASSIGN_OR_RETURN(Value l, left_->Eval(row, schema));
      if (!l.is_bool()) return Status::InvalidArgument("logical operand not bool");
      if (logical_op_ == LogicalOp::kNot) return Value(!l.AsBool());
      // Short-circuit.
      if (logical_op_ == LogicalOp::kAnd && !l.AsBool()) return Value(false);
      if (logical_op_ == LogicalOp::kOr && l.AsBool()) return Value(true);
      DEEPSEA_ASSIGN_OR_RETURN(Value r, right_->Eval(row, schema));
      if (!r.is_bool()) return Status::InvalidArgument("logical operand not bool");
      return Value(r.AsBool());
    }
    case ExprKind::kArithmetic: {
      DEEPSEA_ASSIGN_OR_RETURN(Value l, left_->Eval(row, schema));
      DEEPSEA_ASSIGN_OR_RETURN(Value r, right_->Eval(row, schema));
      if (l.is_null() || r.is_null()) return Value::Null();
      if (!l.is_numeric() || !r.is_numeric()) {
        return Status::InvalidArgument("arithmetic on non-numeric operands");
      }
      // Integer arithmetic stays integral except division.
      if (l.is_int64() && r.is_int64() && arith_op_ != ArithOp::kDiv) {
        const int64_t a = l.AsInt64();
        const int64_t b = r.AsInt64();
        switch (arith_op_) {
          case ArithOp::kAdd:
            return Value(a + b);
          case ArithOp::kSub:
            return Value(a - b);
          case ArithOp::kMul:
            return Value(a * b);
          default:
            break;
        }
      }
      const double a = l.AsNumeric();
      const double b = r.AsNumeric();
      switch (arith_op_) {
        case ArithOp::kAdd:
          return Value(a + b);
        case ArithOp::kSub:
          return Value(a - b);
        case ArithOp::kMul:
          return Value(a * b);
        case ArithOp::kDiv:
          if (b == 0.0) return Value::Null();
          return Value(a / b);
      }
      return Status::Internal("bad arith op");
    }
  }
  return Status::Internal("bad expr kind");
}

std::string Expr::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Expr::AppendTo(std::string* out) const {
  // "(left op right)"
  auto binary = [&](const char* op) {
    out->push_back('(');
    left_->AppendTo(out);
    out->push_back(' ');
    out->append(op);
    out->push_back(' ');
    right_->AppendTo(out);
    out->push_back(')');
  };
  switch (kind_) {
    case ExprKind::kColumnRef:
      out->append(column_name_);
      return;
    case ExprKind::kLiteral:
      out->append(literal_.ToString());
      return;
    case ExprKind::kComparison:
      binary(CompareOpSymbol(compare_op_));
      return;
    case ExprKind::kLogical:
      if (logical_op_ == LogicalOp::kNot) {
        out->append("(NOT ");
        left_->AppendTo(out);
        out->push_back(')');
        return;
      }
      binary(LogicalOpSymbol(logical_op_));
      return;
    case ExprKind::kArithmetic:
      binary(ArithOpSymbol(arith_op_));
      return;
  }
  out->push_back('?');
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    out->push_back(column_name_);
    return;
  }
  if (left_) left_->CollectColumns(out);
  if (right_) right_->CollectColumns(out);
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (!pred) return out;
  if (pred->kind() == ExprKind::kLogical && pred->logical_op() == LogicalOp::kAnd) {
    auto l = SplitConjuncts(pred->left());
    auto r = SplitConjuncts(pred->right());
    out.insert(out.end(), l.begin(), l.end());
    out.insert(out.end(), r.begin(), r.end());
    return out;
  }
  out.push_back(pred);
  return out;
}

std::string ColumnRange::ToString() const {
  return StrFormat("%s%s%.6g, %.6g%s on %s", lo_inclusive ? "[" : "(",
                   "", lo, hi, hi_inclusive ? "]" : ")", column.c_str());
}

namespace {

// Returns true and fills (column, op, bound) when `e` is `col OP lit` or
// `lit OP col` with numeric literal (flipping the operator for the latter).
bool MatchColumnLiteralCompare(const ExprPtr& e, std::string* column,
                               CompareOp* op, double* bound) {
  if (e->kind() != ExprKind::kComparison) return false;
  const ExprPtr& l = e->left();
  const ExprPtr& r = e->right();
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral &&
      r->literal().is_numeric()) {
    *column = l->column_name();
    *op = e->compare_op();
    *bound = r->literal().AsNumeric();
    return true;
  }
  if (r->kind() == ExprKind::kColumnRef && l->kind() == ExprKind::kLiteral &&
      l->literal().is_numeric()) {
    *column = r->column_name();
    *bound = l->literal().AsNumeric();
    switch (e->compare_op()) {
      case CompareOp::kLt:
        *op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        *op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        *op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        *op = CompareOp::kLe;
        break;
      default:
        *op = e->compare_op();
        break;
    }
    return true;
  }
  return false;
}

}  // namespace

void TightenRange(ColumnRange* range, CompareOp op, double bound) {
  switch (op) {
    case CompareOp::kEq:
      if (bound > range->lo || (bound == range->lo && !range->lo_inclusive)) {
        range->lo = bound;
        range->lo_inclusive = true;
      }
      if (bound < range->hi || (bound == range->hi && !range->hi_inclusive)) {
        range->hi = bound;
        range->hi_inclusive = true;
      }
      break;
    case CompareOp::kLt:
      if (bound < range->hi || (bound == range->hi && range->hi_inclusive)) {
        range->hi = bound;
        range->hi_inclusive = false;
      }
      break;
    case CompareOp::kLe:
      if (bound < range->hi) {
        range->hi = bound;
        range->hi_inclusive = true;
      }
      break;
    case CompareOp::kGt:
      if (bound > range->lo || (bound == range->lo && range->lo_inclusive)) {
        range->lo = bound;
        range->lo_inclusive = false;
      }
      break;
    case CompareOp::kGe:
      if (bound > range->lo) {
        range->lo = bound;
        range->lo_inclusive = true;
      }
      break;
    case CompareOp::kNe:
      break;  // not a range constraint; caller treats as residual
  }
}

RangeExtraction ExtractRanges(const ExprPtr& pred) {
  RangeExtraction out;
  for (const ExprPtr& conj : SplitConjuncts(pred)) {
    std::string column;
    CompareOp op;
    double bound;
    if (MatchColumnLiteralCompare(conj, &column, &op, &bound) &&
        op != CompareOp::kNe) {
      auto it = std::find_if(out.ranges.begin(), out.ranges.end(),
                             [&](const ColumnRange& r) { return r.column == column; });
      if (it == out.ranges.end()) {
        out.ranges.push_back(ColumnRange{column});
        it = std::prev(out.ranges.end());
      }
      TightenRange(&*it, op, bound);
      continue;
    }
    // Column equality (equi-join edge): colA = colB.
    if (conj->kind() == ExprKind::kComparison &&
        conj->compare_op() == CompareOp::kEq &&
        conj->left()->kind() == ExprKind::kColumnRef &&
        conj->right()->kind() == ExprKind::kColumnRef) {
      out.column_equalities.emplace_back(conj->left()->column_name(),
                                         conj->right()->column_name());
      continue;
    }
    out.residuals.push_back(conj);
  }
  return out;
}

}  // namespace deepsea
