#ifndef DEEPSEA_EXPR_EXPR_H_
#define DEEPSEA_EXPR_EXPR_H_

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

namespace deepsea {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Kinds of expression tree nodes.
enum class ExprKind {
  kColumnRef,
  kLiteral,
  kComparison,
  kLogical,
  kArithmetic,
};

/// Comparison operators.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Logical connectives. kNot is unary (only `left` set).
enum class LogicalOp { kAnd, kOr, kNot };

/// Arithmetic operators.
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpSymbol(CompareOp op);
const char* LogicalOpSymbol(LogicalOp op);
const char* ArithOpSymbol(ArithOp op);

/// Immutable scalar expression tree. Construct via the factory functions
/// below (Col, Lit, Cmp, ...). Expressions are shared (shared_ptr) and
/// never mutated after construction, so plans can alias subtrees freely.
class Expr {
 public:
  ExprKind kind() const { return kind_; }

  // --- kColumnRef ---
  const std::string& column_name() const { return column_name_; }

  // --- kLiteral ---
  const Value& literal() const { return literal_; }

  // --- kComparison / kLogical / kArithmetic ---
  CompareOp compare_op() const { return compare_op_; }
  LogicalOp logical_op() const { return logical_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }

  /// Evaluates the expression against `row` positionally described by
  /// `schema`. Column resolution failures and type errors surface as
  /// error Statuses (never exceptions).
  Result<Value> Eval(const Row& row, const Schema& schema) const;

  /// Canonical rendering used for signatures and residual-predicate
  /// comparison; stable across structurally equal expressions.
  std::string ToString() const;

  /// Collects the names of all columns referenced by this expression.
  void CollectColumns(std::vector<std::string>* out) const;

  // Node constructors are internal; use the factories below.
  struct PrivateTag {};
  explicit Expr(PrivateTag) {}

 private:
  friend ExprPtr Col(std::string name);
  friend ExprPtr Lit(Value v);
  friend ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  friend ExprPtr And(ExprPtr lhs, ExprPtr rhs);
  friend ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
  friend ExprPtr Not(ExprPtr operand);
  friend ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);

  /// ToString's body: appends the rendering to one buffer.
  void AppendTo(std::string* out) const;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string column_name_;
  Value literal_;
  CompareOp compare_op_ = CompareOp::kEq;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  ArithOp arith_op_ = ArithOp::kAdd;
  ExprPtr left_;
  ExprPtr right_;
};

/// Column reference by (possibly qualified) name.
ExprPtr Col(std::string name);
/// Literal constant.
ExprPtr Lit(Value v);
inline ExprPtr LitI(int64_t v) { return Lit(Value(v)); }
inline ExprPtr LitD(double v) { return Lit(Value(v)); }
inline ExprPtr LitS(std::string v) { return Lit(Value(std::move(v))); }
/// Binary comparison lhs OP rhs.
ExprPtr Cmp(CompareOp op, ExprPtr lhs, ExprPtr rhs);
/// Conjunction / disjunction / negation.
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Not(ExprPtr operand);
/// Binary arithmetic lhs OP rhs (numeric operands).
ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);

/// Convenience: conjunction of all expressions in `conjuncts`; nullptr
/// for an empty list.
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

/// Convenience: the range predicate lo <= col <= hi on a numeric column.
ExprPtr RangePredicate(const std::string& column, double lo, double hi);

/// Splits a predicate into its top-level AND conjuncts (flattening nested
/// ANDs). A null expr yields an empty list.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

/// A closed numeric bound constraint on one column extracted from
/// conjuncts of the form `col OP literal`. Missing bounds are +/-inf.
struct ColumnRange {
  std::string column;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_inclusive = true;
  bool hi_inclusive = true;

  std::string ToString() const;
};

/// Extraction result: per-column ranges plus the conjuncts that are not
/// simple single-column range constraints (the "residual" predicates in
/// Goldstein-Larson signature terms).
struct RangeExtraction {
  std::vector<ColumnRange> ranges;
  std::vector<ExprPtr> residuals;
  /// Conjuncts of the form colA = colB (join predicates / equivalence
  /// class edges), as (left column, right column) pairs.
  std::vector<std::pair<std::string, std::string>> column_equalities;
};

/// Intersects `range` with the constraint `column OP bound`, as
/// ExtractRanges applies each conjunct on the range's column. kNe is no
/// range constraint and leaves `range` as it is.
void TightenRange(ColumnRange* range, CompareOp op, double bound);

/// Analyzes the top-level conjuncts of `pred` and extracts single-column
/// numeric range constraints, column-equality pairs, and residuals.
/// Multiple constraints on the same column are intersected.
RangeExtraction ExtractRanges(const ExprPtr& pred);

}  // namespace deepsea

#endif  // DEEPSEA_EXPR_EXPR_H_
