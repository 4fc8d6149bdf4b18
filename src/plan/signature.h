#ifndef DEEPSEA_PLAN_SIGNATURE_H_
#define DEEPSEA_PLAN_SIGNATURE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "plan/plan.h"

namespace deepsea {

/// Goldstein-Larson-style query signature (paper Section 8.1): a mostly
/// syntax-independent abstraction of an SPJG plan used to test the
/// sufficient view-matching condition. Signatures abstract away join
/// order and selection placement: all range constraints, column
/// equivalences and residual predicates are pulled together regardless
/// of where they appear in the plan.
struct PlanSignature {
  /// Relation classes: sorted multiset of base-table names.
  std::vector<std::string> relations;

  /// Attribute equivalence classes induced by column-equality
  /// predicates; each class is a sorted set of qualified column names.
  std::vector<std::set<std::string>> equiv_classes;

  /// Per-column range constraints from `col OP literal` conjuncts
  /// (the signature's "attribute value ranges").
  std::map<std::string, ColumnRange> ranges;

  /// Canonical strings of conjuncts that are neither ranges nor column
  /// equalities ("remaining selection predicates").
  std::set<std::string> residuals;

  /// The actual expression trees behind `residuals`, kept so the
  /// rewriter can re-apply them as compensation. Not part of signature
  /// identity/canonical form.
  std::vector<ExprPtr> residual_exprs;

  /// Columns available in the plan output (qualified names).
  std::set<std::string> output_columns;

  /// Canonical "expr AS name" strings for computed projections.
  std::set<std::string> computed_outputs;

  /// Aggregation part. When has_aggregate, group_by is sorted and
  /// agg_specs holds canonical AggregateSpec strings.
  bool has_aggregate = false;
  std::vector<std::string> group_by;
  std::set<std::string> agg_specs;

  /// The equivalence class containing `column`, or a singleton.
  std::set<std::string> ClassOf(const std::string& column) const;

  /// Full canonical rendering; equal signatures compare equal strings.
  std::string ToString() const;

  bool operator==(const PlanSignature& other) const;
};

/// A signature with its canonical key (PlanSignature::ToString()),
/// shared read-only once built: the read footprint and the planning
/// delta hold the SignatureTable's object instead of a copy, and never
/// render the key again.
struct KeyedSignature {
  PlanSignature sig;
  std::string key;
};

/// The signatures of one query's subplans, each derived once (DESIGN.md
/// §9, "One signature per subplan per query"). Get derives a node's
/// signature on its first request, after its children's, starting from
/// theirs, and returns the same entry afterwards; the canonical key is
/// rendered on its first request. A QueryContext owns one over its
/// planning catalog: the matcher, both candidate passes and the
/// index-probe footprint read it.
///
/// Nodes are identified by address. The table keeps a reference to every
/// plan it saw, so no address is reused while it lives. Lookup scans the
/// entries: plans have tens of nodes.
class SignatureTable {
 public:
  class Entry {
   public:
    /// False when the subplan has no signature: a LIMIT and its
    /// ancestors, joins over aggregates, nested aggregates, plans over
    /// a ViewRef or over unknown tables. status() says why.
    bool ok() const { return keyed_ != nullptr; }
    const Status& status() const { return status_; }
    const PlanSignature& sig() const { return keyed_->sig; }
    /// The canonical key, rendered on the first call. Requires ok().
    const std::string& key() const;
    /// The signature with its key rendered, to share. Requires ok().
    std::shared_ptr<const KeyedSignature> keyed() const {
      key();
      return keyed_;
    }

   private:
    friend class SignatureTable;
    PlanPtr plan_;
    Status status_;
    std::shared_ptr<KeyedSignature> keyed_;
  };

  /// Tables are resolved against `catalog`, which must outlive every Get.
  explicit SignatureTable(const Catalog* catalog) : catalog_(catalog) {}
  SignatureTable(const SignatureTable&) = delete;
  SignatureTable& operator=(const SignatureTable&) = delete;

  /// The entry of `plan`. References stay valid while the table lives.
  const Entry& Get(const PlanPtr& plan);

 private:
  const Catalog* catalog_;
  std::deque<Entry> entries_;  ///< post-order; deque: stable references
};

/// The signature of an SPJG plan over base tables: a lookup of the root
/// in a fresh SignatureTable. Fails on the shapes
/// SignatureTable::Entry::ok() lists.
Result<PlanSignature> ComputeSignature(const PlanPtr& plan, const Catalog& catalog);

/// The interval a single-column range constraint admits.
Interval RangeInterval(const ColumnRange& range);

/// Condition 3 of SignatureSubsumes on one column the view constrains to
/// `view`: the query constrains the column too (`query`; nullopt where
/// it does not), within `view`. FilterTree's range level applies this
/// same test before the full check.
bool RangeAdmits(const Interval& view, const std::optional<Interval>& query);

/// Sufficient condition (Section 8.1): the view's result is a superset
/// of the subquery's and the difference is compensable by selections /
/// projections on the view output. Conditions checked:
///  1. equal relation classes,
///  2. every view equivalence class contained in a query class,
///  3. view range ⊇ query range per constrained column,
///  4. view residuals ⊆ query residuals,
///  5. aggregate parts equal when present (and compensating predicates
///     restricted to group-by columns),
///  6. view outputs ⊇ query outputs and compensation columns.
bool SignatureSubsumes(const PlanSignature& view_sig,
                       const PlanSignature& query_sig);

}  // namespace deepsea

#endif  // DEEPSEA_PLAN_SIGNATURE_H_
