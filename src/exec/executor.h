#ifndef DEEPSEA_EXEC_EXECUTOR_H_
#define DEEPSEA_EXEC_EXECUTOR_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/table.h"
#include "common/result.h"
#include "core/interval.h"
#include "plan/plan.h"

namespace deepsea {

/// The materialized output of a plan (or subplan): schema plus rows.
struct ExecResult {
  Schema schema;
  std::vector<Row> rows;
};

/// Tuple-at-a-time recursive executor over the physical sample data in a
/// Catalog. Deliberately simple and fully materializing: DeepSea's
/// contributions live in *what* gets materialized and partitioned, not
/// in operator micro-efficiency, and the simulated cluster cost model —
/// not wall-clock of this executor — provides experiment timings.
///
/// The executor doubles as the paper's "instrumented query" mechanism
/// (Section 5, Algorithm 1 line 7): callers can register subplans to
/// capture, and their intermediate outputs are retained for view
/// materialization (the Hive partition-operator + file-sink pipeline of
/// Section 9 corresponds to PartitionRows below).
class Executor {
 public:
  explicit Executor(const Catalog* catalog) : catalog_(catalog) {}

  /// Marks a subplan (by node identity) whose intermediate result should
  /// be captured during the next Execute call.
  void CaptureSubplan(const PlanNode* node) { capture_.insert(node); }

  /// Executes the plan, returning its full result. Captured subplan
  /// outputs are available from captured() afterwards.
  Result<ExecResult> Execute(const PlanPtr& plan);

  /// Intermediate results captured during the last Execute.
  const std::map<const PlanNode*, ExecResult>& captured() const {
    return captured_;
  }

 private:
  Result<ExecResult> ExecNode(const PlanPtr& plan);
  Result<ExecResult> ExecScan(const PlanPtr& plan);
  Result<ExecResult> ExecViewRef(const PlanPtr& plan);
  Result<ExecResult> ExecSelect(const PlanPtr& plan);
  Result<ExecResult> ExecProject(const PlanPtr& plan);
  Result<ExecResult> ExecJoin(const PlanPtr& plan);
  Result<ExecResult> ExecAggregate(const PlanPtr& plan);
  Result<ExecResult> ExecSort(const PlanPtr& plan);
  Result<ExecResult> ExecLimit(const PlanPtr& plan);

  const Catalog* catalog_;
  std::set<const PlanNode*> capture_;
  std::map<const PlanNode*, ExecResult> captured_;
};

/// Splits `input` rows into one bucket per interval based on the numeric
/// value of `partition_attr` (the paper's partition operator, Section
/// 9). A row lands in *every* interval containing its key, so the same
/// routine serves horizontal and overlapping partitionings. Rows whose
/// key is NULL or outside all intervals are dropped (they would form the
/// implicit remainder fragment; DeepSea always keeps fragmentations
/// covering the domain so this only happens for malformed input).
Result<std::vector<std::vector<Row>>> PartitionRows(
    const ExecResult& input, const std::string& partition_attr,
    const std::vector<Interval>& intervals);

}  // namespace deepsea

#endif  // DEEPSEA_EXEC_EXECUTOR_H_
