#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/math_util.h"

namespace deepsea {

namespace {

/// Selectivity assumed for residual (non-range) predicates.
constexpr double kResidualSelectivity = 0.25;
/// Join output rows = max(l, r) * kJoinExpansion (PK-FK joins in the
/// BigBench-style workloads have expansion ~1).
constexpr double kJoinExpansion = 1.0;
/// Bytes per output row of an aggregation.
constexpr double kAggOutputRowBytes = 64.0;
/// Fallback group count when no NDV statistic exists: rows^exponent.
constexpr double kDefaultGroupExponent = 0.5;

// "table.column" -> "table"; empty when unqualified.
std::string_view TableOfColumn(std::string_view column) {
  const size_t pos = column.rfind('.');
  return pos == std::string_view::npos ? std::string_view()
                                       : column.substr(0, pos);
}

}  // namespace

double PlanCostEstimator::RangeFraction(const std::string& column,
                                        const Interval& iv) const {
  const std::string_view table_name = TableOfColumn(column);
  if (!table_name.empty()) {
    if (const Table* table = catalog_->Find(table_name)) {
      const AttributeHistogram* hist = table->GetHistogram(column);
      if (hist != nullptr && !hist->empty()) {
        return hist->FractionInRange(iv);
      }
      // Fall back to width ratio over the sample min/max domain.
      auto domain = table->SampleMinMax(column);
      if (domain.ok() && domain->Width() > 0.0) {
        return Clamp(iv.OverlapWidth(*domain) / domain->Width(), 0.0, 1.0);
      }
    }
  }
  return 0.1;
}

double PlanCostEstimator::ColumnNdv(const std::string& column,
                                    double fallback_rows) const {
  const std::string_view table_name = TableOfColumn(column);
  if (!table_name.empty()) {
    if (const Table* table = catalog_->Find(table_name)) {
      const double v = table->ndv(column);
      if (v > 0.0) return v;
    }
  }
  return std::pow(std::max(fallback_rows, 1.0), kDefaultGroupExponent);
}

double PlanCostEstimator::SelectivityOf(const RangeExtraction& conjuncts) const {
  double sel = 1.0;
  for (const ColumnRange& r : conjuncts.ranges) {
    const Interval iv(r.lo, r.hi, r.lo_inclusive, r.hi_inclusive);
    sel *= RangeFraction(r.column, iv);
  }
  for (size_t i = 0; i < conjuncts.residuals.size(); ++i) {
    sel *= kResidualSelectivity;
  }
  // Column equalities in a filter context behave like residuals.
  for (size_t i = 0; i < conjuncts.column_equalities.size(); ++i) {
    sel *= kResidualSelectivity;
  }
  return Clamp(sel, 0.0, 1.0);
}

void PlanCostEstimator::ApplySelection(double sel, PlanCost* cost) {
  cost->out_rows *= sel;
  cost->out_bytes = cost->out_rows * cost->avg_row_bytes;
}

Result<PlanCost> PlanCostEstimator::Estimate(const PlanPtr& plan) const {
  return EstimateNode(plan);
}

Result<PlanCost> PlanCostEstimator::EstimateViewRead(
    const std::string& view_name, const std::string& partition_attr,
    const std::vector<Interval>& fragments) const {
  DEEPSEA_ASSIGN_OR_RETURN(TablePtr view, catalog_->Get(view_name));
  PlanCost cost;
  cost.avg_row_bytes = view->avg_row_bytes();
  const double view_bytes = view->logical_bytes();
  const double view_rows = static_cast<double>(view->logical_row_count());
  std::vector<double> file_bytes;
  if (fragments.empty()) {
    file_bytes.push_back(view_bytes);
    cost.out_rows = view_rows;
  } else {
    const AttributeHistogram* hist = view->GetHistogram(partition_attr);
    double total_fraction = 0.0;
    for (const Interval& iv : fragments) {
      double fraction;
      if (hist != nullptr && !hist->empty()) {
        fraction = hist->FractionInRange(iv);
      } else {
        auto domain = view->SampleMinMax(partition_attr);
        fraction = (domain.ok() && domain->Width() > 0.0)
                       ? Clamp(iv.OverlapWidth(*domain) / domain->Width(),
                               0.0, 1.0)
                       : 1.0 / static_cast<double>(fragments.size());
      }
      file_bytes.push_back(fraction * view_bytes);
      total_fraction += fraction;
    }
    cost.out_rows = Clamp(total_fraction, 0.0, 1.0) * view_rows;
  }
  for (double b : file_bytes) cost.bytes_read += b;
  cost.out_bytes = cost.out_rows * cost.avg_row_bytes;
  cost.map_tasks = cluster_->MapTasksForFiles(file_bytes);
  cost.seconds = cluster_->MapPhaseSeconds(file_bytes);
  cost.out_columns = view->schema().num_columns();
  return cost;
}

Result<PlanCost> PlanCostEstimator::EstimateNode(
    const PlanPtr& plan, const Replacement* replacement) const {
  if (replacement != nullptr && plan.get() == replacement->target) {
    return replacement->cost;
  }
  switch (plan->kind()) {
    case PlanKind::kScan: {
      DEEPSEA_ASSIGN_OR_RETURN(TablePtr table, catalog_->Get(plan->table_name()));
      PlanCost cost;
      cost.out_rows = static_cast<double>(table->logical_row_count());
      cost.avg_row_bytes = table->avg_row_bytes();
      cost.out_bytes = table->logical_bytes();
      cost.bytes_read = cost.out_bytes;
      cost.map_tasks = cluster_->MapTasksForFiles({cost.out_bytes});
      cost.seconds = cluster_->MapPhaseSeconds({cost.out_bytes});
      cost.out_columns = table->schema().num_columns();
      return cost;
    }
    case PlanKind::kViewRef:
      return EstimateViewRead(plan->table_name(), plan->view_partition_attr(),
                              plan->view_fragments());
    case PlanKind::kSelect: {
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost cost,
                               EstimateNode(plan->child(0), replacement));
      ApplySelection(SelectivityOf(ExtractRanges(plan->predicate())), &cost);
      return cost;
    }
    case PlanKind::kProject: {
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost cost,
                               EstimateNode(plan->child(0), replacement));
      const double in_cols = std::max<size_t>(cost.out_columns, 1);
      const double out_cols = std::max<size_t>(plan->project_exprs().size(), 1);
      const double ratio = std::min(1.0, out_cols / in_cols);
      cost.avg_row_bytes *= ratio;
      cost.out_bytes = cost.out_rows * cost.avg_row_bytes;
      cost.out_columns = plan->project_exprs().size();
      return cost;
    }
    case PlanKind::kJoin: {
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost l,
                               EstimateNode(plan->child(0), replacement));
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost r,
                               EstimateNode(plan->child(1), replacement));
      PlanCost cost;
      cost.seconds = l.seconds + r.seconds;
      cost.map_tasks = l.map_tasks + r.map_tasks;
      cost.bytes_read = l.bytes_read + r.bytes_read;
      cost.bytes_shuffled = l.bytes_shuffled + r.bytes_shuffled;
      cost.bytes_written = l.bytes_written + r.bytes_written;
      cost.num_jobs = l.num_jobs + r.num_jobs + 1;
      cost.out_rows = std::max(l.out_rows, r.out_rows) * kJoinExpansion;
      // Range/residual parts of the join condition filter the output.
      const RangeExtraction ex = ExtractRanges(plan->predicate());
      double sel = 1.0;
      for (const ColumnRange& rr : ex.ranges) {
        const Interval iv(rr.lo, rr.hi, rr.lo_inclusive, rr.hi_inclusive);
        sel *= RangeFraction(rr.column, iv);
      }
      for (size_t i = 0; i < ex.residuals.size(); ++i) {
        sel *= kResidualSelectivity;
      }
      cost.out_rows *= Clamp(sel, 0.0, 1.0);
      cost.avg_row_bytes = l.avg_row_bytes + r.avg_row_bytes;
      cost.out_bytes = cost.out_rows * cost.avg_row_bytes;
      // Shuffle both inputs, reduce-side join, temp-write the output.
      const double shuffle_bytes = l.out_bytes + r.out_bytes;
      cost.bytes_shuffled += shuffle_bytes;
      cost.bytes_written += cost.out_bytes;
      cost.seconds += cluster_->config().job_startup_seconds +
                      cluster_->ShuffleSeconds(shuffle_bytes) +
                      cluster_->TempWriteSeconds(cost.out_bytes);
      cost.out_columns = l.out_columns + r.out_columns;
      return cost;
    }
    case PlanKind::kSort: {
      // A sort is an MR job: shuffle the input by key range.
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost cost,
                               EstimateNode(plan->child(0), replacement));
      cost.num_jobs += 1;
      cost.bytes_shuffled += cost.out_bytes;
      cost.seconds += cluster_->config().job_startup_seconds +
                      cluster_->ShuffleSeconds(cost.out_bytes);
      return cost;
    }
    case PlanKind::kLimit: {
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost cost,
                               EstimateNode(plan->child(0), replacement));
      cost.out_rows = std::min(cost.out_rows,
                               static_cast<double>(plan->limit()));
      cost.out_bytes = cost.out_rows * cost.avg_row_bytes;
      return cost;
    }
    case PlanKind::kAggregate: {
      DEEPSEA_ASSIGN_OR_RETURN(PlanCost in,
                               EstimateNode(plan->child(0), replacement));
      PlanCost cost = in;
      cost.num_jobs += 1;
      double groups = 1.0;
      for (const std::string& g : plan->group_by()) {
        groups *= ColumnNdv(g, in.out_rows);
      }
      groups = std::min(groups, std::max(in.out_rows, 1.0));
      cost.out_rows = plan->group_by().empty() ? 1.0 : groups;
      cost.avg_row_bytes = kAggOutputRowBytes;
      cost.out_bytes = cost.out_rows * cost.avg_row_bytes;
      cost.bytes_shuffled += in.out_bytes;
      cost.bytes_written += cost.out_bytes;
      cost.seconds += cluster_->config().job_startup_seconds +
                      cluster_->ShuffleSeconds(in.out_bytes) +
                      cluster_->TempWriteSeconds(cost.out_bytes);
      cost.out_columns = plan->group_by().size() + plan->aggregates().size();
      return cost;
    }
  }
  return Status::Internal("bad plan kind");
}

}  // namespace deepsea
