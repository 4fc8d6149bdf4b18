#include "exp/experiment.h"

#include <cstdio>

#include "common/str_util.h"

namespace deepsea {

Result<RunResult> ExperimentRunner::Run(const StrategySpec& strategy,
                                        const std::vector<WorkloadQuery>& workload,
                                        EngineObserver* observer) const {
  Catalog catalog;
  DEEPSEA_RETURN_IF_ERROR(BigBenchDataset::Generate(data_options_, &catalog));
  DeepSeaEngine engine(&catalog, strategy.options);
  if (observer != nullptr) engine.set_observer(observer);

  RunResult out;
  out.label = strategy.label;
  out.per_query_seconds.reserve(workload.size());
  out.per_query_map_tasks.reserve(workload.size());
  out.cumulative_seconds.reserve(workload.size() + 1);
  out.cumulative_seconds.push_back(0.0);
  for (const WorkloadQuery& wq : workload) {
    DEEPSEA_ASSIGN_OR_RETURN(
        PlanPtr plan,
        BigBenchTemplates::Build(wq.template_name, wq.range.lo, wq.range.hi));
    DEEPSEA_ASSIGN_OR_RETURN(QueryReport report, engine.ProcessQuery(plan));
    out.total_seconds += report.total_seconds;
    out.base_total_seconds += report.base_seconds;
    out.per_query_seconds.push_back(report.total_seconds);
    out.per_query_map_tasks.push_back(report.map_tasks);
    out.cumulative_seconds.push_back(out.total_seconds);
  }
  out.totals = engine.totals();
  out.final_pool_bytes = engine.PoolBytes();
  return out;
}

Result<double> ExperimentRunner::BaseTableBytes() const {
  Catalog catalog;
  DEEPSEA_RETURN_IF_ERROR(BigBenchDataset::Generate(data_options_, &catalog));
  return catalog.TotalLogicalBytes();
}

void TablePrinter::Header(const std::vector<std::string>& cols) const {
  Row(cols);
  std::string sep;
  for (size_t i = 0; i < cols.size(); ++i) {
    sep += std::string(static_cast<size_t>(width_), '-');
    if (i + 1 < cols.size()) sep += "-+-";
  }
  std::printf("%s\n", sep.c_str());
}

void TablePrinter::Row(const std::vector<std::string>& cells) const {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    line += StrFormat("%*s", width_, cells[i].c_str());
    if (i + 1 < cells.size()) line += " | ";
  }
  std::printf("%s\n", line.c_str());
}

std::string FmtSeconds(double s) { return StrFormat("%.0f", s); }

std::string FmtRatio(double r) { return StrFormat("%.2f", r); }

}  // namespace deepsea
