#include "catalog/table.h"

#include <limits>

namespace deepsea {

const AttributeHistogram* Table::GetHistogram(const std::string& column) const {
  auto it = histograms_.find(column);
  if (it != histograms_.end()) return &it->second;
  // Also try resolving the short name against the schema so callers can
  // use unqualified names.
  const auto idx = schema_.FindColumn(column);
  if (idx.has_value()) {
    it = histograms_.find(schema_.column(*idx).name);
    if (it != histograms_.end()) return &it->second;
  }
  return nullptr;
}

void Table::SetHistogram(const std::string& column, AttributeHistogram hist) {
  const auto idx = schema_.FindColumn(column);
  const std::string key = idx.has_value() ? schema_.column(*idx).name : column;
  histograms_.insert_or_assign(key, std::move(hist));
}

Status Table::BuildHistogram(const std::string& column, int num_bins) {
  DEEPSEA_ASSIGN_OR_RETURN(Interval domain, SampleMinMax(column));
  if (domain.Width() <= 0.0) {
    domain = Interval(domain.lo - 0.5, domain.hi + 0.5);
  }
  const auto idx = schema_.FindColumn(column);
  AttributeHistogram hist(domain, num_bins);
  for (const Row& row : rows_) {
    const Value& v = row[*idx];
    if (v.is_numeric()) hist.Add(v.AsNumeric());
  }
  if (logical_row_count_ > 0 && hist.total_count() > 0.0) {
    hist.NormalizeTo(static_cast<double>(logical_row_count_));
  }
  SetHistogram(column, std::move(hist));
  return Status::OK();
}

Result<Interval> Table::SampleMinMax(const std::string& column) const {
  const auto idx = schema_.FindColumn(column);
  if (!idx.has_value()) {
    return Status::NotFound("column not in table " + name_ + ": " + column);
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (const Row& row : rows_) {
    const Value& v = row[*idx];
    if (!v.is_numeric()) continue;
    const double x = v.AsNumeric();
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    any = true;
  }
  if (!any) {
    return Status::InvalidArgument("no numeric values in column " + column);
  }
  return Interval(lo, hi);
}

double Table::ndv(const std::string& column) const {
  auto it = ndv_.find(column);
  if (it != ndv_.end()) return it->second;
  const auto idx = schema_.FindColumn(column);
  if (idx.has_value()) {
    it = ndv_.find(schema_.column(*idx).name);
    if (it != ndv_.end()) return it->second;
  }
  return 0.0;
}

void Table::set_ndv(const std::string& column, double v) {
  const auto idx = schema_.FindColumn(column);
  const std::string key = idx.has_value() ? schema_.column(*idx).name : column;
  ndv_[key] = v;
}

Status Catalog::Register(TablePtr table) {
  if (Contains(table->name())) {
    return Status::AlreadyExists("table exists: " + table->name());
  }
  tables_.emplace(table->name(), std::move(table));
  return Status::OK();
}

void Catalog::Put(TablePtr table) {
  tables_.insert_or_assign(table->name(), std::move(table));
}

Result<TablePtr> Catalog::Get(const std::string& name) const {
  auto it = tables_.find(name);
  if (it != tables_.end()) return it->second;
  if (parent_ != nullptr) return parent_->Get(name);
  return Status::NotFound("no such table: " + name);
}

const Table* Catalog::Find(std::string_view name) const {
  for (const Catalog* c = this; c != nullptr; c = c->parent_) {
    auto it = c->tables_.find(name);
    if (it != c->tables_.end()) return it->second.get();
  }
  return nullptr;
}

Status Catalog::Drop(const std::string& name) {
  if (tables_.erase(name) == 0) return Status::NotFound("no such table: " + name);
  return Status::OK();
}

Catalog::TableMap Catalog::VisibleTables() const {
  if (parent_ == nullptr) return tables_;
  TableMap out = parent_->VisibleTables();
  for (const auto& [name, t] : tables_) out.insert_or_assign(name, t);
  return out;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : VisibleTables()) out.push_back(name);
  return out;
}

double Catalog::TotalLogicalBytes() const {
  double total = 0.0;
  for (const auto& [_, t] : VisibleTables()) total += t->logical_bytes();
  return total;
}

}  // namespace deepsea
