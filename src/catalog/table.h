#ifndef DEEPSEA_CATALOG_TABLE_H_
#define DEEPSEA_CATALOG_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/histogram.h"
#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

namespace deepsea {

/// A base table or materialized intermediate result.
///
/// Tables separate two scales (see DESIGN.md "Engine scale vs cost
/// scale"): the *physical sample* (`rows()`) drives executor correctness
/// at laptop scale, while `logical_row_count()` / `logical_bytes()`
/// describe the full-size dataset (e.g. 500 GB BigBench) and drive the
/// cluster cost model. Generators keep the two consistent: the sample is
/// drawn from the same distribution whose total mass equals the logical
/// row count.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Renames the table in place. Only for tables not yet registered in
  /// a shared Catalog (the map key would go stale): PlanningDelta::Fold
  /// uses it to replace a reserved placeholder view id with the final
  /// catalog-assigned id on deferred view tables, immediately before
  /// the deferred Catalog::Put.
  void Rename(std::string name) { name_ = std::move(name); }

  // --- physical sample ---
  const std::vector<Row>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }
  void AddRow(Row row) { rows_.push_back(std::move(row)); }
  void ReserveRows(size_t n) { rows_.reserve(n); }

  // --- logical (cost-model) scale ---
  uint64_t logical_row_count() const { return logical_row_count_; }
  void set_logical_row_count(uint64_t n) { logical_row_count_ = n; }
  double avg_row_bytes() const { return avg_row_bytes_; }
  void set_avg_row_bytes(double b) { avg_row_bytes_ = b; }
  double logical_bytes() const {
    return static_cast<double>(logical_row_count_) * avg_row_bytes_;
  }

  // --- statistics ---
  /// Histogram of a numeric column's value distribution, used for
  /// selectivity and fragment-size estimation. Returns nullptr when no
  /// histogram was attached/built for the column.
  const AttributeHistogram* GetHistogram(const std::string& column) const;
  void SetHistogram(const std::string& column, AttributeHistogram hist);

  /// Builds an equi-width histogram with `num_bins` bins from the
  /// physical sample of numeric column `column`, scaled so that total
  /// mass equals the logical row count. Fails when the column is absent
  /// or non-numeric across sampled rows.
  Status BuildHistogram(const std::string& column, int num_bins);

  /// Min/max over the physical sample of a numeric column.
  Result<Interval> SampleMinMax(const std::string& column) const;

  /// Number of distinct values of a column at logical scale (set by
  /// generators; used for group-by cardinality estimation). Returns 0
  /// when unknown.
  double ndv(const std::string& column) const;
  void set_ndv(const std::string& column, double v);

 private:
  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  uint64_t logical_row_count_ = 0;
  double avg_row_bytes_ = 100.0;
  std::map<std::string, AttributeHistogram> histograms_;
  std::map<std::string, double> ndv_;
};

using TablePtr = std::shared_ptr<Table>;

/// Name -> table registry shared by the planner, executor and DeepSea
/// core.
///
/// No internal locking. A catalog shared by a pool's engines is written
/// only inside a commit section: under the pool's exclusive (X) commit
/// lock, or by a sharded commit's delta fold with the pool's catalog
/// mutex held exclusively (PoolManager::FoldDeltaAndRemap). It is read
/// under the pool's shared lock (planning), under the catalog mutex in
/// shared mode (a sharded commit's apply and estimates), or under X. A
/// catalog private to one thread (tests, examples, a PlanningDelta's
/// planning overlay) needs no lock of its own.
class Catalog {
 public:
  Catalog() = default;

  /// A read-through overlay of `parent`: Get and Contains fall back to
  /// the parent, Put and Drop stay local, so a local Put shadows a
  /// parent table and the parent never changes through the overlay.
  /// The overlay holds no lock: reading through it reads the parent,
  /// which is legal only where the parent's locking rule (above) allows
  /// a read. For a PlanningDelta's planning catalog that is while the
  /// planner holds PoolManager::SharedLock(), or inside
  /// PlanningDelta::Fold.
  explicit Catalog(const Catalog* parent) : parent_(parent) {}

  /// Registers a table; fails with AlreadyExists on name collision
  /// (including with a parent's table).
  Status Register(TablePtr table);

  /// Replaces or inserts a table unconditionally (used for materialized
  /// view sample tables, which may be refreshed).
  void Put(TablePtr table);

  /// Fails with NotFound when absent (locally and in the parent).
  Result<TablePtr> Get(const std::string& name) const;

  /// The table named `name`, or nullptr when absent (locally and in the
  /// parent): Get without allocating or sharing ownership, for hot
  /// readers (the cost estimator's per-column statistics). The pointer
  /// is valid while the table stays registered, under the same locking
  /// rule as Get.
  const Table* Find(std::string_view name) const;

  bool Contains(const std::string& name) const {
    return tables_.count(name) > 0 ||
           (parent_ != nullptr && parent_->Contains(name));
  }

  /// Removes a local table; fails with NotFound when the name is not
  /// local. A parent's table is never removed (nor hidden).
  Status Drop(const std::string& name);

  /// Every visible name, sorted: local tables plus the parent's.
  std::vector<std::string> TableNames() const;

  /// Total logical bytes across all visible tables (a local table
  /// counts instead of the parent table it shadows).
  double TotalLogicalBytes() const;

 private:
  /// Transparent, so Find looks a std::string_view up without a copy.
  using TableMap = std::map<std::string, TablePtr, std::less<>>;

  /// Every visible table by name, local entries shadowing the parent's.
  TableMap VisibleTables() const;

  const Catalog* parent_ = nullptr;
  TableMap tables_;
};

}  // namespace deepsea

#endif  // DEEPSEA_CATALOG_TABLE_H_
