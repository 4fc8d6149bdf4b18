#include "core/view_catalog.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "common/str_util.h"

namespace deepsea {

std::vector<uint32_t>::const_iterator PartitionState::LowerBound(
    const Interval& iv) const {
  return std::lower_bound(by_interval_.begin(), by_interval_.end(), iv,
                          [this](uint32_t pos, const Interval& key) {
                            return IntervalLess(fragments_[pos].interval, key);
                          });
}

const FragmentStats* PartitionState::Find(const Interval& iv) const {
  // IntervalLess orders NaN-free intervals strictly, and two intervals
  // are equivalent under it exactly when they compare ==.
  const auto it = LowerBound(iv);
  if (it == by_interval_.end() || fragments_[*it].interval != iv) {
    return nullptr;
  }
  return &fragments_[*it];
}

FragmentStats* PartitionState::Find(const Interval& iv) {
  return const_cast<FragmentStats*>(std::as_const(*this).Find(iv));
}

std::pair<FragmentStats*, bool> PartitionState::Track(const Interval& iv,
                                                      double est_size_bytes) {
  assert(!std::isnan(iv.lo) && !std::isnan(iv.hi) &&
         "NaN endpoints have no place in the interval order");
  const auto it = LowerBound(iv);
  if (it != by_interval_.end() && fragments_[*it].interval == iv) {
    return {&fragments_[*it], false};
  }
  by_interval_.insert(it, static_cast<uint32_t>(fragments_.size()));
  FragmentStats f;
  f.interval = iv;
  f.size_bytes = est_size_bytes;
  fragments_.push_back(std::move(f));
  return {&fragments_.back(), true};
}

PartitionState PartitionState::CopyWithoutHits() const {
  PartitionState copy;
  copy.attr = attr;
  copy.domain = domain;
  copy.pending = pending;
  copy.fragments_.reserve(fragments_.size());
  for (const FragmentStats& f : fragments_) {
    FragmentStats stats;
    stats.interval = f.interval;
    stats.size_bytes = f.size_bytes;
    stats.materialized = f.materialized;
    copy.fragments_.push_back(std::move(stats));
  }
  copy.by_interval_ = by_interval_;
  return copy;
}

std::vector<Interval> PartitionState::MaterializedIntervals() const {
  std::vector<Interval> out;
  for (const FragmentStats& f : fragments_) {
    if (f.materialized) out.push_back(f.interval);
  }
  return out;
}

std::vector<Interval> PartitionState::TrackedIntervals() const {
  std::vector<Interval> out;
  out.reserve(fragments_.size());
  for (const FragmentStats& f : fragments_) out.push_back(f.interval);
  return out;
}

double PartitionState::MaterializedBytes() const {
  double total = 0.0;
  for (const FragmentStats& f : fragments_) {
    if (f.materialized) total += f.size_bytes;
  }
  return total;
}

bool PartitionState::AnyMaterialized() const {
  for (const FragmentStats& f : fragments_) {
    if (f.materialized) return true;
  }
  return false;
}

bool ViewInfo::InPool() const {
  if (whole_materialized) return true;
  for (const auto& [_, p] : partitions) {
    if (p.AnyMaterialized()) return true;
  }
  return false;
}

double ViewInfo::MaterializedBytes() const {
  double total = whole_materialized ? stats.size_bytes : 0.0;
  for (const auto& [_, p] : partitions) total += p.MaterializedBytes();
  return total;
}

PartitionState* ViewInfo::GetPartition(const std::string& attr) {
  auto it = partitions.find(attr);
  return it == partitions.end() ? nullptr : &it->second;
}

const PartitionState* ViewInfo::GetPartition(const std::string& attr) const {
  auto it = partitions.find(attr);
  return it == partitions.end() ? nullptr : &it->second;
}

PartitionState* ViewInfo::EnsurePartition(const std::string& attr,
                                          const Interval& domain) {
  auto it = partitions.find(attr);
  if (it != partitions.end()) return &it->second;
  PartitionState p;
  p.attr = attr;
  p.domain = domain;
  auto [inserted, _] = partitions.emplace(attr, std::move(p));
  return &inserted->second;
}

ViewInfo* ViewCatalog::Track(const PlanPtr& plan, const PlanSignature& signature) {
  const std::string canonical = signature.ToString();
  auto it = by_signature_.find(canonical);
  if (it != by_signature_.end()) return it->second;
  auto view = std::make_unique<ViewInfo>();
  view->id = StrFormat("v%d", next_id_++);
  view->plan = plan;
  view->signature = signature;
  view->track_index = views_.size();
  ViewInfo* raw = view.get();
  views_.push_back(std::move(view));
  by_signature_.emplace(canonical, raw);
  by_id_.emplace(raw->id, raw);
  return raw;
}

ViewInfo* ViewCatalog::Adopt(std::unique_ptr<ViewInfo> view,
                             const std::string& canonical) {
  assert(view->id == StrFormat("v%d", next_id_) &&
         "adopted view id must match the id Track() would assign");
  ++next_id_;
  view->track_index = views_.size();
  ViewInfo* raw = view.get();
  views_.push_back(std::move(view));
  by_signature_.emplace(canonical, raw);
  by_id_.emplace(raw->id, raw);
  return raw;
}

ViewInfo* ViewCatalog::FindBySignature(const std::string& canonical) {
  auto it = by_signature_.find(canonical);
  return it == by_signature_.end() ? nullptr : it->second;
}

ViewInfo* ViewCatalog::Get(const std::string& id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

const ViewInfo* ViewCatalog::Get(const std::string& id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

std::vector<ViewInfo*> ViewCatalog::AllViews() {
  std::vector<ViewInfo*> out;
  out.reserve(views_.size());
  for (auto& v : views_) out.push_back(v.get());
  return out;
}

std::vector<const ViewInfo*> ViewCatalog::AllViews() const {
  std::vector<const ViewInfo*> out;
  out.reserve(views_.size());
  for (const auto& v : views_) out.push_back(v.get());
  return out;
}

void ViewCatalog::RefreshPoolContent(ViewInfo* view) {
  const bool in_pool = view->InPool();
  const double bytes = view->MaterializedBytes();
  assert((in_pool || bytes == 0.0) && "a view outside the pool holds bytes");
  std::lock_guard<std::mutex> lock(pool_mu_);
  auto it = std::lower_bound(
      pool_.begin(), pool_.end(), view->track_index,
      [](const PoolEntry& e, size_t index) {
        return e.view->track_index < index;
      });
  const bool indexed = it != pool_.end() && it->view == view;
  if (in_pool) {
    if (indexed) {
      it->bytes = bytes;
    } else {
      pool_.insert(it, PoolEntry{view, bytes});
    }
  } else if (indexed) {
    pool_.erase(it);
  }
}

std::vector<ViewInfo*> ViewCatalog::PoolViews() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::vector<ViewInfo*> out;
  out.reserve(pool_.size());
  for (const PoolEntry& e : pool_) out.push_back(e.view);
  return out;
}

double ViewCatalog::PoolBytes() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  double total = 0.0;
  for (const PoolEntry& e : pool_) total += e.bytes;
  return total;
}

double ViewCatalog::PoolBytesExact() const {
  double total = 0.0;
  for (const auto& v : views_) total += v->MaterializedBytes();
  return total;
}

}  // namespace deepsea
