#include "rewrite/filter_tree.h"

#include <algorithm>
#include <optional>

namespace deepsea {

std::vector<FilterTree::Leaf::View>::iterator FilterTree::Leaf::LowerBound(
    const std::string& id) {
  return std::lower_bound(
      views.begin(), views.end(), id,
      [](const View& v, const std::string& key) { return v.id < key; });
}

void FilterTree::Insert(const PlanSignature& sig, const std::string& view_id) {
  Leaf& leaf =
      index_[sig.relations][sig.has_aggregate
                                ? AggKey{true, sig.group_by, sig.agg_specs}
                                : AggKey{}];
  const auto at = leaf.LowerBound(view_id);
  if (at != leaf.views.end() && at->id == view_id) return;
  Leaf::View view{view_id, {}};
  for (const auto& [col, range] : sig.ranges) {
    auto c = std::find(leaf.columns.begin(), leaf.columns.end(), col);
    if (c == leaf.columns.end()) c = leaf.columns.insert(c, col);
    view.ranges.push_back({static_cast<uint32_t>(c - leaf.columns.begin()),
                           RangeInterval(range)});
  }
  leaf.views.insert(at, std::move(view));
}

void FilterTree::Remove(const PlanSignature& sig, const std::string& view_id) {
  auto rel_it = index_.find(sig.relations);
  if (rel_it == index_.end()) return;
  auto agg_it = rel_it->second.find(sig);
  if (agg_it == rel_it->second.end()) return;
  Leaf& leaf = agg_it->second;
  const auto at = leaf.LowerBound(view_id);
  if (at == leaf.views.end() || at->id != view_id) return;
  leaf.views.erase(at);
  if (leaf.views.empty()) rel_it->second.erase(agg_it);
  if (rel_it->second.empty()) index_.erase(rel_it);
}

std::vector<std::string> FilterTree::Lookup(const PlanSignature& query_sig) const {
  std::vector<std::string> out;
  // Both upper levels compare the signature's own containers: nothing
  // is rendered or allocated before the leaf.
  auto rel_it = index_.find(query_sig.relations);
  if (rel_it == index_.end()) return out;
  auto agg_it = rel_it->second.find(query_sig);
  if (agg_it == rel_it->second.end()) return out;
  const Leaf& leaf = agg_it->second;
  // The query's range on each leaf column, resolved once per lookup;
  // nullopt where the query leaves the column unconstrained.
  std::vector<std::optional<Interval>> query_ranges(leaf.columns.size());
  for (size_t c = 0; c < leaf.columns.size(); ++c) {
    const auto it = query_sig.ranges.find(leaf.columns[c]);
    if (it != query_sig.ranges.end()) {
      query_ranges[c] = RangeInterval(it->second);
    }
  }
  for (const Leaf::View& view : leaf.views) {
    const bool admits = std::all_of(
        view.ranges.begin(), view.ranges.end(), [&](const Leaf::Range& r) {
          return RangeAdmits(r.range, query_ranges[r.column]);
        });
    if (admits) out.push_back(view.id);
  }
  return out;
}

size_t FilterTree::size() const {
  size_t n = 0;
  for (const auto& [_, aggs] : index_) {
    for (const auto& [__, leaf] : aggs) n += leaf.views.size();
  }
  return n;
}

}  // namespace deepsea
