#ifndef DEEPSEA_REWRITE_FILTER_TREE_H_
#define DEEPSEA_REWRITE_FILTER_TREE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/interval.h"
#include "plan/signature.h"

namespace deepsea {

/// In-memory index over view signatures modelled on the filter tree of
/// Goldstein-Larson (paper Section 8.3). Each level prunes on one
/// signature part; only views surviving every level are handed to the
/// full sufficient-condition check:
///   level 1 - relation classes (must be equal),
///   level 2 - aggregation part (group-by + aggregate list; must be
///             equal, since our compensation cannot re-aggregate),
///   level 3 - range constraints (condition 3 of SignatureSubsumes,
///             RangeAdmits on every column the view constrains).
/// A template's views differ mostly in their range constants, so the
/// third level keeps most of a leaf out of the full check. Leaves hold
/// view ids with their ranges as doubles; partition boundaries and
/// statistics live on the ViewCatalog entries the ids point to.
class FilterTree {
 public:
  /// Adds a view id (no-op when present).
  void Insert(const PlanSignature& sig, const std::string& view_id);

  /// Removes a view id (no-op when absent).
  void Remove(const PlanSignature& sig, const std::string& view_id);

  /// In id order, the ids of the views whose signatures pass all three
  /// levels for a query subplan with signature `query_sig` (candidates
  /// only; callers must still verify with SignatureSubsumes).
  std::vector<std::string> Lookup(const PlanSignature& query_sig) const;

  size_t size() const;

 private:
  /// Level 3: the views of one (relation key, aggregation key) bucket.
  struct Leaf {
    struct Range {
      uint32_t column;  ///< index into `columns`
      Interval range;
    };
    struct View {
      std::string id;
      std::vector<Range> ranges;
    };
    /// Every column some view of the leaf constrains, in first-seen order.
    std::vector<std::string> columns;
    /// Sorted by id.
    std::vector<View> views;

    /// First view whose id is not less than `id`.
    std::vector<View>::iterator LowerBound(const std::string& id);
  };

  /// Level 2 key: a signature's aggregation part, kept as the
  /// signature's own containers. Empty for a signature without
  /// aggregation.
  struct AggKey {
    bool has_aggregate = false;
    std::vector<std::string> group_by;
    std::set<std::string> agg_specs;
  };
  /// Orders aggregation parts; transparent, so Lookup finds a leaf by
  /// the query's PlanSignature itself, without building a key.
  struct AggLess {
    using is_transparent = void;
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      if (a.has_aggregate != b.has_aggregate) return b.has_aggregate;
      if (!a.has_aggregate) return false;
      return std::tie(a.group_by, a.agg_specs) <
             std::tie(b.group_by, b.agg_specs);
    }
  };

  // relations -> aggregation part -> leaf.
  std::map<std::vector<std::string>, std::map<AggKey, Leaf, AggLess>> index_;
};

}  // namespace deepsea

#endif  // DEEPSEA_REWRITE_FILTER_TREE_H_
