#ifndef DEEPSEA_TESTS_POOL_INDEX_H_
#define DEEPSEA_TESTS_POOL_INDEX_H_

// PoolIndexMatchesDefinition: checks ViewCatalog's pool-content index
// against its definition. The index must list exactly the views of
// AllViews() whose InPool() is true, in track order, and PoolBytes()
// (the sum over the index) must equal PoolBytesExact() (a fresh walk of
// every view) bit for bit. Call it only where the pool is quiescent for
// writes: inside an exclusive commit, or with no commit running.

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/view_catalog.h"

namespace deepsea {

inline ::testing::AssertionResult PoolIndexMatchesDefinition(
    const ViewCatalog& views) {
  std::vector<const ViewInfo*> expected;
  for (const ViewInfo* v : views.AllViews()) {
    if (v->InPool()) expected.push_back(v);
  }
  const std::vector<ViewInfo*> indexed = views.PoolViews();
  bool same = indexed.size() == expected.size();
  for (size_t i = 0; same && i < indexed.size(); ++i) {
    same = indexed[i] == expected[i];
  }
  if (!same) {
    auto failure = ::testing::AssertionFailure();
    failure << "pool-content index {";
    for (const ViewInfo* v : indexed) failure << " " << v->id;
    failure << " } != in-pool views {";
    for (const ViewInfo* v : expected) failure << " " << v->id;
    return failure << " }";
  }
  const double cached = views.PoolBytes();
  const double exact = views.PoolBytesExact();
  uint64_t cached_bits = 0;
  uint64_t exact_bits = 0;
  std::memcpy(&cached_bits, &cached, sizeof(cached));
  std::memcpy(&exact_bits, &exact, sizeof(exact));
  if (cached_bits != exact_bits) {
    return ::testing::AssertionFailure()
           << "PoolBytes() " << cached << " differs from PoolBytesExact() "
           << exact;
  }
  return ::testing::AssertionSuccess();
}

}  // namespace deepsea

#endif  // DEEPSEA_TESTS_POOL_INDEX_H_
