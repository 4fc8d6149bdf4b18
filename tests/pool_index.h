#ifndef DEEPSEA_TESTS_POOL_INDEX_H_
#define DEEPSEA_TESTS_POOL_INDEX_H_

// PoolIndexMatchesDefinition: checks ViewCatalog's pool-content index
// against its definition. The index must list exactly the views of
// AllViews() whose InPool() is true, in track order, and PoolBytes()
// (the sum over the index) must equal PoolBytesExact() (a fresh walk of
// every view) bit for bit. Call it only where the pool is quiescent for
// writes: inside an exclusive commit, or with no commit running.
//
// FragmentIndexMatchesScan: checks every partition's interval index
// against a linear scan of its fragment list. For each tracked interval
// and each of its neighbours (an endpoint one ulp outward, an
// endpoint's openness flipped), Find must return the fragment the scan
// finds first, or nullptr where the scan finds none. Same quiescence
// rule.
//
// PoolFilesMatchPieces: checks the simulated FS against the pool's
// pieces. The files under pool/ must be exactly the paths of the
// materialized pieces (FragmentPath for a fragment, pool/<id>/full for
// a whole view): an evicted piece whose file survived and a piece
// whose file is missing both fail it. Same quiescence rule.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/view_catalog.h"
#include "core/view_sizing.h"
#include "storage/sim_fs.h"

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

/// The first fragment of `part` whose interval equals `iv`, by scan.
inline const FragmentStats* ScanForFragment(const PartitionState& part,
                                            const Interval& iv) {
  for (const FragmentStats& f : part.fragments()) {
    if (f.interval == iv) return &f;
  }
  return nullptr;
}

/// Find(probe) equals the scan for `probe`.
inline ::testing::AssertionResult FindMatchesScan(const PartitionState& part,
                                                  const Interval& probe) {
  const FragmentStats* found = part.Find(probe);
  const FragmentStats* scanned = ScanForFragment(part, probe);
  if (found == scanned) return ::testing::AssertionSuccess();
  auto position = [&](const FragmentStats* f) {
    return f == nullptr ? std::string("none")
                        : std::to_string(f - part.fragments().data());
  };
  return ::testing::AssertionFailure()
         << "Find" << probe.ToString() << " returned fragment "
         << position(found) << ", the scan fragment " << position(scanned)
         << " of " << part.fragments().size();
}

inline ::testing::AssertionResult PartitionIndexMatchesScan(
    const PartitionState& part) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const FragmentStats& f : part.fragments()) {
    const Interval& iv = f.interval;
    for (const Interval& probe :
         {iv, Interval(std::nextafter(iv.lo, -inf), iv.hi, iv.lo_inclusive,
                       iv.hi_inclusive),
          Interval(iv.lo, std::nextafter(iv.hi, inf), iv.lo_inclusive,
                   iv.hi_inclusive),
          Interval(iv.lo, iv.hi, !iv.lo_inclusive, iv.hi_inclusive),
          Interval(iv.lo, iv.hi, iv.lo_inclusive, !iv.hi_inclusive)}) {
      ::testing::AssertionResult same = FindMatchesScan(part, probe);
      if (!same) return same;
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult FragmentIndexMatchesScan(
    const ViewCatalog& views) {
  for (const ViewInfo* v : views.AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      ::testing::AssertionResult same = PartitionIndexMatchesScan(part);
      if (!same) return same << " (view " << v->id << ", " << attr << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult PoolFilesMatchPieces(const ViewCatalog& views,
                                                      const SimFs& fs) {
  std::vector<std::string> pieces;
  for (const ViewInfo* v : views.AllViews()) {
    if (v->whole_materialized) pieces.push_back("pool/" + v->id + "/full");
    for (const auto& [attr, part] : v->partitions) {
      for (const FragmentStats& f : part.fragments()) {
        if (f.materialized) pieces.push_back(FragmentPath(*v, attr, f.interval));
      }
    }
  }
  std::sort(pieces.begin(), pieces.end());
  const std::vector<std::string> files = fs.List("pool/");
  if (files == pieces) return ::testing::AssertionSuccess();
  std::vector<std::string> orphans;
  std::vector<std::string> missing;
  std::set_difference(files.begin(), files.end(), pieces.begin(), pieces.end(),
                      std::back_inserter(orphans));
  std::set_difference(pieces.begin(), pieces.end(), files.begin(), files.end(),
                      std::back_inserter(missing));
  auto failure = ::testing::AssertionFailure();
  failure << files.size() << " pool files, " << pieces.size() << " pieces";
  for (const std::string& path : orphans) failure << "; no piece: " << path;
  for (const std::string& path : missing) failure << "; no file: " << path;
  return failure;
}

}  // namespace deepsea

#endif  // DEEPSEA_TESTS_POOL_INDEX_H_
