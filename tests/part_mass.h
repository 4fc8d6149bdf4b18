#ifndef DEEPSEA_TESTS_PART_MASS_H_
#define DEEPSEA_TESTS_PART_MASS_H_

// PartMassMatchesRebuild: checks every partition's part mass (the MLE
// fit's time-weighted part sums) against a rebuild from its hit lists.
// A partition holding pool content must keep a mass equal to a rebuild
// at the mass's own time (sums, in-sum hits, covered hits, grid), and
// its sums corrected to the pool's clock (PartMass::SumsAt) must equal a
// rebuild's at the clock. A partition out of the pool may keep a dormant mass: once
// brought up to date at its own time, it must equal a rebuild too. Call
// it only where the pool is quiescent for writes: inside a commit's stage
// hooks with no other commit running, or with no commit running.
//
// HitsInTimeOrder / HitListsInTimeOrder: every fragment's hit list is
// sorted by time, as FragmentStats keeps it at every write (appends,
// V_sel inheritance, merge splices, state load); H(I)'s suffix reads
// rely on it.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/mle_model.h"
#include "core/pool_manager.h"

namespace deepsea {

inline ::testing::AssertionResult HitsInTimeOrder(const FragmentStats& f) {
  const std::vector<FragmentHit>& hits = f.hits();
  const auto late = std::is_sorted_until(
      hits.begin(), hits.end(),
      [](const FragmentHit& a, const FragmentHit& b) { return a.time < b.time; });
  if (late == hits.end()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "hit " << (late - hits.begin()) << " of " << hits.size()
         << " at t=" << late->time << " follows one at t=" << (late - 1)->time;
}

inline ::testing::AssertionResult HitListsInTimeOrder(const PoolManager& pool) {
  for (const ViewInfo* v : pool.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      for (const FragmentStats& f : part.fragments()) {
        if (::testing::AssertionResult ordered = HitsInTimeOrder(f); !ordered) {
          return ::testing::AssertionFailure()
                 << v->id << "/" << attr << " " << f.interval.ToString()
                 << ": " << ordered.message();
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

inline ::testing::AssertionResult PartMassMatchesRebuild(
    const PoolManager& pool) {
  const DecayFunction dec(pool.options().decay);
  const double clock = static_cast<double>(pool.clock());
  for (const ViewInfo* v : pool.views().AllViews()) {
    for (const auto& [attr, part] : v->partitions) {
      auto fail = [&]() {
        return ::testing::AssertionFailure() << v->id << "/" << attr << ": ";
      };
      if (!part.AnyMaterialized()) {
        PartMass caught_up = part.mass;
        if (!caught_up.kept() ||
            !caught_up.Update(part.fragments(), dec, caught_up.t())) {
          continue;  // no mass, or a replaced hit list: rebuilt on entry
        }
        PartMass rebuilt;
        rebuilt.Rebuild(part.fragments(), caught_up.grid(), dec, caught_up.t());
        if (!(caught_up == rebuilt)) {
          return fail() << "dormant part mass at t=" << caught_up.t()
                        << " differs from its rebuild once updated";
        }
        continue;
      }
      const bool keepable = part.domain.Width() > 0.0 &&
                            (!dec.config().enabled || clock > 0.0);
      if (part.mass.kept() != keepable) {
        return fail() << "part mass " << (keepable ? "missing" : "kept")
                      << " on a pooled partition";
      }
      if (!keepable) continue;
      const PartGrid grid = MleFragmentModel::GridOf(part);
      PartMass rebuilt;
      rebuilt.Rebuild(part.fragments(), grid, dec, part.mass.t());
      if (!(part.mass == rebuilt)) {
        return fail() << "part mass at t=" << part.mass.t()
                      << " differs from its rebuild (grid "
                      << part.mass.grid().num_parts << " vs "
                      << grid.num_parts << " parts)";
      }
      if (part.mass.t() > clock) {
        return fail() << "part mass time " << part.mass.t()
                      << " is ahead of the clock " << clock;
      }
      PartMass at_clock;
      at_clock.Rebuild(part.fragments(), grid, dec, clock);
      std::vector<PartMass::Sum> corrected;
      part.mass.SumsAt(part.fragments(), dec, clock, &corrected);
      if (corrected != at_clock.sums()) {
        return fail() << "part mass corrected from t=" << part.mass.t()
                      << " to the clock " << clock
                      << " differs from a rebuild at the clock";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace deepsea

#endif  // DEEPSEA_TESTS_PART_MASS_H_
