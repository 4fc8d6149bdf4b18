// Conflict-matrix tests for the sharded commit path.
//
// Three layers, bottom up:
//  * FootprintsConflict — the pure read-vs-write intersection rules
//    (granularities, wildcards, the asymmetric structure rule);
//  * PoolManager — read-set validation against the bounded epoch table
//    and the in-flight registry (genuine vs spurious verdicts, the
//    PR 4 false-positive regression, ring overflow), plus the
//    ordered-multi-lock deadlock test for the commit shards;
//  * DeepSeaEngine — single-tenant and sequentially interleaved
//    multi-tenant runs never replan (determinism contract), and the
//    pool-membership token: a contended plan replans when a foreign
//    commit first puts content into a view, not when it only tracks
//    candidates; and a plan that weighed a view's realized-return gate
//    replans when a foreign commit credits the view's ledger or evicts
//    its last piece.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "multitenant_harness.h"

#include "core/commit_footprint.h"
#include "core/engine.h"
#include "core/planning_delta.h"
#include "core/pool_manager.h"
#include "core/shared_pool.h"
#include "rewrite/filter_tree.h"
#include "storage/fault_policy.h"
#include "workload/bigbench.h"

namespace deepsea {
namespace {

CommitFootprint ViewRead(const std::string& id) {
  CommitFootprint fp;
  fp.AddView(id);
  return fp;
}

CommitFootprint FragmentRead(const std::string& id, const std::string& attr,
                             const Interval& range) {
  CommitFootprint fp;
  fp.AddFragment(id, attr, range);
  return fp;
}

// --- FootprintsConflict: the intersection matrix ---------------------

TEST(FootprintsConflictTest, DisjointViewsDoNotConflict) {
  EXPECT_FALSE(FootprintsConflict(ViewRead("v1"), ViewRead("v2")));
  EXPECT_TRUE(FootprintsConflict(ViewRead("v1"), ViewRead("v1")));
}

TEST(FootprintsConflictTest, SameViewDisjointFragmentsDoNotConflict) {
  const CommitFootprint read = FragmentRead("v1", "item_sk", Interval(0, 10));
  EXPECT_FALSE(FootprintsConflict(
      read, FragmentRead("v1", "item_sk", Interval(20, 30))));
  // A different partition attribute of the same view commutes too.
  EXPECT_FALSE(
      FootprintsConflict(read, FragmentRead("v1", "ss_date", Interval(0, 10))));
  // ...and so does the same range on a different view.
  EXPECT_FALSE(
      FootprintsConflict(read, FragmentRead("v2", "item_sk", Interval(0, 10))));
}

TEST(FootprintsConflictTest, OverlappingFragmentsConflict) {
  const CommitFootprint read = FragmentRead("v1", "item_sk", Interval(0, 10));
  EXPECT_TRUE(FootprintsConflict(
      read, FragmentRead("v1", "item_sk", Interval(5, 15))));
  // Shared endpoint: closed intervals touch, which counts as overlap.
  EXPECT_TRUE(FootprintsConflict(
      read, FragmentRead("v1", "item_sk", Interval(10, 20))));
}

TEST(FootprintsConflictTest, CatalogEntryOverlap) {
  CommitFootprint probe;
  probe.AddCatalogSig("sig-a");
  CommitFootprint create_a;
  create_a.AddCatalogSig("sig-a");
  CommitFootprint create_b;
  create_b.AddCatalogSig("sig-b");
  // A foreign commit creating a signature this plan probed invalidates
  // it; creating a signature it never probed does not.
  EXPECT_TRUE(FootprintsConflict(probe, create_a));
  EXPECT_FALSE(FootprintsConflict(probe, create_b));

  // The counter token conflicts only with itself: a plan that read it
  // (a contended knapsack) is invalidated by any commit that wrote it.
  CommitFootprint counter;
  counter.catalog_counter = true;
  EXPECT_TRUE(FootprintsConflict(counter, counter));
  EXPECT_FALSE(FootprintsConflict(counter, create_b));
}

TEST(FootprintsConflictTest, MembershipTokenGuardsContendedSweeps) {
  // A contended knapsack promotes its pool sweep's reads: the
  // membership token, plus the structure and the whole-domain range of
  // every partition of every view that held pool content.
  CommitFootprint sweep;
  sweep.catalog_counter = true;
  sweep.AddPartition("v1", "item_sk");
  sweep.AddFragment("v1", "item_sk", Interval(0, 400000));

  // A commit materializing the first fragment of v2, which held no
  // content, touches nothing the sweep read except the token its
  // decision writes.
  CommitFootprint first_fragment;
  first_fragment.catalog_counter = true;
  first_fragment.AddView("v2");
  first_fragment.AddPartition("v2", "item_sk");
  first_fragment.AddFragment("v2", "item_sk", Interval(0, 100));
  EXPECT_TRUE(FootprintsConflict(sweep, first_fragment));
  first_fragment.catalog_counter = false;
  EXPECT_FALSE(FootprintsConflict(sweep, first_fragment))
      << "without the token the sweep could not see the new member";

  // Tracking candidate fragments on v2 (new pieces, hits, benefit
  // events) writes no token and commutes with the sweep. A read of v2's
  // (v, "") wildcard would conflict with it; the sweep reads nothing of
  // a view outside the pool.
  CommitFootprint tracking;
  tracking.AddView("v2");
  tracking.AddPartition("v2", "item_sk");
  tracking.AddFragment("v2", "item_sk", Interval(100, 200));
  EXPECT_FALSE(FootprintsConflict(sweep, tracking));
  CommitFootprint wildcard_sweep = sweep;
  wildcard_sweep.AddPartition("v2", "");
  EXPECT_TRUE(FootprintsConflict(wildcard_sweep, tracking));

  // Evicting a member's piece conflicts through the structure read.
  CommitFootprint evict;
  evict.AddView("v1");
  evict.AddPartition("v1", "item_sk");
  evict.AddFragment("v1", "item_sk", Interval(0, 100));
  EXPECT_TRUE(FootprintsConflict(sweep, evict));
}

PlanSignature RangeSig(const std::string& relation, double lo, double hi) {
  PlanSignature sig;
  sig.relations = {relation};
  ColumnRange range;
  range.column = relation + ".k";
  range.lo = lo;
  range.hi = hi;
  sig.ranges[range.column] = range;
  // The range column is exported: a wider view can compensate a
  // narrower probe with a selection on it (subsumption condition 6).
  sig.output_columns.insert(range.column);
  return sig;
}

std::shared_ptr<const KeyedSignature> Shared(PlanSignature sig) {
  std::string key = sig.ToString();
  return std::make_shared<const KeyedSignature>(
      KeyedSignature{std::move(sig), std::move(key)});
}

TEST(FootprintsConflictTest, IndexInsertConflictsAtSubsumptionGranularity) {
  // The matcher probed the rewrite index with a [10,20] subplan.
  CommitFootprint probe;
  probe.AddIndexProbe(Shared(RangeSig("fact", 10, 20)));

  // A foreign commit inserting the SAME signature invalidates the
  // plan (the probe missed a view that now exists)...
  CommitFootprint same;
  same.AddIndexInsert(Shared(RangeSig("fact", 10, 20)));
  EXPECT_TRUE(FootprintsConflict(probe, same));

  // ...and so does a strictly WIDER view: [0,100] subsumes [10,20],
  // so the new view could have answered the probed subplan.
  CommitFootprint wider;
  wider.AddIndexInsert(Shared(RangeSig("fact", 0, 100)));
  EXPECT_TRUE(FootprintsConflict(probe, wider));

  // A NARROWER view cannot answer the probe: it commutes. This is the
  // case that lets signature-disjoint creators commit sharded.
  CommitFootprint narrower;
  narrower.AddIndexInsert(Shared(RangeSig("fact", 12, 15)));
  EXPECT_FALSE(FootprintsConflict(probe, narrower));

  // Different relation class: no subsumption, commutes.
  CommitFootprint elsewhere;
  elsewhere.AddIndexInsert(Shared(RangeSig("dim", 0, 100)));
  EXPECT_FALSE(FootprintsConflict(probe, elsewhere));

  // An insert invalidates nobody who never probed the index.
  EXPECT_FALSE(FootprintsConflict(ViewRead("v1"), wider));
}

TEST(FootprintsConflictTest, IndexProbesVsStructuralAll) {
  // A state load / merge pass still publishes `all`: it must invalidate
  // index-probing plans (the index may have been rebuilt wholesale),
  // and an `all` reader must see an insert-only write.
  CommitFootprint probe;
  probe.AddIndexProbe(Shared(RangeSig("fact", 10, 20)));
  CommitFootprint all;
  all.all = true;
  EXPECT_TRUE(FootprintsConflict(probe, all));

  CommitFootprint insert_only;
  insert_only.AddIndexInsert(Shared(RangeSig("fact", 10, 20)));
  EXPECT_TRUE(FootprintsConflict(all, insert_only));
}

TEST(FootprintsConflictTest, ReservedCreatorsCommuteOnTheCounter) {
  // A creator that leased its ids from a ViewIdReservation WRITES the
  // shared counter (the fold advances it) but never READS it — its
  // read set carries only the signatures it probed. Two such creators
  // with disjoint signatures therefore commute...
  CommitFootprint creator_write;
  creator_write.catalog_counter = true;
  creator_write.AddCatalogSig("sig-a");
  CommitFootprint other_creator_read;
  other_creator_read.AddCatalogSig("sig-b");
  EXPECT_FALSE(FootprintsConflict(other_creator_read, creator_write));

  // ...while a contended knapsack, which read pool membership, DID
  // read the counter and conflicts with any creator.
  CommitFootprint knapsack_read;
  knapsack_read.catalog_counter = true;
  EXPECT_TRUE(FootprintsConflict(knapsack_read, creator_write));
}

TEST(FootprintsConflictTest, StructuralAllConflictsWithEveryRead) {
  CommitFootprint all;
  all.all = true;
  EXPECT_TRUE(FootprintsConflict(ViewRead("v1"), all));
  EXPECT_TRUE(
      FootprintsConflict(FragmentRead("v9", "x", Interval(0, 1)), all));
  // An `all` WRITE is conservative: it invalidates every plan, even
  // one that recorded no reads. An `all` READER conflicts with any
  // non-empty write but not with a commit that published nothing.
  EXPECT_TRUE(FootprintsConflict(CommitFootprint{}, all));
  EXPECT_TRUE(FootprintsConflict(all, ViewRead("v1")));
  EXPECT_FALSE(FootprintsConflict(all, CommitFootprint{}));
}

TEST(FootprintsConflictTest, StructuralMergeEvictWritesHitFragmentReaders) {
  // Merge/evict commits write partition *structure*: a fragment reader
  // of that partition saw a fragment list the commit changed.
  CommitFootprint structure_write;
  structure_write.AddPartition("v1", "item_sk");
  EXPECT_TRUE(FootprintsConflict(
      FragmentRead("v1", "item_sk", Interval(0, 10)), structure_write));
  EXPECT_FALSE(FootprintsConflict(
      FragmentRead("v1", "ss_date", Interval(0, 10)), structure_write));

  // EvictWholeView writes with the "" wildcard: every partition of the
  // view, any attribute.
  CommitFootprint wildcard_write;
  wildcard_write.AddPartition("v1", "");
  EXPECT_TRUE(FootprintsConflict(
      FragmentRead("v1", "ss_date", Interval(0, 10)), wildcard_write));
  EXPECT_FALSE(FootprintsConflict(
      FragmentRead("v2", "ss_date", Interval(0, 10)), wildcard_write));
}

TEST(FootprintsConflictTest, StructureReadCommutesWithPlainFragmentWrite) {
  // The asymmetric rule: appending hits to an existing fragment leaves
  // the structure a partition reader depended on intact...
  CommitFootprint structure_read;
  structure_read.AddPartition("v1", "item_sk");
  EXPECT_FALSE(FootprintsConflict(
      structure_read, FragmentRead("v1", "item_sk", Interval(0, 10))));
  // ...but a fragment reader IS invalidated by a structure write
  // (tested above), and a structure reader by a structure write.
  CommitFootprint structure_write;
  structure_write.AddPartition("v1", "item_sk");
  EXPECT_TRUE(FootprintsConflict(structure_read, structure_write));
}

// --- PoolManager: validation against the epoch table -----------------

class CommitValidationTest : public ::testing::Test {
 protected:
  CommitValidationTest() : shared_(&catalog_, EngineOptions()) {}

  PoolManager* pool() { return shared_.pool(); }

  /// One exclusive commit that publishes exactly `write_fp`.
  void PublishWrite(const CommitFootprint& write_fp) {
    CommitGuard commit = pool()->BeginCommit();
    pool()->SetCommitFootprint(commit, write_fp);
  }

  Catalog catalog_;
  SharedPool shared_;
};

TEST_F(CommitValidationTest, DisjointForeignCommitNoLongerForcesReplan) {
  // The PR 4 false positive: under commit-epoch validation ANY foreign
  // commit invalidated every in-flight plan. Read-set validation must
  // keep a plan whose footprint the foreign write never touched.
  const uint64_t read_epoch = pool()->read_epoch();
  PublishWrite(ViewRead("vA"));

  CommitGuard commit = pool()->BeginCommit();
  bool genuine = true;
  EXPECT_TRUE(
      pool()->ValidateReadSet(commit, ViewRead("vB"), read_epoch, &genuine));
  EXPECT_FALSE(genuine);
  pool()->SetCommitFootprint(commit, CommitFootprint{});
}

TEST_F(CommitValidationTest, OverlappingForeignCommitIsAGenuineConflict) {
  const uint64_t read_epoch = pool()->read_epoch();
  PublishWrite(FragmentRead("vA", "item_sk", Interval(0, 100)));

  CommitGuard commit = pool()->BeginCommit();
  bool genuine = false;
  EXPECT_FALSE(pool()->ValidateReadSet(
      commit, FragmentRead("vA", "item_sk", Interval(50, 60)), read_epoch,
      &genuine));
  EXPECT_TRUE(genuine);
  // A commit published BEFORE the plan's read epoch is invisible: the
  // plan read the state it produced.
  bool genuine2 = true;
  EXPECT_TRUE(pool()->ValidateReadSet(
      commit, FragmentRead("vA", "item_sk", Interval(50, 60)),
      pool()->read_epoch(), &genuine2));
  pool()->SetCommitFootprint(commit, CommitFootprint{});
}

// A commit that writes nothing publishes nothing. An engine joining the
// running pool (its constructor enters X only to prove exclusive access)
// and a fault-policy swap leave the epoch where it was, so a plan whose
// read epoch predates them still validates; publishing `all` would have
// counted both as genuine conflicts.
TEST_F(CommitValidationTest, EngineJoinAndFaultPolicySwapPublishNothing) {
  const uint64_t read_epoch = pool()->read_epoch();
  DeepSeaEngine late(&catalog_, &shared_, "late");
  ScheduledFaultPolicy silent(/*seed=*/1);
  pool()->SetFaultPolicy(&silent);
  pool()->SetFaultPolicy(nullptr);
  EXPECT_EQ(pool()->read_epoch(), read_epoch);

  CommitGuard commit = pool()->BeginCommit();
  bool genuine = true;
  EXPECT_TRUE(
      pool()->ValidateReadSet(commit, ViewRead("v1"), read_epoch, &genuine));
  EXPECT_FALSE(genuine);
  pool()->SetCommitFootprint(commit, CommitFootprint{});
}

TEST_F(CommitValidationTest, EpochRingOverflowInvalidatesSpuriously) {
  const uint64_t stale_epoch = pool()->read_epoch();
  // Push enough publishes through the bounded ring that it can no
  // longer prove what happened right after stale_epoch.
  for (int i = 0; i < 200; ++i) PublishWrite(ViewRead("other"));

  CommitGuard commit = pool()->BeginCommit();
  bool genuine = true;
  EXPECT_FALSE(
      pool()->ValidateReadSet(commit, ViewRead("mine"), stale_epoch, &genuine));
  EXPECT_FALSE(genuine) << "coverage loss must report spurious, not genuine";
  // A fresh epoch is fully covered: same read set, no conflict.
  EXPECT_TRUE(pool()->ValidateReadSet(commit, ViewRead("mine"),
                                      pool()->read_epoch(), &genuine));
  pool()->SetCommitFootprint(commit, CommitFootprint{});
}

TEST_F(CommitValidationTest, ShardedCommitsPublishOnRelease) {
  const uint64_t read_epoch = pool()->read_epoch();
  bool genuine = true;
  {
    CommitGuard commit = pool()->TryBeginShardedCommit(
        FragmentRead("v1", "item_sk", Interval(0, 10)), CommitFootprint{},
        read_epoch, &genuine);
    ASSERT_TRUE(commit.held());
  }
  EXPECT_GT(pool()->read_epoch(), read_epoch);

  // A plan that read the published range must now fail validation.
  CommitGuard probe = pool()->BeginCommit();
  EXPECT_FALSE(pool()->ValidateReadSet(
      probe, FragmentRead("v1", "item_sk", Interval(5, 6)), read_epoch,
      &genuine));
  EXPECT_TRUE(genuine);
  pool()->SetCommitFootprint(probe, CommitFootprint{});
}

TEST_F(CommitValidationTest, InFlightShardedCommitConflicts) {
  // Thread A holds a sharded commit writing v1; the main thread's
  // sharded attempt reads v1 and must be rejected as a genuine
  // conflict even though nothing has been published yet.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  std::thread holder([&] {
    bool genuine = true;
    CommitGuard commit = pool()->TryBeginShardedCommit(
        ViewRead("v1"), CommitFootprint{}, pool()->read_epoch(), &genuine);
    ASSERT_TRUE(commit.held());
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  bool genuine = false;
  CommitGuard attempt = pool()->TryBeginShardedCommit(
      ViewRead("v2"), ViewRead("v1"), pool()->read_epoch(), &genuine);
  EXPECT_FALSE(attempt.held());
  EXPECT_TRUE(genuine);

  // Disjoint read set: commits concurrently alongside the in-flight one.
  CommitGuard ok = pool()->TryBeginShardedCommit(
      ViewRead("v2"), ViewRead("v3"), pool()->read_epoch(), &genuine);
  EXPECT_TRUE(ok.held());
  ok.Release();

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
}

TEST_F(CommitValidationTest, ShardStatsCountAcquisitions) {
  bool genuine = true;
  {
    CommitGuard commit = pool()->TryBeginShardedCommit(
        ViewRead("v1"), CommitFootprint{}, pool()->read_epoch(), &genuine);
    ASSERT_TRUE(commit.held());
  }
  const auto stats = pool()->commit_shard_stats();
  ASSERT_EQ(stats.size(), static_cast<size_t>(PoolManager::kCommitShards));
  const int shard = PoolManager::ShardOf("v1");
  ASSERT_GE(shard, 0);
  ASSERT_LT(shard, PoolManager::kCommitShards);
  EXPECT_GE(stats[static_cast<size_t>(shard)].acquisitions, 1u);
  EXPECT_GE(stats[static_cast<size_t>(shard)].held_seconds, 0.0);
}

TEST_F(CommitValidationTest, StructuralAllFootprintEscalatesToExclusive) {
  // An `all` write footprint has no shard set; running it under IX
  // would publish `all` with no serialization at all. The sharded
  // entry must refuse it (in release builds too, not via a debug-only
  // assert) so the caller escalates to BeginCommit.
  CommitFootprint all;
  all.all = true;
  bool genuine = false;
  CommitGuard guard = pool()->TryBeginShardedCommit(
      all, CommitFootprint{}, pool()->read_epoch(), &genuine);
  EXPECT_FALSE(guard.held());
  EXPECT_TRUE(genuine);
  // The refusal left no lock state behind: the exclusive path enters.
  CommitGuard x = pool()->BeginCommit();
  EXPECT_TRUE(x.held());
  pool()->SetCommitFootprint(x, CommitFootprint{});
}

TEST_F(CommitValidationTest, ConcurrentReservedCreatorsBothEnterSharded) {
  // Two creators whose ids came from ViewIdReservations: both WRITE
  // the counter and their own signature, neither READS the counter.
  // The second must enter while the first is still in flight — this is
  // the property that lets cold-range traffic commit sharded.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  std::thread holder([&] {
    CommitFootprint write_a;
    write_a.catalog_counter = true;
    write_a.AddCatalogSig("sig-a");
    write_a.AddView("va");
    bool genuine = true;
    CommitGuard commit = pool()->TryBeginShardedCommit(
        std::move(write_a), ViewRead("sig-a-probe"), pool()->read_epoch(),
        &genuine);
    ASSERT_TRUE(commit.held());
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  CommitFootprint write_b;
  write_b.catalog_counter = true;
  write_b.AddCatalogSig("sig-b");
  write_b.AddView("vb");
  CommitFootprint read_b;
  read_b.AddCatalogSig("sig-b");
  bool genuine = false;
  CommitGuard second = pool()->TryBeginShardedCommit(
      std::move(write_b), std::move(read_b), pool()->read_epoch(), &genuine);
  EXPECT_TRUE(second.held());
  second.Release();

  // A contended knapsack that READ the counter is rejected while
  // creator A's counter write is in flight — a genuine conflict, not
  // coverage loss.
  CommitFootprint knapsack_read;
  knapsack_read.catalog_counter = true;
  CommitGuard knapsack = pool()->TryBeginShardedCommit(
      ViewRead("vc"), std::move(knapsack_read), pool()->read_epoch(), &genuine);
  EXPECT_FALSE(knapsack.held());
  EXPECT_TRUE(genuine);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
}

// --- view-id reservation: block leasing --------------------------------

TEST(ViewIdReservationTest, ExhaustedBlockLeasesAFreshDisjointBlock) {
  std::atomic<int64_t> counter{0};
  ViewIdReservation a(&counter);
  ViewIdReservation b(&counter);

  // a drains its first block; b leases the next one concurrently.
  std::set<std::string> ids;
  for (int64_t i = 0; i < ViewIdReservation::kBlockSize; ++i) {
    ids.insert(a.NextPlaceholder());
  }
  EXPECT_EQ(a.remaining(), 0);
  for (int64_t i = 0; i < ViewIdReservation::kBlockSize; ++i) {
    ids.insert(b.NextPlaceholder());
  }

  // Exhaustion: a's next lease skips b's block entirely.
  ids.insert(a.NextPlaceholder());
  EXPECT_EQ(a.remaining(), ViewIdReservation::kBlockSize - 1);

  // Every id is distinct, every id is in the placeholder namespace
  // (disjoint from the catalog's "v<N>" ids), and the shared counter
  // advanced exactly one block per lease.
  EXPECT_EQ(ids.size(), static_cast<size_t>(2 * ViewIdReservation::kBlockSize + 1));
  for (const std::string& id : ids) {
    EXPECT_TRUE(ViewIdReservation::IsPlaceholder(id)) << id;
  }
  EXPECT_FALSE(ViewIdReservation::IsPlaceholder("v7"));
  EXPECT_EQ(counter.load(), 3 * ViewIdReservation::kBlockSize);
}

// --- budget headroom: concurrent materializations vs pool_limit ------

class BudgetValidationTest : public ::testing::Test {
 protected:
  static EngineOptions Limited() {
    EngineOptions o;
    o.pool_limit_bytes = 1000.0;
    return o;
  }
  BudgetValidationTest() : shared_(&catalog_, Limited()) {}

  PoolManager* pool() { return shared_.pool(); }

  Catalog catalog_;
  SharedPool shared_;
};

TEST_F(BudgetValidationTest, ConcurrentClaimsCannotOvershootBudget) {
  // Pool occupancy is not part of any read footprint, so two plans with
  // disjoint footprints and uncontended knapsacks would each validate
  // against the old occupancy and jointly materialize past the budget.
  // The admitted-bytes claim closes that: a sharded commit only enters
  // when its claim fits next to every in-flight commit's claim.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;
  std::thread holder([&] {
    bool genuine = true;
    CommitGuard commit = pool()->TryBeginShardedCommit(
        ViewRead("v1"), CommitFootprint{}, pool()->read_epoch(), &genuine,
        /*admitted_bytes=*/600.0);
    ASSERT_TRUE(commit.held());
    {
      std::unique_lock<std::mutex> lock(mu);
      entered = true;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    }
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // 600 in flight + 600 claimed > 1000: rejected as a genuine conflict
  // even though the footprints are disjoint and nothing was published.
  bool genuine = false;
  CommitGuard over = pool()->TryBeginShardedCommit(
      ViewRead("v2"), CommitFootprint{}, pool()->read_epoch(), &genuine,
      /*admitted_bytes=*/600.0);
  EXPECT_FALSE(over.held());
  EXPECT_TRUE(genuine);

  // 600 + 300 <= 1000: fits alongside the in-flight claim.
  CommitGuard fits = pool()->TryBeginShardedCommit(
      ViewRead("v2"), CommitFootprint{}, pool()->read_epoch(), &genuine,
      /*admitted_bytes=*/300.0);
  EXPECT_TRUE(fits.held());
  fits.Release();

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  holder.join();

  // With the claim retired (and nothing actually materialized) the
  // 600-byte claim fits again.
  CommitGuard after = pool()->TryBeginShardedCommit(
      ViewRead("v2"), CommitFootprint{}, pool()->read_epoch(), &genuine,
      /*admitted_bytes=*/600.0);
  EXPECT_TRUE(after.held());
}

TEST_F(BudgetValidationTest, ExclusiveValidationChecksHeadroomToo) {
  // The structural path revalidates with the same budget rule (a
  // non-replanned X commit also planned against possibly-stale
  // occupancy).
  CommitGuard x = pool()->BeginCommit();
  bool genuine = false;
  EXPECT_FALSE(pool()->ValidateReadSet(x, CommitFootprint{},
                                       pool()->read_epoch(), &genuine,
                                       /*admitted_bytes=*/2000.0));
  EXPECT_TRUE(genuine);
  EXPECT_TRUE(pool()->ValidateReadSet(x, CommitFootprint{},
                                      pool()->read_epoch(), &genuine,
                                      /*admitted_bytes=*/500.0));
  pool()->SetCommitFootprint(x, CommitFootprint{});
}

// --- fold safety: read-only shadows of foreign-mutated bases ---------

PlanSignature SigNamed(const std::string& relation) {
  PlanSignature sig;
  sig.relations = {relation};
  return sig;
}

TEST(PlanningDeltaFoldTest, ReadOnlyShadowSurvivesForeignBaseGrowth) {
  // A sharded commit folds its delta while foreign commits may already
  // have changed views the plan only soft-read (those reads were
  // dropped, so validation let the plan through). The fold must judge
  // shadow dirtiness against the creation-time snapshot — never the
  // live base: comparing against the base would (a) race, (b) dangle
  // once the base's fragment vector reallocated, and (c) classify the
  // read-only shadow dirty and overwrite the foreign commit's values
  // with the plan's stale copy.
  ViewCatalog views;
  Catalog catalog;
  FilterTree index;
  ViewInfo* v = views.Track(Scan("a"), SigNamed("a"));
  PartitionState* part = v->EnsurePartition("a.x", Interval(0, 1000));
  part->Track(Interval(0, 50), 10.0);
  part->Track(Interval(50, 100), 20.0);

  std::atomic<int64_t> placeholders{0};
  ViewIdReservation reservation(&placeholders);
  PlanningDelta delta(catalog, &views, /*t_now=*/1.0, &reservation);
  PartitionState* shadow = delta.Partition(v, "a.x");
  ASSERT_NE(shadow, nullptr);
  ASSERT_NE(shadow, part);  // shared view: reads go through a shadow

  // Foreign commit: grow the base far past its capacity (reallocating
  // the fragment vector, so every base pointer the shadow captured
  // dangles) and resize a fragment the shadow copied.
  for (int i = 0; i < 64; ++i) {
    part->Track(Interval(100 + 10 * i, 100 + 10 * (i + 1)), 1.0);
  }
  part->Find(Interval(0, 50))->size_bytes = 777.0;

  delta.Fold(&views, &catalog, &index);

  // The read-only shadow was skipped: foreign growth and the foreign
  // resize survive the fold untouched.
  EXPECT_EQ(part->fragments().size(), 66u);
  EXPECT_DOUBLE_EQ(part->Find(Interval(0, 50))->size_bytes, 777.0);
  // The remap still resolves the shadow to its real partition (without
  // walking the foreign view's partition map).
  EXPECT_EQ(delta.RealPartition(shadow), part);
}

// --- pool lock: waiting IX bars new shared entrants ------------------

TEST(PoolLockTest, WaitingIntentBlocksNewSharedEntrants) {
  // A sharded commit waiting for shared planners to drain must not be
  // starved by a continuous stream of NEW planners: once an IX waiter
  // is registered, fresh S entrants hold back until it got through.
  PoolLock lock;
  lock.LockShared();

  std::atomic<bool> intent_acquired{false};
  std::thread ix([&] {
    lock.LockIntent();
    intent_acquired.store(true);
    lock.UnlockIntent();
  });
  // Let the IX waiter park on the held S lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(intent_acquired.load());

  std::atomic<bool> shared_acquired{false};
  std::thread s([&] {
    lock.LockShared();
    shared_acquired.store(true);
    lock.UnlockShared();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // Pre-fix, the new S entrant would have been admitted alongside the
  // original holder while the IX waiter kept waiting.
  EXPECT_FALSE(shared_acquired.load());

  lock.UnlockShared();
  ix.join();
  s.join();
  EXPECT_TRUE(intent_acquired.load());
  EXPECT_TRUE(shared_acquired.load());
}

// --- lock order: overlapping shard sets, opposite arrival order ------

TEST_F(CommitValidationTest, OpposingShardOrdersDoNotDeadlock) {
  // Two threads repeatedly take sharded commits whose write footprints
  // list overlapping view groups in OPPOSITE order. Acquisition is by
  // ascending shard index regardless of footprint order, so the runs
  // serialize on the shared shards instead of deadlocking. (A
  // footprint-order acquisition would deadlock this test in the first
  // few iterations; the ctest timeout is the failure detector.)
  std::vector<std::string> views;
  std::set<int> shards;
  for (int i = 0; shards.size() < 6; ++i) {
    std::string id = "w";
    id += std::to_string(i);
    if (shards.insert(PoolManager::ShardOf(id)).second) views.push_back(id);
  }
  // Overlapping subsets: {0..3} and {2..5}, reversed for thread B.
  std::vector<std::string> set_a(views.begin(), views.begin() + 4);
  std::vector<std::string> set_b(views.begin() + 2, views.end());
  std::vector<std::string> set_b_rev(set_b.rbegin(), set_b.rend());

  constexpr int kIterations = 300;
  std::atomic<int> commits{0};
  auto worker = [&](const std::vector<std::string>& ids) {
    for (int i = 0; i < kIterations; ++i) {
      CommitFootprint write_fp;
      for (const std::string& id : ids) write_fp.AddView(id);
      bool genuine = true;
      CommitGuard commit = pool()->TryBeginShardedCommit(
          std::move(write_fp), CommitFootprint{}, pool()->read_epoch(),
          &genuine);
      if (commit.held()) commits.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread ta(worker, set_a);
  std::thread tb(worker, set_b_rev);
  ta.join();
  tb.join();
  // Empty read sets never conflict, so every attempt must have entered.
  EXPECT_EQ(commits.load(), 2 * kIterations);
}

// --- engine determinism: no replans without real concurrency ---------

BigBenchDataset::Options SmallData() {
  BigBenchDataset::Options o;
  o.total_bytes = 100e9;
  o.sample_rows_per_fact = 256;
  o.sample_rows_per_dim = 64;
  o.seed = 7;
  SdssTraceModel sdss(SdssTraceModel::Config{}, 2017);
  o.item_sk_distribution = sdss.AccessDensity(420);
  return o;
}

EngineOptions TestOptions() {
  EngineOptions o;
  o.strategy = StrategyKind::kDeepSea;
  o.benefit_cost_threshold = 0.02;
  o.enforce_block_lower_bound = true;
  o.max_fragment_fraction = 0.1;
  return o;
}

TEST(EngineReplanTest, SingleTenantNeverReplans) {
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &catalog).ok());
  SharedPool shared(&catalog, TestOptions());
  DeepSeaEngine engine(&catalog, &shared, "solo");
  for (const PlanPtr& plan : mt::BuildPlans(mt::SdssTenantWorkload(60, 31))) {
    ASSERT_TRUE(engine.ProcessQuery(plan).ok());
  }
  EXPECT_EQ(engine.totals().replans, 0);
  EXPECT_EQ(engine.totals().replans_conflict, 0);
  EXPECT_EQ(engine.totals().replans_spurious, 0);
}

TEST(EngineReplanTest, SequentialInterleavingNeverReplans) {
  // Two tenants strictly alternating on ONE thread: every plan is
  // validated at the epoch it was read at, with no commit in between,
  // so even overlapping workloads must never replan.
  Catalog catalog;
  ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &catalog).ok());
  SharedPool shared(&catalog, TestOptions());
  DeepSeaEngine alice(&catalog, &shared, "alice");
  DeepSeaEngine bob(&catalog, &shared, "bob");
  const auto plans_a = mt::BuildPlans(mt::SdssTenantWorkload(40, 11));
  const auto plans_b = mt::BuildPlans(mt::SdssTenantWorkload(40, 12));
  for (size_t i = 0; i < plans_a.size(); ++i) {
    ASSERT_TRUE(alice.ProcessQuery(plans_a[i]).ok());
    ASSERT_TRUE(bob.ProcessQuery(plans_b[i]).ok());
  }
  EXPECT_EQ(alice.totals().replans, 0);
  EXPECT_EQ(bob.totals().replans, 0);
}

// --- the pool-membership token, end to end ---------------------------
//
// A contended knapsack sweeps only the views that held pool content at
// the plan's read epoch. Each test below plans a Q30 query (store_sales)
// by hand, as tenant "a" would, over a pool holding only tenant a's
// views. The plan's planner weighs that pool against a zero budget, so
// every piece is rejected and the sweep's reads are promoted. View W,
// the selected input of tenant b's queries (web_clickstreams), is
// tracked but holds no content. Tenant b's engine then commits, and
// the plan is validated as the engine validates it before committing.

class MembershipTokenTest : public ::testing::Test {
 protected:
  /// The options of the shared pool both tenants run on.
  virtual EngineOptions PoolOptions() const { return TestOptions(); }

  void SetUp() override {
    ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &catalog_).ok());
    shared_ = std::make_unique<SharedPool>(&catalog_, PoolOptions());
    a_ = std::make_unique<DeepSeaEngine>(&catalog_, shared_.get(), "a");
    b_ = std::make_unique<DeepSeaEngine>(&catalog_, shared_.get(), "b");
    reservation_ =
        std::make_unique<ViewIdReservation>(pool()->placeholder_counter());
    // Tenant b tracks its views without ever creating them: its first
    // query is planned and committed with its decision dropped, so the
    // statistics fold and nothing is materialized. A view created and
    // then evicted would make b's next creation a repeat creation, which
    // the realized-return gate may withhold.
    {
      std::unique_ptr<QueryContext> ctx;
      Plan(ClickSelect(150000, 160000), shared_->options(), &ctx);
      CommitGuard commit = pool()->BeginCommit();
      pool()->Tick(commit);
      QueryReport scratch;
      ASSERT_TRUE(pool()->Apply(SelectionDecision(), *ctx, &scratch).ok());
      for (ViewInfo* v : pool()->stat(commit)->AllViews()) {
        ASSERT_FALSE(v->ledger.created) << v->id;
        b_views_.push_back(v);
      }
    }
    ASSERT_FALSE(b_views_.empty());
    ASSERT_EQ(pool()->PoolBytes(), 0.0);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(a_->ProcessQuery(StoreQ30(100000, 180000)).ok());
    }
    ASSERT_GT(pool()->PoolBytes(), 0.0);
    for (const ViewInfo* v : b_views_) ASSERT_FALSE(v->InPool()) << v->id;
  }

  PoolManager* pool() { return shared_->pool(); }

  /// Q5's selection over the web_clickstreams-item join, without the
  /// aggregate on top: every view candidate of it is range-free, so
  /// repeating it with another range creates no view.
  static PlanPtr ClickSelect(double lo, double hi) {
    auto q5 = BigBenchTemplates::Build("Q5", lo, hi);
    EXPECT_TRUE(q5.ok());
    return (*q5)->child(0);
  }
  static PlanPtr StoreQ30(double lo, double hi) {
    auto q30 = BigBenchTemplates::Build("Q30", lo, hi);
    EXPECT_TRUE(q30.ok());
    return *q30;
  }

  struct ContendedPlan {
    uint64_t read_epoch = 0;
    CommitFootprint reads;
    bool contended = false;
  };

  /// Plans `query` under the shared lock, as DeepSeaEngine::ProcessQuery
  /// does, with a zero budget. The plan is never committed.
  ContendedPlan PlanWithZeroBudget(const PlanPtr& query) {
    EngineOptions options = shared_->options();
    options.pool_limit_bytes = 0.0;
    ContendedPlan plan;
    std::unique_ptr<QueryContext> ctx;
    plan.contended = Plan(query, options, &ctx, &plan.read_epoch).contended;
    plan.reads = ctx->delta()->read_footprint();
    return plan;
  }

  /// Runs the planning stages of DeepSeaEngine::ProcessQuery on `query`
  /// under `options` and the shared lock, at the next clock value, and
  /// leaves the planned context in `*ctx`. Commits nothing.
  SelectionResolution Plan(const PlanPtr& query, const EngineOptions& options,
                           std::unique_ptr<QueryContext>* ctx,
                           uint64_t* read_epoch = nullptr) {
    ClusterModel cluster(options.cluster);
    PlanCostEstimator estimator(&cluster, &catalog_);
    DecayFunction decay(options.decay);
    ViewCatalog* stat = nullptr;
    FilterTree* index = nullptr;
    {
      CommitGuard commit = pool()->BeginCommit();
      stat = pool()->stat(commit);
      index = pool()->rewrite_index(commit);
      pool()->SetCommitFootprint(commit, CommitFootprint{});
    }
    RewritePlanner rewriter(&catalog_, &estimator, stat, index);
    CandidateGenerator generator(&catalog_, &options, &cluster, stat, index,
                                 pool());
    SelectionPlanner selector(&catalog_, &options, &cluster, &decay, stat);

    auto shared_lock = pool()->SharedLock();
    if (read_epoch != nullptr) *read_epoch = pool()->read_epoch();
    *ctx = std::make_unique<QueryContext>(query, pool()->clock() + 1);
    (*ctx)->InitPlanning(catalog_, stat, reservation_.get());
    QueryReport report;
    EXPECT_TRUE(rewriter.PlanBase(ctx->get(), &report).ok());
    EXPECT_TRUE(rewriter.PlanBest(ctx->get(), &report).ok());
    const PlanPtr candidate_plan =
        report.used_view.empty() ? (*ctx)->query : (*ctx)->executed_plan;
    generator.RegisterViewCandidates(candidate_plan, report.base_seconds,
                                     ctx->get());
    generator.RegisterPartitionCandidates(ctx->get());
    return selector.PlanSelection(**ctx, report.base_seconds);
  }

  /// True when `fp` names view `id` at any granularity.
  static bool Mentions(const CommitFootprint& fp, const std::string& id) {
    for (const std::string& v : fp.views) {
      if (v == id) return true;
    }
    for (const auto& [v, attr] : fp.partitions) {
      if (v == id) return true;
    }
    for (const CommitFootprint::FragRange& f : fp.fragments) {
      if (f.view == id) return true;
    }
    return false;
  }

  /// Validates `plan` as the engine's exclusive path does.
  bool Validates(const ContendedPlan& plan, bool* genuine) {
    CommitGuard commit = pool()->BeginCommit();
    const bool ok = pool()->ValidateReadSet(commit, plan.reads,
                                            plan.read_epoch, genuine);
    pool()->SetCommitFootprint(commit, CommitFootprint{});
    return ok;
  }

  Catalog catalog_;
  std::unique_ptr<SharedPool> shared_;
  std::unique_ptr<DeepSeaEngine> a_;
  std::unique_ptr<DeepSeaEngine> b_;
  std::unique_ptr<ViewIdReservation> reservation_;  ///< for Plan
  std::vector<ViewInfo*> b_views_;  ///< tracked, never created
};

TEST_F(MembershipTokenTest, FirstMaterializationInvalidatesContendedPlan) {
  const ContendedPlan plan = PlanWithZeroBudget(StoreQ30(120000, 170000));
  ASSERT_TRUE(plan.contended);
  EXPECT_TRUE(plan.reads.catalog_counter);
  // The sweep read only tenant a's pooled views: nothing in the plan's
  // read set names a view of tenant b.
  for (const ViewInfo* v : b_views_) {
    ASSERT_FALSE(Mentions(plan.reads, v->id)) << v->id;
  }

  // Tenant b's commit puts content into a view that held none, and
  // creates no view.
  const size_t tracked = pool()->views().size();
  auto report = b_->ProcessQuery(ClickSelect(150000, 160000));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(pool()->views().size(), tracked);
  EXPECT_EQ(report->evicted_fragments, 0);
  bool any_new_member = false;
  for (const ViewInfo* v : b_views_) any_new_member |= v->InPool();
  ASSERT_TRUE(any_new_member);

  // The knapsack never weighed that content, so the plan must replan,
  // and the conflict is genuine.
  bool genuine = false;
  EXPECT_FALSE(Validates(plan, &genuine));
  EXPECT_TRUE(genuine);
}

TEST_F(MembershipTokenTest, CandidateTrackingLeavesContendedPlanValid) {
  // Quarantine tenant b's views: its next query tracks candidate
  // fragments on them but materializes nothing.
  {
    CommitGuard commit = pool()->BeginCommit();
    for (ViewInfo* v : b_views_) {
      v->quarantined_until = std::numeric_limits<int64_t>::max();
    }
  }
  const ContendedPlan plan = PlanWithZeroBudget(StoreQ30(120000, 170000));
  ASSERT_TRUE(plan.contended);

  size_t fragments_before = 0;
  for (const ViewInfo* v : b_views_) {
    for (const auto& [attr, part] : v->partitions) {
      fragments_before += part.fragments().size();
    }
  }
  const size_t tracked = pool()->views().size();
  auto report = b_->ProcessQuery(ClickSelect(60000, 75000));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(pool()->views().size(), tracked);
  EXPECT_EQ(report->created_fragments, 0);
  size_t fragments_after = 0;
  for (const ViewInfo* v : b_views_) {
    EXPECT_FALSE(v->InPool()) << v->id;
    for (const auto& [attr, part] : v->partitions) {
      fragments_after += part.fragments().size();
    }
  }
  ASSERT_GT(fragments_after, fragments_before)
      << "the commit must have tracked candidate fragments";

  bool genuine = true;
  EXPECT_TRUE(Validates(plan, &genuine));
}

/// A ledger write is a write of its view: the commit of a query answered
/// from a view credits the view's ledger and publishes the view, so a
/// plan that weighed the view's realized-return gate replans.
using LedgerConflictTest = MembershipTokenTest;

TEST_F(LedgerConflictTest, ForeignReadFromAViewInvalidatesAPlanThatWeighedItsGate) {
  // Tenant a's Q30 view keeps its content under the hot range and loses
  // the pieces over a cold one; its ledger is put in debt by hand, so
  // the gate withholds a top-up for the cold range.
  const Interval cold(300000, 320000);
  ViewInfo* v = nullptr;
  {
    CommitGuard commit = pool()->BeginCommit();
    for (ViewInfo* w : pool()->stat(commit)->PoolViews()) {
      if (!w->partitions.empty()) v = w;
    }
    ASSERT_NE(v, nullptr);
    QueryReport scratch;
    for (auto& [attr, part] : v->partitions) {
      for (FragmentStats& f : part.mutable_fragments()) {
        if (f.materialized && f.interval.Overlaps(cold)) {
          ASSERT_TRUE(pool()->EvictFragment(v, &part, &f, &scratch).ok());
        }
      }
    }
    ASSERT_TRUE(v->InPool());
    v->ledger = {/*paid=*/1e12, /*earned=*/0.0,
                 /*n0=*/v->stats.UndecayedBenefit(), /*created=*/true};
  }
  std::unique_ptr<QueryContext> ctx;
  uint64_t read_epoch = 0;
  const SelectionResolution res =
      Plan(StoreQ30(cold.lo, cold.hi), shared_->options(), &ctx, &read_epoch);
  ASSERT_EQ(res.creations_withheld_by_kind[static_cast<size_t>(
                CreationKind::kTopUp)],
            1);
  ContendedPlan plan;
  plan.read_epoch = read_epoch;
  plan.reads = ctx->delta()->read_footprint();
  ASSERT_TRUE(Mentions(plan.reads, v->id));

  // A foreign query answered from the view credits its ledger.
  const ViewLedger before = v->ledger;
  auto report = b_->ProcessQuery(StoreQ30(120000, 170000));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->used_view, v->id);
  ASSERT_TRUE(report->created_views.empty());
  EXPECT_EQ(v->ledger.earned,
            before.earned + report->base_seconds - report->total_seconds);

  bool genuine = false;
  EXPECT_FALSE(Validates(plan, &genuine));
  EXPECT_TRUE(genuine);
}

/// The gate's pool-membership read is a read of its view. The 12 GB pool
/// holds just one of tenant b's views, and hits expire after the query
/// that made them, so b's first creation displaces all of tenant a's
/// view (new pieces rank ahead of pool pieces of equal value).
class EvictionConflictTest : public MembershipTokenTest {
 protected:
  EngineOptions PoolOptions() const override {
    EngineOptions o = TestOptions();
    o.pool_limit_bytes = 12e9;
    o.decay.t_max = 0.5;
    return o;
  }
};

TEST_F(EvictionConflictTest, ForeignEvictionOfTheLastPieceInvalidatesATopUpPlan) {
  // Tenant a's Q30 view is in debt, but the benefit it accrued since its
  // last creation covers the debt: while it holds pool content, the gate
  // lets a query over a range it does not hold top it up.
  const Interval cold(300000, 320000);
  ViewInfo* v = nullptr;
  {
    CommitGuard commit = pool()->BeginCommit();
    for (ViewInfo* w : pool()->stat(commit)->PoolViews()) {
      if (!w->partitions.empty()) v = w;
    }
    ASSERT_NE(v, nullptr);
    QueryReport scratch;
    for (auto& [attr, part] : v->partitions) {
      for (FragmentStats& f : part.mutable_fragments()) {
        if (f.materialized && f.interval.Overlaps(cold)) {
          ASSERT_TRUE(pool()->EvictFragment(v, &part, &f, &scratch).ok());
        }
      }
    }
    ASSERT_TRUE(v->InPool());
    v->ledger = {/*paid=*/1.0, /*earned=*/0.0,
                 /*n0=*/v->stats.UndecayedBenefit() - 1.0, /*created=*/true};
  }
  std::unique_ptr<QueryContext> ctx;
  uint64_t read_epoch = 0;
  SelectionResolution res =
      Plan(StoreQ30(cold.lo, cold.hi), shared_->options(), &ctx, &read_epoch);
  ASSERT_EQ(res.creations_withheld_by_kind,
            (std::array<int, kCreationKindCount>{}));
  ContendedPlan plan;
  plan.read_epoch = read_epoch;
  plan.reads = ctx->delta()->read_footprint();
  ASSERT_TRUE(Mentions(plan.reads, v->id));

  // Tenant b's first creation evicts the view's last piece.
  auto report = b_->ProcessQuery(ClickSelect(150000, 160000));
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->created_views.size(), 1u);
  ASSERT_GT(report->evicted_fragments, 0);
  ASSERT_FALSE(v->InPool());

  // The commit's evictions wrote the view, so the plan replans. The
  // gate's read alone, of the view's id, already conflicts: every action
  // of a decision adds its view to the commit's write footprint.
  bool genuine = false;
  EXPECT_FALSE(Validates(plan, &genuine));
  EXPECT_TRUE(genuine);
  ContendedPlan gate_read;
  gate_read.read_epoch = read_epoch;
  gate_read.reads = ViewRead(v->id);
  genuine = false;
  EXPECT_FALSE(Validates(gate_read, &genuine));
  EXPECT_TRUE(genuine);
  // The replan withholds what is now a re-creation of a view in debt.
  res = Plan(StoreQ30(cold.lo, cold.hi), shared_->options(), &ctx);
  EXPECT_EQ(res.creations_withheld_by_kind,
            (std::array<int, kCreationKindCount>{0, 1, 0}));
}

// --- schedule fuzz: every query a creator ----------------------------

/// Tenant t's i-th query carries a range no other query in the run
/// ever uses, so every query tracks fresh candidate views and every
/// commit is structural. This is the worst case for view-id
/// reservation: placeholder blocks are leased concurrently across
/// engines, and the fold must assign the final "v<N>" ids in commit
/// order — the fingerprint/report comparison against the sequential
/// replay pins exactly that (created_views is part of every report).
std::vector<PlanPtr> FreshRangePlans(int tenant, int queries) {
  const auto names = BigBenchTemplates::Names();
  std::vector<PlanPtr> out;
  out.reserve(static_cast<size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    const double lo = 50000.0 * tenant + 700.0 * i;
    const std::string& name =
        names[static_cast<size_t>(tenant + i) % names.size()];
    auto plan = BigBenchTemplates::Build(name, lo, lo + 450.0);
    EXPECT_TRUE(plan.ok()) << name;
    out.push_back(*plan);
  }
  return out;
}

TEST(CreatorScheduleFuzzTest, SeededSchedulesOfFreshCreatorsMatchReplay) {
  const std::vector<std::string> tenants = {"c0", "c1", "c2"};
  constexpr int kQueriesEach = 12;
  std::vector<std::vector<PlanPtr>> plans;
  for (int t = 0; t < 3; ++t) plans.push_back(FreshRangePlans(t, kQueriesEach));
  const std::vector<int> per_tenant(3, kQueriesEach);

  for (uint64_t seed : {5u, 23u}) {
    const std::vector<int> schedule = mt::RandomSchedule(per_tenant, seed);

    Catalog seq_catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &seq_catalog).ok());
    const mt::ScheduledRunResult seq = mt::RunScheduled(
        &seq_catalog, TestOptions(), tenants, plans, schedule,
        /*threaded=*/false);

    Catalog thr_catalog;
    ASSERT_TRUE(BigBenchDataset::Generate(SmallData(), &thr_catalog).ok());
    const mt::ScheduledRunResult thr = mt::RunScheduled(
        &thr_catalog, TestOptions(), tenants, plans, schedule,
        /*threaded=*/true);

    EXPECT_EQ(seq.fingerprint, thr.fingerprint) << "seed " << seed;
    ASSERT_EQ(seq.reports.size(), thr.reports.size());
    for (size_t t = 0; t < seq.reports.size(); ++t) {
      ASSERT_EQ(seq.reports[t].size(), thr.reports[t].size()) << tenants[t];
      for (size_t i = 0; i < seq.reports[t].size(); ++i) {
        EXPECT_EQ(seq.reports[t][i], thr.reports[t][i])
            << tenants[t] << " query " << i << " seed " << seed;
      }
    }
  }
}

}  // namespace
}  // namespace deepsea
