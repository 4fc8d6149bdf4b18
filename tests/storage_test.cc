#include "storage/sim_fs.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/fault_policy.h"

namespace deepsea {
namespace {

/// Fails every operation of one kind with a fixed status.
class FailOpPolicy : public FaultPolicy {
 public:
  explicit FailOpPolicy(FsOp op,
                        Status status = Status::Unavailable("injected"))
      : op_(op), status_(status) {}
  Status Inject(FsOp op, const std::string& path) override {
    (void)path;
    return op == op_ ? status_ : Status::OK();
  }

 private:
  FsOp op_;
  Status status_;
};

TEST(SimFsTest, CreateReadDelete) {
  SimFs fs(128);
  ASSERT_TRUE(fs.Create("a/x", 1000).ok());
  EXPECT_TRUE(fs.Exists("a/x"));
  auto size = fs.Size("a/x");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1000.0);
  auto read = fs.Read("a/x");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(fs.ledger().bytes_read, 1000.0);
  ASSERT_TRUE(fs.Delete("a/x").ok());
  EXPECT_FALSE(fs.Exists("a/x"));
  EXPECT_FALSE(fs.Delete("a/x").ok());
}

TEST(SimFsTest, CreateDuplicateFails) {
  SimFs fs;
  ASSERT_TRUE(fs.Create("f", 1).ok());
  EXPECT_EQ(fs.Create("f", 1).code(), StatusCode::kAlreadyExists);
}

TEST(SimFsTest, PutReplaces) {
  SimFs fs;
  fs.Put("f", 100);
  fs.Put("f", 300);
  auto size = fs.Size("f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 300.0);
  EXPECT_EQ(fs.ledger().files_created, 1);
  EXPECT_EQ(fs.ledger().bytes_written, 400.0);
}

TEST(SimFsTest, NumBlocksRoundsUp) {
  SimFs fs(128);
  fs.Put("small", 1);
  fs.Put("exact", 128);
  fs.Put("big", 129);
  fs.Put("empty", 0);
  EXPECT_EQ(*fs.NumBlocks("small"), 1);
  EXPECT_EQ(*fs.NumBlocks("exact"), 1);
  EXPECT_EQ(*fs.NumBlocks("big"), 2);
  EXPECT_EQ(*fs.NumBlocks("empty"), 0);
}

TEST(SimFsTest, PrefixAccounting) {
  SimFs fs;
  fs.Put("pool/v1/a", 10);
  fs.Put("pool/v1/b", 20);
  fs.Put("pool/v2/a", 40);
  fs.Put("tmp/x", 100);
  EXPECT_EQ(fs.TotalBytes("pool/"), 70.0);
  EXPECT_EQ(fs.TotalBytes("pool/v1/"), 30.0);
  EXPECT_EQ(fs.TotalBytes(), 170.0);
  EXPECT_EQ(fs.List("pool/").size(), 3u);
  EXPECT_EQ(fs.DeleteAll("pool/v1/"), 2);
  EXPECT_EQ(fs.TotalBytes("pool/"), 40.0);
}

TEST(SimFsTest, LedgerTracksDeletes) {
  SimFs fs;
  fs.Put("a", 50);
  ASSERT_TRUE(fs.Delete("a").ok());
  EXPECT_EQ(fs.ledger().bytes_deleted, 50.0);
  EXPECT_EQ(fs.ledger().files_deleted, 1);
}

TEST(SimFsTest, LedgerReset) {
  SimFs fs;
  fs.Put("a", 50);
  fs.mutable_ledger()->Reset();
  EXPECT_EQ(fs.ledger().bytes_written, 0.0);
  EXPECT_TRUE(fs.Exists("a"));  // files survive a ledger reset
}

TEST(SimFsTest, ListIsSorted) {
  SimFs fs;
  fs.Put("b", 1);
  fs.Put("a", 1);
  fs.Put("c", 1);
  EXPECT_EQ(fs.List(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SimFsTest, OverwriteLedger) {
  SimFs fs;
  ASSERT_TRUE(fs.Put("f", 100).ok());
  ASSERT_TRUE(fs.Put("f", 300).ok());
  EXPECT_EQ(fs.ledger().files_overwritten, 1);
  EXPECT_EQ(fs.ledger().bytes_overwritten, 100.0);  // the replaced bytes
  ASSERT_TRUE(fs.Put("g", 5).ok());  // fresh path: not an overwrite
  EXPECT_EQ(fs.ledger().files_overwritten, 1);
}

TEST(SimFsTest, FailedOpChangesNothingButTheFailureCounters) {
  SimFs fs;
  ASSERT_TRUE(fs.Put("keep", 50).ok());
  const double written_before = fs.ledger().bytes_written;
  FailOpPolicy fail_put(FsOp::kPut);
  fs.set_fault_policy(&fail_put);
  const Status st = fs.Put("new", 100);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(st.IsTransient());
  EXPECT_FALSE(fs.Exists("new"));
  EXPECT_EQ(fs.TotalBytes(), 50.0);
  EXPECT_EQ(fs.ledger().bytes_written, written_before);
  EXPECT_EQ(fs.ledger().failed_puts, 1);
  EXPECT_EQ(fs.ledger().FailedOps(), 1);
  // Other op kinds still pass.
  EXPECT_TRUE(fs.Delete("keep").ok());
  fs.set_fault_policy(nullptr);
  EXPECT_TRUE(fs.Put("new", 100).ok());
}

TEST(SimFsTest, EveryGuardedOpKindCanBeFailed) {
  {
    SimFs fs;
    FailOpPolicy p(FsOp::kCreate);
    fs.set_fault_policy(&p);
    EXPECT_FALSE(fs.Create("f", 1).ok());
    EXPECT_FALSE(fs.Exists("f"));
    EXPECT_EQ(fs.ledger().failed_creates, 1);
  }
  {
    SimFs fs;
    FailOpPolicy p(FsOp::kPut);
    fs.set_fault_policy(&p);
    EXPECT_FALSE(fs.Put("f", 1).ok());
    EXPECT_FALSE(fs.Exists("f"));
    EXPECT_EQ(fs.ledger().failed_puts, 1);
  }
  {
    SimFs fs;
    ASSERT_TRUE(fs.Put("f", 1).ok());
    FailOpPolicy p(FsOp::kDelete);
    fs.set_fault_policy(&p);
    EXPECT_FALSE(fs.Delete("f").ok());
    EXPECT_TRUE(fs.Exists("f"));  // a failed delete removes nothing
    EXPECT_EQ(fs.ledger().failed_deletes, 1);
  }
  {
    SimFs fs;
    ASSERT_TRUE(fs.Put("f", 1).ok());
    FailOpPolicy p(FsOp::kRead);
    fs.set_fault_policy(&p);
    EXPECT_FALSE(fs.Read("f").ok());
    EXPECT_EQ(fs.ledger().bytes_read, 0.0);
    EXPECT_EQ(fs.ledger().failed_reads, 1);
  }
}

TEST(SimFsTest, RestoreForRollbackBypassesPolicyAndLedger) {
  SimFs fs;
  ASSERT_TRUE(fs.Put("a", 100).ok());
  ASSERT_TRUE(fs.Put("b", 200).ok());
  const double written = fs.ledger().bytes_written;
  const double deleted = fs.ledger().bytes_deleted;
  // A policy that fails everything must not stop a rollback restore.
  FailOpPolicy fail_all_puts(FsOp::kPut, Status::Internal("down"));
  fs.set_fault_policy(&fail_all_puts);
  fs.RestoreForRollback("a", /*existed=*/false, 0.0);     // undo a create
  fs.RestoreForRollback("b", /*existed=*/true, 150.0);    // undo an overwrite
  fs.RestoreForRollback("c", /*existed=*/true, 70.0);     // undo a delete
  EXPECT_FALSE(fs.Exists("a"));
  EXPECT_EQ(*fs.Size("b"), 150.0);
  EXPECT_EQ(*fs.Size("c"), 70.0);
  EXPECT_EQ(fs.ledger().rollback_restores, 3);
  // Write/delete totals keep recording only the staged (undone) work.
  EXPECT_EQ(fs.ledger().bytes_written, written);
  EXPECT_EQ(fs.ledger().bytes_deleted, deleted);
}

TEST(ScheduledFaultPolicyTest, EveryNthAfterCountAndBudget) {
  ScheduledFaultPolicy policy(/*seed=*/7);
  FaultRule rule;
  rule.ops = {FsOp::kPut};
  rule.every_nth = 2;       // every 2nd matching op...
  rule.after_count = 1;     // ...counted after skipping the first match
  rule.max_failures = 2;    // ...at most twice
  rule.transient = true;
  policy.AddRule(rule);
  SimFs fs;
  fs.set_fault_policy(&policy);
  std::vector<bool> failed;
  for (int i = 0; i < 8; ++i) {
    std::string path = "p";
    path += std::to_string(i);
    failed.push_back(!fs.Put(path, 1).ok());
  }
  // Matches 2,4 (the 2nd and 4th past the skipped first) fail; budget
  // then exhausted.
  EXPECT_EQ(failed, (std::vector<bool>{false, false, true, false, true,
                                       false, false, false}));
  EXPECT_EQ(policy.faults_injected(), 2);
  EXPECT_EQ(policy.faults_for(FsOp::kPut), 2);
  EXPECT_EQ(policy.ops_seen(), 8);
}

TEST(ScheduledFaultPolicyTest, PathSubstringScopesTheRule) {
  ScheduledFaultPolicy policy(/*seed=*/7);
  FaultRule rule;
  rule.path_substring = "pool/v1/";
  rule.every_nth = 1;
  policy.AddRule(rule);
  SimFs fs;
  fs.set_fault_policy(&policy);
  EXPECT_FALSE(fs.Put("pool/v1/full", 10).ok());
  EXPECT_TRUE(fs.Put("pool/v2/full", 10).ok());
  EXPECT_TRUE(fs.Put("tmp/x", 10).ok());
}

TEST(ScheduledFaultPolicyTest, TransientAndPermanentCodes) {
  ScheduledFaultPolicy policy(/*seed=*/7);
  FaultRule transient;
  transient.path_substring = "t/";
  transient.every_nth = 1;
  transient.transient = true;
  policy.AddRule(transient);
  FaultRule permanent;
  permanent.path_substring = "p/";
  permanent.every_nth = 1;
  permanent.permanent_code = StatusCode::kInternal;
  policy.AddRule(permanent);
  SimFs fs;
  fs.set_fault_policy(&policy);
  const Status t = fs.Put("t/x", 1);
  EXPECT_EQ(t.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(t.IsTransient());
  const Status p = fs.Put("p/x", 1);
  EXPECT_EQ(p.code(), StatusCode::kInternal);
  EXPECT_FALSE(p.IsTransient());
}

TEST(ScheduledFaultPolicyTest, ProbabilityIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    ScheduledFaultPolicy policy(seed);
    FaultRule rule;
    rule.probability = 0.3;
    rule.transient = true;
    policy.AddRule(rule);
    SimFs fs;
    fs.set_fault_policy(&policy);
    std::vector<bool> failed;
    for (int i = 0; i < 64; ++i) {
      std::string path = "p";
      path += std::to_string(i);
      failed.push_back(!fs.Put(path, 1).ok());
    }
    return failed;
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));   // same seed, same op sequence -> same schedule
  EXPECT_NE(a, run(43));   // different seed -> different schedule
  int fails = 0;
  for (bool f : a) fails += f ? 1 : 0;
  EXPECT_GT(fails, 0);
  EXPECT_LT(fails, 64);
}

}  // namespace
}  // namespace deepsea
