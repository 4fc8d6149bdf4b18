#ifndef DEEPSEA_STORAGE_FAULT_POLICY_H_
#define DEEPSEA_STORAGE_FAULT_POLICY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace deepsea {

/// The mutating / reading operations of SimFs that can be failed by a
/// FaultPolicy.
enum class FsOp {
  kCreate = 0,
  kPut,
  kDelete,
  kRead,
};

constexpr size_t kFsOpCount = 4;

const char* FsOpName(FsOp op);

/// Fault-injection seam of SimFs: consulted before every guarded
/// operation. Returning OK lets the operation proceed; a non-OK status
/// fails it before any state changes, and the status is what the caller
/// sees. Transient faults (StatusCode::kUnavailable) model storage that
/// may recover on retry; permanent faults (kResourceExhausted,
/// kInternal) model conditions retrying cannot fix.
///
/// Thread-safety: every SimFs operation holds the file system's
/// internal mutex while consulting the policy, so Inject calls are
/// serialized even when sharded commits run concurrently — implementations need no locking of
/// their own, and the injected schedule is a function of the global
/// guarded-operation order.
class FaultPolicy {
 public:
  virtual ~FaultPolicy() = default;

  /// Decide the fate of `op` on `path`. Called once per guarded
  /// operation, before it takes effect.
  virtual Status Inject(FsOp op, const std::string& path) = 0;
};

/// One deterministic fault-injection rule of a ScheduledFaultPolicy.
/// A rule *matches* an operation when the op kind is listed in `ops`
/// (empty = every kind) and the path contains `path_substring` (empty =
/// every path). Among matching operations, the rule *fires* when
///   * the match ordinal is past `after_count`, and
///   * `every_nth` > 0 and this is the every_nth-th match since
///     `after_count`, or `probability` > 0 and the policy's seeded RNG
///     draws true, and
///   * fewer than `max_failures` faults were already injected by this
///     rule (max_failures < 0 = unlimited).
struct FaultRule {
  std::vector<FsOp> ops;       ///< empty = match every operation kind
  std::string path_substring;  ///< empty = match every path
  int64_t every_nth = 0;       ///< fire every Nth matching op (0 = off)
  double probability = 0.0;    ///< fire with this seeded probability
  int64_t after_count = 0;     ///< skip the first `after_count` matches
  int64_t max_failures = -1;   ///< total fault budget (-1 = unlimited)
  /// Transient faults return kUnavailable; permanent faults return
  /// `permanent_code` (kResourceExhausted by default, kInternal also
  /// sensible).
  bool transient = false;
  StatusCode permanent_code = StatusCode::kResourceExhausted;
};

/// Deterministic, seed-driven FaultPolicy: a list of FaultRules matched
/// in order (the first rule that fires decides the fault). With the same
/// seed and the same operation sequence the injected schedule is
/// identical — which is what makes fault-injected multi-tenant runs
/// replayable: the operation sequence is a function of the commit order,
/// so the same schedule produces the same faults on any thread count.
class ScheduledFaultPolicy : public FaultPolicy {
 public:
  explicit ScheduledFaultPolicy(uint64_t seed) : rng_(seed) {}

  /// Appends a rule; rules are evaluated in insertion order.
  void AddRule(FaultRule rule) { rules_.push_back({std::move(rule), 0, 0}); }

  Status Inject(FsOp op, const std::string& path) override;

  // --- counters for assertions and fault-rate accounting ---

  /// Guarded operations seen (i.e. Inject calls).
  int64_t ops_seen() const { return ops_seen_; }
  /// Faults injected, total and per operation kind.
  int64_t faults_injected() const { return faults_injected_; }
  int64_t faults_for(FsOp op) const {
    return faults_by_op_[static_cast<size_t>(op)];
  }
  /// Injected faults / operations seen (0 when nothing was seen).
  double FaultRate() const {
    return ops_seen_ == 0
               ? 0.0
               : static_cast<double>(faults_injected_) /
                     static_cast<double>(ops_seen_);
  }

 private:
  struct RuleState {
    FaultRule rule;
    int64_t matched = 0;  ///< matching ops seen by this rule
    int64_t fired = 0;    ///< faults this rule injected
  };

  Rng rng_;
  std::vector<RuleState> rules_;
  int64_t ops_seen_ = 0;
  int64_t faults_injected_ = 0;
  std::array<int64_t, kFsOpCount> faults_by_op_{};
};

}  // namespace deepsea

#endif  // DEEPSEA_STORAGE_FAULT_POLICY_H_
