#include "storage/fault_policy.h"

#include <algorithm>

#include "common/str_util.h"

namespace deepsea {

const char* FsOpName(FsOp op) {
  switch (op) {
    case FsOp::kCreate:
      return "create";
    case FsOp::kPut:
      return "put";
    case FsOp::kDelete:
      return "delete";
    case FsOp::kRead:
      return "read";
  }
  return "unknown";
}

Status ScheduledFaultPolicy::Inject(FsOp op, const std::string& path) {
  ++ops_seen_;
  for (RuleState& rs : rules_) {
    const FaultRule& r = rs.rule;
    if (!r.ops.empty() &&
        std::find(r.ops.begin(), r.ops.end(), op) == r.ops.end()) {
      continue;
    }
    if (!r.path_substring.empty() &&
        path.find(r.path_substring) == std::string::npos) {
      continue;
    }
    ++rs.matched;
    if (rs.matched <= r.after_count) continue;
    if (r.max_failures >= 0 && rs.fired >= r.max_failures) continue;
    const int64_t eligible = rs.matched - r.after_count;
    bool fire = false;
    if (r.every_nth > 0 && eligible % r.every_nth == 0) fire = true;
    if (r.probability > 0.0 && rng_.Bernoulli(r.probability)) fire = true;
    if (!fire) continue;
    ++rs.fired;
    ++faults_injected_;
    ++faults_by_op_[static_cast<size_t>(op)];
    const std::string msg =
        StrFormat("injected %s fault on %s op #%lld (%s)",
                  r.transient ? "transient" : "permanent", FsOpName(op),
                  static_cast<long long>(ops_seen_), path.c_str());
    if (r.transient) return Status::Unavailable(msg);
    return Status(r.permanent_code, msg);
  }
  return Status::OK();
}

}  // namespace deepsea
