#ifndef DEEPSEA_TESTS_EVICT_COUNTER_H_
#define DEEPSEA_TESTS_EVICT_COUNTER_H_

// EvictCounter: a TraceObserver that also counts OnEvict calls, by the
// tenant each is stamped with. Counters come from the QueryReport fold;
// this observer checks the hook side — that the pool's OnEvict events
// reach the observer, once per piece the reports count, routed to the
// engine whose commit evicted the piece.

#include <cstdint>
#include <map>
#include <string>

#include "exp/trace.h"

namespace deepsea {

class EvictCounter : public TraceObserver {
 public:
  using TraceObserver::TraceObserver;

  void OnEvict(const ViewInfo& view, const std::string& attr,
               const Interval& interval, double bytes,
               const std::string& tenant) override {
    (void)view;
    (void)attr;
    (void)interval;
    (void)bytes;
    ++evictions_;
    ++by_tenant_[tenant];
  }

  int64_t evictions() const { return evictions_; }
  const std::map<std::string, int64_t>& evictions_by_tenant() const {
    return by_tenant_;
  }

 private:
  int64_t evictions_ = 0;
  std::map<std::string, int64_t> by_tenant_;
};

}  // namespace deepsea

#endif  // DEEPSEA_TESTS_EVICT_COUNTER_H_
