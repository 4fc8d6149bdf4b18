#include "host_probe.h"

#include <time.h>

#include <algorithm>

namespace deepsea {
namespace perfbench {
namespace {

uint64_t XorShift(uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double Unit(uint64_t x) { return static_cast<double>(x >> 11) * 0x1.0p-53; }

constexpr int kSearches = 20000;

}  // namespace

HostProbe::HostProbe() : table_(size_t{1} << 15), values_(8192) {}

double HostProbe::RunUs() {
  const double start = ThreadCpuSeconds();
  std::fill(table_.begin(), table_.end(), 0);
  const size_t mask = table_.size() - 1;
  uint64_t x = 88172645463325252ull;
  for (double& v : values_) {
    x = XorShift(x);
    v = Unit(x);
    size_t h = static_cast<size_t>((x * 0x9E3779B97F4A7C15ull) >> 49) & mask;
    while (table_[h] != 0 && table_[h] != x) h = (h + 1) & mask;
    table_[h] = x;
  }
  std::sort(values_.begin(), values_.end());
  double acc = 0.0;
  for (int i = 0; i < kSearches; ++i) {
    x = XorShift(x);
    acc += *std::lower_bound(values_.begin(), values_.end() - 1, Unit(x));
  }
  sink_ = sink_ + acc;
  return 1e6 * (ThreadCpuSeconds() - start);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace perfbench
}  // namespace deepsea
