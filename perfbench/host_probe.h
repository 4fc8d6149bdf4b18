#ifndef DEEPSEA_PERFBENCH_HOST_PROBE_H_
#define DEEPSEA_PERFBENCH_HOST_PROBE_H_

// Host-speed probe of the repo benchmark.
//
// The benchmark runs on shared virtual machines whose speed drifts with
// the load of their neighbours: on a 4-vCPU VM, identical passes of
// sdss_10g took between 2300 and 3950 us of CPU per query within a few
// minutes. Drift like that swamps any engine change, so each client
// thread runs this fixed kernel every kProbeIntervalS of its timed phase,
// between two queries, and times it in thread CPU time. The kernel is a
// sort, open-addressing hash inserts and binary searches over arrays
// allocated once, so the engine's heap cannot change its cost and engine
// code changes cannot change it at all. Over a 150-second run the
// per-pass CPU time per query tracked the probe time with a log-log slope
// of 1.1 (correlation 0.92); dividing one by the other cut the spread of
// per-pass values from a coefficient of variation of 0.12 to 0.05.
//
// Host-time metrics are reported at a reference host speed: each raw
// time of a pass is multiplied by HostScale(median probe time of the
// pass), which is 1 when the probe takes kProbeNominalUs.

#include <cstdint>
#include <vector>

namespace deepsea {
namespace perfbench {

/// Probe spacing within one client's timed phase.
constexpr double kProbeIntervalS = 0.1;

/// Probe time that defines the reference host speed (about its median on
/// a 4-vCPU Xeon virtual machine, gcc 12.2, RelWithDebInfo).
constexpr double kProbeNominalUs = 3000.0;

class HostProbe {
 public:
  HostProbe();

  /// Runs the kernel once; returns its thread CPU time in microseconds.
  double RunUs();

 private:
  std::vector<uint64_t> table_;
  std::vector<double> values_;
  volatile double sink_ = 0.0;
};

/// Factor that brings a raw host time measured while the probe took
/// `probe_us` to the reference host speed.
inline double HostScale(double probe_us) {
  return probe_us > 0.0 ? kProbeNominalUs / probe_us : 1.0;
}

/// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

}  // namespace perfbench
}  // namespace deepsea

#endif  // DEEPSEA_PERFBENCH_HOST_PROBE_H_
