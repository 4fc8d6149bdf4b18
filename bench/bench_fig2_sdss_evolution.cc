// Reproduces Figure 2: evolution of SDSS selection ranges over the
// first 10,000 queries. The paper's plot shows the first ~3,000
// queries focused on the 200-300 degree band, a later shift to values
// around 100 degrees, and occasional whole-domain selections.

#include <algorithm>
#include <cstdio>

#include "common/str_util.h"

#include "bench_util.h"
#include "workload/sdss.h"

using namespace deepsea;

int main() {
  bench::Banner("Figure 2", "Evolution of selection ranges on SDSS (10000 queries)");
  SdssTraceModel model(SdssTraceModel::Config{}, 2017);
  const auto trace = model.GenerateTrace(10000);

  TablePrinter table(12);
  table.Header({"query", "range lo", "range hi", "midpoint"});
  for (size_t i = 0; i < trace.size(); i += 500) {
    table.Row({std::to_string(i + 1), StrFormat("%.1f", trace[i].lo),
               StrFormat("%.1f", trace[i].hi), StrFormat("%.1f", trace[i].Mid())});
  }

  // Phase statistics matching the paper's description.
  auto phase_mean = [&](size_t from, size_t to) {
    double acc = 0.0;
    for (size_t i = from; i < to; ++i) acc += trace[i].Mid();
    return acc / static_cast<double>(to - from);
  };
  int full_domain = 0;
  for (const Interval& iv : trace) {
    if (iv.Width() > 350.0) ++full_domain;
  }
  const double early = phase_mean(0, 3000);
  const double late = phase_mean(3000, 10000);
  std::printf("\nmean midpoint queries 1-3000:    %.1f deg (paper: 200-300 band)\n",
              early);
  std::printf("mean midpoint queries 3001-10000: %.1f deg (paper: shift toward 100)\n",
              late);
  std::printf("whole-domain selections: %d (paper: vertical line near query 1000)\n",
              full_domain);
  bench::ShapeGate shapes;
  shapes.Check("fig2 queries 1-3000 centre in 200-300 deg",
               early >= 200.0 && early <= 300.0);
  shapes.Check("fig2 later queries shift toward 100 deg", late < early);
  shapes.Check("fig2 whole-domain selections occur", full_domain > 0);
  return shapes.ExitCode();
}
