// Reproduces Figure 1: histogram of selection ranges on SDSS attribute
// `ra` of PhotoPrimary (hits per 30-degree bin over one year of
// queries). The paper's trace shows a dominant hot band between 200 and
// 300 degrees, a secondary hot spot near 100 degrees, and long cold
// tails; our synthetic trace model reproduces those properties (the
// real trace is not redistributable — see DESIGN.md).

#include <algorithm>
#include <cstdio>

#include "common/str_util.h"

#include "bench_util.h"
#include "workload/sdss.h"

using namespace deepsea;

int main() {
  bench::Banner("Figure 1", "Histogram of selection ranges on SDSS (10000 queries)");
  SdssTraceModel model(SdssTraceModel::Config{}, 2017);
  const auto trace = model.GenerateTrace(10000);
  const Interval domain(-20.0, 400.0);
  const auto hist = SdssTraceModel::HitHistogram(trace, domain, 30.0);

  TablePrinter table(12);
  table.Header({"ra bin", "hits", "bar"});
  double max_count = 1.0;
  for (int b = 0; b < hist.num_bins(); ++b) {
    max_count = std::max(max_count, hist.bin_count(b));
  }
  for (int b = 0; b < hist.num_bins(); ++b) {
    const Interval bi = hist.bin_interval(b);
    const int bar = static_cast<int>(40.0 * hist.bin_count(b) / max_count);
    table.Row({StrFormat("%.0f..%.0f", bi.lo, bi.hi),
               StrFormat("%.0f", hist.bin_count(b)), std::string(bar, '#')});
  }
  std::printf(
      "\nShape check (paper): hot band 200-300 deg >> cold tails; secondary"
      " spot near 100 deg.\n");
  const double hot = hist.MassInRange(Interval(220, 280));
  const double secondary = hist.MassInRange(Interval(90, 120));
  const double cold = hist.MassInRange(Interval(320, 400));
  std::printf("hot(220-280)=%.0f  secondary(90-120)=%.0f  cold(320-400)=%.0f\n",
              hot, secondary, cold);
  bench::ShapeGate shapes;
  shapes.Check("fig1 hot band > secondary spot > cold tail",
               hot > secondary && secondary > cold);
  return shapes.ExitCode();
}
