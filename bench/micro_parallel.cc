// micro_parallel: the partition fan-out on a multi-attribute workload.
//
// The workload spans 4 attribute subsets of a 4-dimensional synthetic
// stream, so MultiAttributeDetector holds 4 independent SOP children,
// which PartitionedDetector::Advance runs on RunLanes, one lane per child.
// wall_ms times ExecutionEngine::Run alone (not the stream or detector
// set-up); emissions and outliers let runs of two commits be checked for
// equal answers.
//
// Speedup over one core is bounded by the machine and the child count: on
// a single hardware core the lanes time-slice.
//
// Output: one table row plus a RESULT line
//   RESULT bench=micro_parallel wall_ms=... emissions=... outliers=...

#include <cstdio>
#include <memory>
#include <vector>

#include "figure.h"
#include "sop/common/stopwatch.h"
#include "sop/core/multi_attribute.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/engine.h"
#include "sop/gen/synthetic.h"

namespace sop {
namespace {

Workload BuildWorkload() {
  Workload w(WindowType::kCount);
  const int set_a = w.AddAttributeSet({0});
  const int set_b = w.AddAttributeSet({1});
  const int set_c = w.AddAttributeSet({2});
  const int set_d = w.AddAttributeSet({3});
  // Three queries per attribute set, paper-range parameters scaled to the
  // bench stream (r band where clusters give tens of neighbors).
  for (const int set : {set_a, set_b, set_c, set_d}) {
    w.AddQuery(OutlierQuery(400.0, 10, 4000, 400, set));
    w.AddQuery(OutlierQuery(700.0, 20, 3200, 400, set));
    w.AddQuery(OutlierQuery(900.0, 30, 2400, 800, set));
  }
  return w;
}

std::vector<Point> BuildStream(int64_t n) {
  gen::SyntheticOptions options;
  options.dimensions = 4;
  options.seed = 20160626;
  return gen::GenerateSynthetic(n, options);
}

}  // namespace
}  // namespace sop

int main() {
  using namespace sop;
  const int64_t n = bench::FastMode() ? 8000 : 40000;
  const Workload workload = BuildWorkload();
  const std::vector<Point> points = BuildStream(n);
  MultiAttributeDetector detector(workload, [](const Workload& sub) {
    return std::make_unique<SopDetector>(sub);
  });
  std::printf(
      "micro_parallel: %lld points, %zu queries over %zu attribute-set "
      "partitions (multiattr-sop)\n",
      static_cast<long long>(n), workload.num_queries(),
      detector.num_children());

  ExecutionEngine engine;
  Stopwatch watch;
  const RunMetrics metrics = engine.Run(workload, points, &detector);
  const double wall_ms = watch.ElapsedMillis();

  std::printf("%12s %12s  %s\n", "wall_ms", "cpu/win_ms", "latency");
  std::printf("%12.1f %12.3f  %s\n", wall_ms, metrics.avg_cpu_ms_per_window,
              metrics.LatencyToString().c_str());
  std::printf("RESULT bench=micro_parallel wall_ms=%.1f emissions=%llu "
              "outliers=%llu\n",
              wall_ms, static_cast<unsigned long long>(metrics.total_emissions),
              static_cast<unsigned long long>(metrics.total_outliers));
  return 0;
}
