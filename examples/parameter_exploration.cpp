// Parameter exploration: one analyst sweeps a grid of (r, k) settings
// because the right parameters are unknown up front (paper Sec. 1: "even a
// single data analyst may submit multiple queries with distinct parameter
// settings").
//
//   build/examples/parameter_exploration
//
// The whole grid runs as ONE shared SOP workload; the example prints the
// outlier rate each setting produces (a cheap way to pick a knee point)
// and compares the shared run against per-query LEAP execution to show
// what sharing buys.

#include <cstdio>
#include <memory>
#include <vector>

#include "sop/sop.h"

int main() {
  using namespace sop;

  const std::vector<double> r_grid = {300, 600, 1200, 2400};
  const std::vector<int64_t> k_grid = {10, 20, 40};
  Workload workload(WindowType::kCount);
  for (const double r : r_grid) {
    for (const int64_t k : k_grid) {
      workload.AddQuery(OutlierQuery(r, k, /*win=*/5000, /*slide=*/1000));
    }
  }

  const int64_t kPoints = 15000;
  auto make_source = [&] {
    gen::SyntheticOptions data;
    data.seed = 99;
    return std::make_unique<gen::SyntheticSource>(kPoints, data);
  };

  // Shared execution (SOP).
  std::vector<uint64_t> outliers(workload.num_queries(), 0);
  std::vector<uint64_t> evaluated(workload.num_queries(), 0);
  std::unique_ptr<OutlierDetector> sop =
      CreateDetector("sop", workload);
  auto source = make_source();
  const RunMetrics sop_metrics = ExecutionEngine().Run(
      workload, source.get(), sop.get(), [&](const QueryResult& result) {
        outliers[result.query_index] += result.outliers.size();
        ++evaluated[result.query_index];
      });

  std::printf("Outlier rate per (r, k) setting — window 5000, slide 1000:\n");
  std::printf("%8s", "r \\ k");
  for (const int64_t k : k_grid) std::printf(" %11lld", static_cast<long long>(k));
  std::printf("\n");
  size_t qi = 0;
  for (const double r : r_grid) {
    std::printf("%8.0f", r);
    for (size_t c = 0; c < k_grid.size(); ++c, ++qi) {
      // Average outliers per emitted window.
      const double avg = evaluated[qi] == 0
                             ? 0.0
                             : static_cast<double>(outliers[qi]) /
                                   static_cast<double>(evaluated[qi]);
      std::printf(" %11.1f", avg);
    }
    std::printf("\n");
  }

  // The same workload, one independent LEAP instance per query (the
  // pre-SOP way to run a parameter sweep).
  std::unique_ptr<OutlierDetector> leap =
      CreateDetector("leap", workload);
  auto source2 = make_source();
  const RunMetrics leap_metrics =
      ExecutionEngine().Run(workload, source2.get(), leap.get());

  std::printf("\nShared SOP run:        %8.2f ms/slide, peak %7.2f MB\n",
              sop_metrics.avg_cpu_ms_per_window,
              static_cast<double>(sop_metrics.peak_memory_bytes) / 1048576.0);
  std::printf("Per-query LEAP run:    %8.2f ms/slide, peak %7.2f MB\n",
              leap_metrics.avg_cpu_ms_per_window,
              static_cast<double>(leap_metrics.peak_memory_bytes) / 1048576.0);
  std::printf("Sharing speedup:       %8.2fx CPU, %7.2fx memory\n",
              leap_metrics.avg_cpu_ms_per_window /
                  sop_metrics.avg_cpu_ms_per_window,
              static_cast<double>(leap_metrics.peak_memory_bytes) /
                  static_cast<double>(sop_metrics.peak_memory_bytes));
  return 0;
}
