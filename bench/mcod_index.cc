// Baseline fidelity check: MCOD with linear range scans (the SOP paper's
// characterization: "compare each data point with all the other data
// points in each window") versus MCOD with grid-indexed range scans
// (emulating the original MCOD's M-tree). Shows that even an indexed MCOD
// retains the per-point all-neighbor evidence and its memory footprint —
// the index helps CPU only.

#include <cstdio>
#include <memory>

#include "bench_data.h"
#include "figure.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"

int main() {
  using namespace sop;
  using namespace sop::bench;

  const int64_t kStream = FastMode() ? 8000 : 30000;
  gen::WorkloadGenOptions options;
  options.slide_fixed = 500;
  options.r_fixed = 200.0;
  options.k_fixed = 30;
  options.win_lo = 1000;
  options.win_hi = FastMode() ? 4000 : 10000;
  options.slide_quantum = 500;

  std::printf(
      "================================================================\n");
  std::printf("MCOD range-scan strategy: linear (paper's description) vs "
              "grid index (M-tree analog)\n");
  std::printf("  case-D workloads, r=200 k=30, STT-like stream of %lld "
              "trades\n",
              static_cast<long long>(kStream));
  std::printf(
      "================================================================\n");
  std::printf("%10s %16s %16s %16s %16s\n", "queries", "linear cpu(ms)",
              "grid cpu(ms)", "linear mem(MB)", "grid mem(MB)");

  for (const size_t num_queries : MaybeShrinkSizes({10, 100, 500})) {
    gen::WorkloadGenOptions per_size = options;
    per_size.seed = options.seed + num_queries * 31;
    const Workload workload = gen::GenerateWorkload(
        gen::WorkloadCase::kD, num_queries, WindowType::kCount, per_size);

    gen::SttOptions data;
    data.seed = 19980427;

    std::unique_ptr<OutlierDetector> linear = CreateDetector("mcod", workload);
    gen::SttSource s1(kStream, data);
    const RunMetrics m_linear =
        ExecutionEngine().Run(workload, &s1, linear.get());

    std::unique_ptr<OutlierDetector> grid =
        CreateDetector("mcod-grid", workload);
    gen::SttSource s2(kStream, data);
    const RunMetrics m_grid =
        ExecutionEngine().Run(workload, &s2, grid.get());

    if (m_linear.total_outliers != m_grid.total_outliers) {
      std::printf("ERROR: result mismatch between variants!\n");
      return 1;
    }
    std::printf("%10zu %16.3f %16.3f %16.3f %16.3f\n", num_queries,
                m_linear.avg_cpu_ms_per_window, m_grid.avg_cpu_ms_per_window,
                static_cast<double>(m_linear.peak_memory_bytes) / 1048576.0,
                static_cast<double>(m_grid.peak_memory_bytes) / 1048576.0);
    std::printf("RESULT fig=mcod_index queries=%zu linear_cpu=%.4f "
                "grid_cpu=%.4f\n",
                num_queries, m_linear.avg_cpu_ms_per_window,
                m_grid.avg_cpu_ms_per_window);
    std::fflush(stdout);
  }
  return 0;
}
