// Ablation of cross-group sharing (paper Sec. 3.2): integrated SOP (one
// LSky per point serving every k-group via Def. 6) versus the strawman
// that runs an independent skyband query per k-group. The paper predicts
// "significant wastage of CPU and memory resources" for the strawman
// because skyband points are shared across groups.

#include <cstdio>
#include <memory>

#include "bench_data.h"
#include "figure.h"
#include "sop/core/grouped_sop.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/engine.h"

int main() {
  using namespace sop;
  using namespace sop::bench;

  const int64_t kStream = FastMode() ? 6000 : 20000;
  gen::WorkloadGenOptions options;
  options.win_fixed = 10000;
  options.slide_fixed = 500;

  std::printf(
      "================================================================\n");
  std::printf("Ablation — cross-group sharing (integrated SOP vs one "
              "skyband per k-group)\n");
  std::printf("  case-C workloads (k in [30,1500), r in [200,2000)), "
              "%lld-point synthetic stream\n",
              static_cast<long long>(kStream));
  std::printf(
      "================================================================\n");
  std::printf("%10s %16s %16s %16s %16s %10s\n", "queries", "sop cpu(ms)",
              "grouped cpu(ms)", "sop mem(MB)", "grouped mem(MB)", "groups");

  for (const size_t num_queries : MaybeShrinkSizes({10, 50, 100, 200})) {
    gen::WorkloadGenOptions per_size = options;
    per_size.seed = options.seed + num_queries * 977;
    const Workload workload = gen::GenerateWorkload(
        gen::WorkloadCase::kC, num_queries, WindowType::kCount, per_size);

    SopDetector integrated(workload);
    gen::SyntheticOptions data;
    data.seed = 20160626;
    gen::SyntheticSource s1(kStream, data);
    const RunMetrics m_int =
        ExecutionEngine().Run(workload, &s1, &integrated);

    GroupedSopDetector grouped(workload);
    gen::SyntheticSource s2(kStream, data);
    const RunMetrics m_grp = ExecutionEngine().Run(workload, &s2, &grouped);

    std::printf("%10zu %16.3f %16.3f %16.3f %16.3f %10zu\n", num_queries,
                m_int.avg_cpu_ms_per_window, m_grp.avg_cpu_ms_per_window,
                static_cast<double>(m_int.peak_memory_bytes) / 1048576.0,
                static_cast<double>(m_grp.peak_memory_bytes) / 1048576.0,
                grouped.num_children());
    std::printf("RESULT fig=group_sharing queries=%zu sop_cpu=%.4f "
                "grouped_cpu=%.4f sop_mem_mb=%.4f grouped_mem_mb=%.4f\n",
                num_queries, m_int.avg_cpu_ms_per_window,
                m_grp.avg_cpu_ms_per_window,
                static_cast<double>(m_int.peak_memory_bytes) / 1048576.0,
                static_cast<double>(m_grp.peak_memory_bytes) / 1048576.0);
    if (m_int.total_outliers != m_grp.total_outliers) {
      std::printf("ERROR: result mismatch between variants!\n");
      return 1;
    }
    std::fflush(stdout);
  }
  return 0;
}
