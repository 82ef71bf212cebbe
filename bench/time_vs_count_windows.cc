// Validation of the paper's side claim that "time-based window processing
// achieves similar results" (Sec. 6.1): the same case-C workload runs over
// the same stream twice — once with count-based windows and once with
// time-based windows (one time unit per point, so the window contents
// coincide up to timestamp ties) — and must show comparable SOP cost.

#include <cstdio>
#include <memory>

#include "bench_data.h"
#include "figure.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"

int main() {
  using namespace sop;
  using namespace sop::bench;

  const int64_t kStream = FastMode() ? 6000 : 20000;
  gen::WorkloadGenOptions options;
  options.win_fixed = 10000;
  options.slide_fixed = 500;

  std::printf(
      "================================================================\n");
  std::printf("SOP under count-based vs time-based windows (case C, "
              "%lld-point synthetic stream, 1 time unit per point)\n",
              static_cast<long long>(kStream));
  std::printf(
      "================================================================\n");
  std::printf("%10s %18s %18s %16s %16s\n", "queries", "count cpu(ms)",
              "time cpu(ms)", "count mem(MB)", "time mem(MB)");

  for (const size_t num_queries : MaybeShrinkSizes({10, 100, 500})) {
    double cpu[2];
    double mem[2];
    uint64_t outliers[2];
    int i = 0;
    for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
      gen::WorkloadGenOptions per_size = options;
      per_size.seed = options.seed + num_queries * 13;
      const Workload workload = gen::GenerateWorkload(
          gen::WorkloadCase::kC, num_queries, type, per_size);
      std::unique_ptr<OutlierDetector> detector =
          CreateDetector("sop", workload);
      gen::SyntheticOptions data;
      data.seed = 20160626;  // time_step defaults to 1 unit per point
      gen::SyntheticSource source(kStream, data);
      const RunMetrics m =
          ExecutionEngine().Run(workload, &source, detector.get());
      cpu[i] = m.avg_cpu_ms_per_window;
      mem[i] = static_cast<double>(m.peak_memory_bytes) / 1048576.0;
      outliers[i] = m.total_outliers;
      ++i;
    }
    std::printf("%10zu %18.3f %18.3f %16.3f %16.3f\n", num_queries, cpu[0],
                cpu[1], mem[0], mem[1]);
    std::printf("RESULT fig=time_vs_count queries=%zu count_cpu=%.4f "
                "time_cpu=%.4f count_outliers=%llu time_outliers=%llu\n",
                num_queries, cpu[0], cpu[1],
                static_cast<unsigned long long>(outliers[0]),
                static_cast<unsigned long long>(outliers[1]));
    std::fflush(stdout);
  }
  return 0;
}
