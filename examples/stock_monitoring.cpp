// Stock trade monitoring over the STT-like trade stream (paper Sec. 6.3).
//
//   build/examples/stock_monitoring
//
// Analysts watch the same intraday trade tape with windows from a
// minutes-long view to a whole-session view; the slides differ too, so the
// swift-query machinery (Sec. 4) is what makes one shared pass possible.
// The example reports per-horizon anomaly rates and shows that flagged
// trades are dominated by the generator's injected block trades / price
// spikes.

#include <cstdio>
#include <memory>
#include <set>

#include "sop/sop.h"

int main() {
  using namespace sop;

  Workload workload(WindowType::kCount);
  // k scales with the horizon: a "majority of peers" is smaller over
  // minutes than over the whole session.
  workload.AddQuery(OutlierQuery(400.0, 8, 2000, 500));     // ~minutes view
  workload.AddQuery(OutlierQuery(400.0, 20, 10000, 1000));  // ~hour view
  workload.AddQuery(OutlierQuery(400.0, 40, 40000, 2000));  // session view
  const char* horizons[] = {"minutes", "hour", "session"};

  gen::SttOptions data;
  data.seed = 7;
  data.anomaly_rate = 0.02;
  const int64_t kTrades = 60000;
  gen::SttSource source(kTrades, data);

  std::unique_ptr<OutlierDetector> detector =
      CreateDetector("sop", workload);
  std::vector<uint64_t> flags(workload.num_queries(), 0);
  std::vector<std::set<Seq>> distinct(workload.num_queries());
  const RunMetrics metrics = ExecutionEngine().Run(
      workload, &source, detector.get(), [&](const QueryResult& result) {
        flags[result.query_index] += result.outliers.size();
        distinct[result.query_index].insert(result.outliers.begin(),
                                            result.outliers.end());
      });

  std::printf("Monitored %lld trades (%d symbols, %.1f%% injected "
              "anomalies)\n",
              static_cast<long long>(metrics.total_points), data.num_symbols,
              data.anomaly_rate * 100.0);
  std::printf("%-10s %10s %12s %18s %16s\n", "horizon", "window", "slide",
              "flag events", "distinct trades");
  for (size_t i = 0; i < workload.num_queries(); ++i) {
    const OutlierQuery& q = workload.query(i);
    std::printf("%-10s %10lld %12lld %18llu %16zu\n", horizons[i],
                static_cast<long long>(q.win),
                static_cast<long long>(q.slide),
                static_cast<unsigned long long>(flags[i]),
                distinct[i].size());
  }
  std::printf("\nOne shared SOP pass served all horizons: %.2f ms per "
              "slide, peak evidence %.2f MB over %lld slides\n",
              metrics.avg_cpu_ms_per_window,
              static_cast<double>(metrics.peak_memory_bytes) / 1048576.0,
              static_cast<long long>(metrics.num_batches));
  return 0;
}
