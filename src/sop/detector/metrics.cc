#include "sop/detector/metrics.h"

#include <algorithm>
#include <cstdio>

namespace sop {

std::string RunMetrics::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "batches=%lld cpu/window=%.3fms wall/window=%.3fms "
                "peak_mem=%.2fMB emissions=%llu outliers=%llu points=%lld",
                static_cast<long long>(num_batches), avg_cpu_ms_per_window,
                avg_wall_ms_per_window,
                static_cast<double>(peak_memory_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(total_emissions),
                static_cast<unsigned long long>(total_outliers),
                static_cast<long long>(total_points));
  return buf;
}

std::string RunMetrics::LatencyToString() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "batch latency p50=%.3fms p95=%.3fms max=%.3fms",
                p50_batch_ms, p95_batch_ms, max_batch_ms);
  return buf;
}

std::string RunMetrics::ToJson() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"num_batches\": %lld, \"total_cpu_ms\": %.6f, "
      "\"total_wall_ms\": %.6f, \"avg_cpu_ms_per_window\": %.6f, "
      "\"avg_wall_ms_per_window\": %.6f, \"p50_batch_ms\": %.6f, "
      "\"p95_batch_ms\": %.6f, \"max_batch_ms\": %.6f, "
      "\"peak_memory_bytes\": %llu, \"total_emissions\": %llu, "
      "\"total_outliers\": %llu, \"total_points\": %lld}",
      static_cast<long long>(num_batches), total_cpu_ms, total_wall_ms,
      avg_cpu_ms_per_window, avg_wall_ms_per_window, p50_batch_ms,
      p95_batch_ms, max_batch_ms,
      static_cast<unsigned long long>(peak_memory_bytes),
      static_cast<unsigned long long>(total_emissions),
      static_cast<unsigned long long>(total_outliers),
      static_cast<long long>(total_points));
  return buf;
}

void MetricsAccumulator::RecordBatch(double wall_ms, double cpu_ms,
                                     size_t memory_bytes, uint64_t emissions,
                                     uint64_t outliers) {
  ++metrics_.num_batches;
  metrics_.total_cpu_ms += cpu_ms;
  metrics_.total_wall_ms += wall_ms;
  metrics_.peak_memory_bytes =
      std::max(metrics_.peak_memory_bytes, memory_bytes);
  metrics_.total_emissions += emissions;
  metrics_.total_outliers += outliers;
  batch_ms_.Record(wall_ms);
}

RunMetrics MetricsAccumulator::Finish() {
  if (metrics_.num_batches > 0) {
    const double batches = static_cast<double>(metrics_.num_batches);
    metrics_.avg_cpu_ms_per_window = metrics_.total_cpu_ms / batches;
    metrics_.avg_wall_ms_per_window = metrics_.total_wall_ms / batches;
  }
  const obs::Histogram::Stats latency = batch_ms_.ComputeStats();
  if (latency.count > 0) {
    metrics_.p50_batch_ms = latency.p50;
    metrics_.p95_batch_ms = latency.p95;
    metrics_.max_batch_ms = latency.max;
  }
  return metrics_;
}

}  // namespace sop
