// Run metrics collected by the execution engine: the paper's two
// evaluation metrics (average CPU time per window, peak memory) plus wall
// time per window, per-batch latency percentiles and bookkeeping. CPU time
// is the process's, summed over every thread, so a detector that spreads a
// batch over lanes pays for each of them; wall time is the batch's
// critical path.
//
// Since the observability subsystem landed (obs/, DESIGN.md Sec. 11),
// RunMetrics is a thin aggregate computed from an obs::Histogram of batch
// latencies — the same nearest-rank percentile math serves both — while
// the registry carries the fine-grained per-subsystem counters. RunMetrics
// stays a plain value struct so existing call sites and tests are
// unaffected by whether observability is compiled in or enabled.

#ifndef SOP_DETECTOR_METRICS_H_
#define SOP_DETECTOR_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "sop/obs/metrics.h"

namespace sop {

/// Aggregated metrics for one detector run over one stream.
struct RunMetrics {
  /// Number of swift-window slides (batches) processed.
  int64_t num_batches = 0;
  /// Total detector CPU time across all batches (every thread of the
  /// process), milliseconds.
  double total_cpu_ms = 0.0;
  /// Total wall time across all batches, milliseconds.
  double total_wall_ms = 0.0;
  /// The paper's CPU metric: average CPU time per window (ms).
  double avg_cpu_ms_per_window = 0.0;
  /// Average wall time per window (ms).
  double avg_wall_ms_per_window = 0.0;
  /// Per-batch wall latency distribution (ms): median, 95th percentile
  /// (nearest-rank), and worst batch. Tail latency is what a production
  /// stream job provisions for; the averages above hide it.
  double p50_batch_ms = 0.0;
  double p95_batch_ms = 0.0;
  double max_batch_ms = 0.0;
  /// The paper's MEM metric: peak evidence memory across batches (bytes).
  size_t peak_memory_bytes = 0;
  /// Total number of (query, boundary) emissions produced.
  uint64_t total_emissions = 0;
  /// Total outlier reports summed over all emissions.
  uint64_t total_outliers = 0;
  /// Total points consumed from the source.
  int64_t total_points = 0;

  /// One-line human-readable summary.
  std::string ToString() const;
  /// One-line latency distribution summary ("p50=... p95=... max=...").
  std::string LatencyToString() const;
  /// One JSON object with every field (for --metrics-out and tooling).
  std::string ToJson() const;
};

/// Incremental accumulator used by the execution engine.
class MetricsAccumulator {
 public:
  void RecordBatch(double wall_ms, double cpu_ms, size_t memory_bytes,
                   uint64_t emissions, uint64_t outliers);
  void RecordPoints(int64_t n) { metrics_.total_points += n; }

  /// Finalizes averages and percentiles and returns the metrics.
  RunMetrics Finish();

 private:
  RunMetrics metrics_;
  obs::Histogram batch_ms_;  // one wall sample per RecordBatch
};

}  // namespace sop

#endif  // SOP_DETECTOR_METRICS_H_
