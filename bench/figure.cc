#include "figure.h"

#include <cstdio>
#include <cstdlib>

#include "sop/detector/driver.h"
#include "sop/obs/metrics.h"

namespace sop {
namespace bench {

bool FastMode() {
  const char* v = std::getenv("SOP_BENCH_FAST");
  return v != nullptr && v[0] == '1';
}

namespace {

// SOP_BENCH_COUNTERS=1 turns on the observability layer and prints each
// cell's counters as machine-readable COUNTER/GAUGE/HISTO lines. Off by
// default so throughput numbers stay instrumentation-free.
bool CountersMode() {
  const char* v = std::getenv("SOP_BENCH_COUNTERS");
  return v != nullptr && v[0] == '1';
}

void PrintCellCounters(const std::string& figure_id,
                       const std::string& detector, size_t num_queries) {
  const obs::Snapshot snap = obs::MetricsRegistry::Global().TakeSnapshot();
  obs::MetricsRegistry::Global().Reset();
  for (const auto& [name, value] : snap.counters) {
    std::printf("COUNTER fig=%s detector=%s queries=%zu name=%s value=%llu\n",
                figure_id.c_str(), detector.c_str(), num_queries, name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::printf("GAUGE fig=%s detector=%s queries=%zu name=%s value=%lld\n",
                figure_id.c_str(), detector.c_str(), num_queries, name.c_str(),
                static_cast<long long>(value));
  }
  for (const auto& [name, stats] : snap.histograms) {
    std::printf("HISTO fig=%s detector=%s queries=%zu name=%s count=%llu "
                "mean=%.4f p50=%.4f p95=%.4f max=%.4f\n",
                figure_id.c_str(), detector.c_str(), num_queries, name.c_str(),
                static_cast<unsigned long long>(stats.count), stats.mean,
                stats.p50, stats.p95, stats.max);
  }
}

}  // namespace

std::vector<size_t> MaybeShrinkSizes(std::vector<size_t> sizes) {
  if (!FastMode()) return sizes;
  for (size_t& s : sizes) s = std::max<size_t>(1, s / 8);
  return sizes;
}

FigureRunner::FigureRunner(std::string figure_id, std::string description)
    : figure_id_(std::move(figure_id)), description_(std::move(description)) {}

void FigureRunner::Run(const std::vector<size_t>& workload_sizes,
                       const WorkloadFactory& workload_factory,
                       const StreamFactory& stream_factory) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", figure_id_.c_str(), description_.c_str());
  for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
  if (FastMode()) std::printf("  [fast mode: sizes shrunk 8x]\n");
  std::printf("================================================================\n");

  const bool counters = CountersMode();
  if (counters) {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
  }

  struct Cell {
    bool ran = false;
    RunMetrics metrics;
  };
  // cells[size_index][detector_index]
  std::vector<std::vector<Cell>> cells(
      workload_sizes.size(), std::vector<Cell>(names_.size()));

  for (size_t si = 0; si < workload_sizes.size(); ++si) {
    const size_t num_queries = workload_sizes[si];
    const Workload workload = workload_factory(num_queries);
    for (size_t ki = 0; ki < names_.size(); ++ki) {
      const std::string& name = names_[ki];
      const auto cap = caps_.find(name);
      if (cap != caps_.end() && num_queries > cap->second) {
        std::printf("  [%s @ %zu queries skipped: over resource budget]\n",
                    name.c_str(), num_queries);
        continue;
      }
      std::unique_ptr<OutlierDetector> detector =
          CreateDetector(name, workload);
      std::unique_ptr<StreamSource> source = stream_factory();
      cells[si][ki].metrics =
          RunStream(workload, source.get(), detector.get());
      cells[si][ki].ran = true;
      // Incremental progress line so partial runs still carry data.
      std::printf("  [cell %s @ %zu queries: %s]\n", name.c_str(),
                  num_queries, cells[si][ki].metrics.ToString().c_str());
      if (counters) PrintCellCounters(figure_id_, name, num_queries);
      std::fflush(stdout);
    }
  }

  auto print_table = [&](const char* label, auto value_fn,
                         const char* metric_id) {
    std::printf("\n%s\n", label);
    std::printf("%10s", "queries");
    for (const std::string& name : names_) {
      std::printf(" %12s", name.c_str());
    }
    std::printf("\n");
    for (size_t si = 0; si < workload_sizes.size(); ++si) {
      std::printf("%10zu", workload_sizes[si]);
      for (size_t ki = 0; ki < names_.size(); ++ki) {
        if (cells[si][ki].ran) {
          std::printf(" %12.3f", value_fn(cells[si][ki].metrics));
        } else {
          std::printf(" %12s", "-");
        }
      }
      std::printf("\n");
    }
    // Machine-readable lines.
    for (size_t si = 0; si < workload_sizes.size(); ++si) {
      for (size_t ki = 0; ki < names_.size(); ++ki) {
        if (!cells[si][ki].ran) continue;
        std::printf("RESULT fig=%s metric=%s detector=%s queries=%zu "
                    "value=%.4f\n",
                    figure_id_.c_str(), metric_id, names_[ki].c_str(),
                    workload_sizes[si], value_fn(cells[si][ki].metrics));
      }
    }
  };

  print_table("(a) CPU time per window, all threads (ms)",
              [](const RunMetrics& m) { return m.avg_cpu_ms_per_window; },
              "cpu_ms_per_window");
  print_table("(a') Wall time per window (ms)",
              [](const RunMetrics& m) { return m.avg_wall_ms_per_window; },
              "wall_ms_per_window");
  print_table("(b) Peak evidence memory (MB)",
              [](const RunMetrics& m) {
                return static_cast<double>(m.peak_memory_bytes) /
                       (1024.0 * 1024.0);
              },
              "peak_mem_mb");
  std::printf("\n");
}

}  // namespace bench
}  // namespace sop
