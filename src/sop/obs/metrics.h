// Observability core: a process-wide registry of named counters, gauges
// and nearest-rank histograms, plus the free-standing metric value types.
//
// Design constraints (DESIGN.md Sec. 11):
//   * Hot paths are instrumented through the macros in obs/trace.h, which
//     compile to nothing under -DSOP_NO_OBS and cost exactly one
//     well-predicted branch per site when compiled in but runtime-disabled
//     (the default). Enabling or disabling observability NEVER changes a
//     detector's emitted outliers — only what is measured about producing
//     them.
//   * Metric handles returned by the registry are stable for the process
//     lifetime: Reset() zeroes values but never invalidates pointers, so
//     call sites may cache a handle once (the macros do this with a
//     function-local static).
//   * Counters and gauges are lock-free atomics so partition-parallel
//     detectors (detector/partitioned.h) can record from pool threads;
//     histograms take a mutex, and are therefore reserved for per-batch /
//     per-scan granularity rather than per-candidate.
//
// The registry is process-global on purpose: it is for layers that know
// nothing about which instance or run they belong to (K-SKY, LSky, the
// kernel, the grid index, the baselines, per-query and resilience counts)
// and for the timing histograms. An instance that knows itself (a server,
// a router, a front, a session, an engine run) keeps its counts in its own
// stats struct, the one source of each count; the registry holds no copy.
// Run-scoped attribution is done by the caller: snapshot + reset around
// each run (see sop_cli --metrics-out and bench/figure.cc).

#ifndef SOP_OBS_METRICS_H_
#define SOP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sop/common/stopwatch.h"

namespace sop {
namespace obs {

/// Whether observability instrumentation is compiled into this build.
/// -DSOP_NO_OBS turns every obs/trace.h macro into a no-op and makes
/// Enabled() constant-fold to false.
#if defined(SOP_NO_OBS)
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace internal {
// The runtime gate. Read on every instrumented hot-path branch; relaxed is
// fine — there is no ordering contract between toggling and in-flight
// recordings.
extern std::atomic<bool> g_enabled;
}  // namespace internal

/// True iff instrumentation is compiled in AND runtime-enabled. This is
/// the single branch every instrumentation site pays when disabled.
inline bool Enabled() {
  return kCompiledIn && internal::g_enabled.load(std::memory_order_relaxed);
}

/// Turns metric recording on or off at runtime. Off by default. Under
/// -DSOP_NO_OBS this stores the flag but Enabled() still returns false.
void SetEnabled(bool enabled);

/// Monotonically increasing event count. Thread-safe.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written (or maximum) instantaneous value. Thread-safe.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (peak tracking).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Nearest-rank percentile of an ascending-sorted sample; 0 when empty.
/// (Shared with detector/metrics.cc — the engine's batch-latency
/// percentiles use the same math.)
double NearestRankPercentile(const std::vector<double>& sorted, double pct);

/// Sample distribution with exact count/sum/min/max and nearest-rank
/// percentiles over a bounded, deterministically decimated sample buffer:
/// when the buffer fills, every other stored sample is dropped and the
/// keep-stride doubles, so memory stays bounded on unbounded streams while
/// quantiles remain representative. Thread-safe (mutex per Record).
class Histogram {
 public:
  struct Stats {
    uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  void Record(double v);
  Stats ComputeStats() const;
  uint64_t count() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;  // every stride_-th recorded value
  uint64_t stride_ = 1;
  uint64_t seen_ = 0;  // total Record calls, for stride selection
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Point-in-time copy of every registered metric (names sorted).
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, Histogram::Stats> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Registry of named metrics. Get* registers on first use and returns a
/// process-lifetime-stable reference; concurrent Get*/record/snapshot
/// calls are safe. Names are hierarchical by convention
/// ("subsystem/metric", e.g. "ksky/scans", "query/3/outliers").
class MetricsRegistry {
 public:
  /// The process-wide registry used by the obs/trace.h macros. Never
  /// destroyed (intentionally leaked) so handles outlive static teardown.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Copies every metric's current value. Zero-valued counters/gauges are
  /// included (they are registered, hence meaningful).
  Snapshot TakeSnapshot() const;

  /// Zeroes every metric, keeping registrations (and handles) intact.
  void Reset();

 private:
  mutable std::mutex mu_;
  // node-based maps: values never move after insertion.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// RAII timer recording its scope's wall-clock milliseconds into a
/// histogram; inert when constructed with null (the SOP_TRACE macro passes
/// null when observability is disabled).
class ScopedTrace {
 public:
  explicit ScopedTrace(Histogram* hist) : hist_(hist) {}
  ~ScopedTrace() {
    if (hist_ != nullptr) hist_->Record(watch_.ElapsedMillis());
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  Histogram* hist_;
  Stopwatch watch_;
};

}  // namespace obs
}  // namespace sop

#endif  // SOP_OBS_METRICS_H_
