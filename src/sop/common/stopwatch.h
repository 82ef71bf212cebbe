// Stopwatches used by the metrics collector. A detector's batch may run on
// several threads (SopDetector's point lanes, partition fan-out), so the
// engine times it with both clocks: Stopwatch measures wall time (the
// batch's critical path) on a monotonic clock, robust to NTP adjustments;
// CpuStopwatch measures the CPU time every thread of the process spent
// (CLOCK_PROCESS_CPUTIME_ID), so work spread over lanes counts in full.

#ifndef SOP_COMMON_STOPWATCH_H_
#define SOP_COMMON_STOPWATCH_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace sop {

/// Measures elapsed time in nanoseconds since construction or Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedMillis() const {
    return static_cast<double>(ElapsedNanos()) / 1e6;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Measures the process's CPU time, summed over all its threads, since
/// construction.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(Now()) {}

  double ElapsedMillis() const {
    return static_cast<double>(Now() - start_) / 1e6;
  }

 private:
  static int64_t Now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }

  int64_t start_;
};

}  // namespace sop

#endif  // SOP_COMMON_STOPWATCH_H_
