// Wall-clock stopwatch used by the metrics collector. A detector's batch
// may run on several threads (SopDetector's point lanes, partition
// fan-out), so what it measures is wall time across all of them, not CPU
// time; using a monotonic clock keeps measurements robust to NTP
// adjustments.

#ifndef SOP_COMMON_STOPWATCH_H_
#define SOP_COMMON_STOPWATCH_H_

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

}  // namespace sop

#endif  // SOP_COMMON_STOPWATCH_H_
