// Deterministic fault injection for resilience tests and drills.
//
// A FaultInjector is a seeded random oracle that the runtime consults at
// well-known failure sites (checkpoint I/O). Each site carries an
// independent failure probability; the per-site decision stream is a pure
// function of (seed, site, draw index), so a logged seed reproduces the
// exact same failure schedule — under the same configuration, a flaky run
// replays byte-for-byte.
//
// Injection is strictly opt-in: nothing in the library consults an
// injector unless one is armed, and the disarmed fast path is a single
// relaxed atomic load (same discipline as obs/trace.h). Production code
// never arms one; tests and the sop_cli/sop_server --fault-* flags do.
//
// Thread-safety: ShouldFail/CorruptBytes may be called from several
// threads concurrently (a server publishes checkpoints from more than
// one); decisions are serialized by an internal mutex (decision *order*
// across threads is then scheduling-dependent, but per-site streams stay
// deterministic because each site draws from its own generator).

#ifndef SOP_COMMON_FAULT_H_
#define SOP_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sop/common/random.h"

namespace sop {

/// The failure sites the runtime exposes to an armed injector.
enum class FaultSite : int {
  kCheckpointWrite = 0,  // checkpoint file write failure (save skipped)
  kCheckpointRead = 1,   // checkpoint file read failure (load fails cleanly)
  kCheckpointBytes = 2,  // checkpoint bytes corrupted in flight (CRC catches)
};
inline constexpr int kNumFaultSites = 3;

/// Human-readable site name ("checkpoint-write", ...).
const char* FaultSiteName(FaultSite site);

/// Deterministic, rate-targeted failure oracle. See file comment.
class FaultInjector {
 public:
  /// All rates default to 0 (no failures); arm sites with SetRate.
  explicit FaultInjector(uint64_t seed);

  /// Sets the failure probability of `site` to `rate` in [0, 1].
  void SetRate(FaultSite site, double rate);

  /// Caps how many failures `site` may inject over the injector's lifetime
  /// (-1 = unbounded, the default), e.g. so that only the first checkpoint
  /// read of a drill fails.
  void SetMaxFailures(FaultSite site, int64_t max_failures);

  /// Draws the next decision for `site`: true = fail this operation.
  bool ShouldFail(FaultSite site);

  /// Flips one deterministically chosen bit of `*bytes` (no-op on empty
  /// input). Models in-flight corruption; framed checkpoints must detect it.
  void CorruptBytes(std::string* bytes);

  /// How many failures `site` has injected so far.
  int64_t injected(FaultSite site) const;
  /// How many decisions `site` has drawn so far.
  int64_t consulted(FaultSite site) const;

  /// --- process-global arming -------------------------------------------
  /// The runtime consults Armed() at each site; null (the default) means
  /// no injection anywhere. The injector is borrowed, not owned: the caller
  /// keeps it alive until Disarm(). Arming is process-wide — intended for
  /// one drill at a time, not concurrent independent drills.
  static FaultInjector* Armed() {
    return g_armed.load(std::memory_order_acquire);
  }
  static void Arm(FaultInjector* injector) {
    g_armed.store(injector, std::memory_order_release);
  }
  static void Disarm() { Arm(nullptr); }

 private:
  struct SiteState {
    Rng rng;
    double rate = 0.0;
    int64_t max_failures = -1;
    int64_t consulted = 0;
    int64_t injected = 0;
    explicit SiteState(uint64_t seed) : rng(seed) {}
  };

  static std::atomic<FaultInjector*> g_armed;

  mutable std::mutex mu_;
  std::vector<SiteState> sites_;
  Rng corrupt_rng_;
};

/// RAII arming of the global injector for a scope (tests).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultInjector* injector) {
    FaultInjector::Arm(injector);
  }
  ~ScopedFaultInjection() { FaultInjector::Disarm(); }
  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;
};

}  // namespace sop

#endif  // SOP_COMMON_FAULT_H_
