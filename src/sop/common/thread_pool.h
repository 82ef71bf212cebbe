// RunLanes: the repository's one fork-join. It runs the independent
// children of a partitioned detector (detector/partitioned.h) and a
// detector's per-point loops (core/sop_detector.h) on every core, and the
// two nest: a child's point lanes run inside its partition lane.

#ifndef SOP_COMMON_THREAD_POOL_H_
#define SOP_COMMON_THREAD_POOL_H_

#include <functional>

namespace sop {

/// Threads that can run lanes at once: std::thread::hardware_concurrency(),
/// at least 1.
int HardwareLanes();

/// Runs `fn(lane)` exactly once for every lane in [0, num_lanes) (> 0) and
/// returns when all have finished. The calling thread runs lane 0, then
/// claims every lane no helper has started yet, so it never waits for a
/// queued task — only for lanes already running elsewhere. Concurrent
/// callers therefore cannot deadlock each other, however busy the helpers
/// are, and a lane may itself call RunLanes. Helpers are the workers of
/// one process-wide pool of HardwareLanes() - 1 threads, created on first
/// use; with none (one core), the caller runs every lane itself. `fn`
/// must not throw.
void RunLanes(int num_lanes, const std::function<void(int lane)>& fn);

}  // namespace sop

#endif  // SOP_COMMON_THREAD_POOL_H_
