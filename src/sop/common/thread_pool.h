// A fixed-size worker pool with a FIFO task queue, shared by every
// execution layer that fans work out (see detector/engine.h and
// detector/partitioned.h), and RunLanes, the fork-join that runs a
// detector's per-point loops on every core (see core/sop_detector.h).
//
// Design notes:
//   * Submit() accepts any callable (including move-only ones) and returns
//     a std::future carrying the callable's result or exception — callers
//     join and observe failures deterministically by get()ing futures in
//     submission order.
//   * The pool is reusable: batches of submissions may alternate with
//     quiescent periods for the pool's whole lifetime; workers block on a
//     condition variable while idle.
//   * Destruction drains the queue (already-submitted tasks still run) and
//     joins every worker, so task captures never dangle.

#ifndef SOP_COMMON_THREAD_POOL_H_
#define SOP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sop {

/// Fixed-size worker pool. Submit() is safe to call from any thread,
/// including from inside a task.
class ThreadPool {
 public:
  /// Spawns `num_threads` (> 0) workers immediately.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `fn` and returns the future of its result. If `fn` throws,
  /// the exception is captured and rethrown from future::get().
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr makes the task copyable enough for std::function while
    // packaged_task keeps the result/exception plumbing.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task]() { (*task)(); });
    return result;
  }

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  bool stopping_ = false;                    // guarded by mu_
  std::vector<std::thread> workers_;
};

/// Threads that can run lanes at once: std::thread::hardware_concurrency(),
/// at least 1.
int HardwareLanes();

/// Runs `fn(lane)` exactly once for every lane in [0, num_lanes) (> 0) and
/// returns when all have finished. The calling thread runs lane 0, then
/// claims every lane no helper has started yet, so it never waits for a
/// queued task — only for lanes already running elsewhere. Concurrent
/// callers therefore cannot deadlock each other, however busy the helpers
/// are. Helpers are the workers of one process-wide pool of
/// HardwareLanes() - 1 threads, created on first use; with none (one
/// core), the caller runs every lane itself.
void RunLanes(int num_lanes, const std::function<void(int lane)>& fn);

}  // namespace sop

#endif  // SOP_COMMON_THREAD_POOL_H_
