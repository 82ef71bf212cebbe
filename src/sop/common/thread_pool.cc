#include "sop/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sop/common/check.h"

namespace sop {

namespace {

// A fixed set of workers draining a FIFO queue of tasks: RunLanes'
// helpers. It is never destroyed (see LanePool), so it never stops or
// joins its workers.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads) {
    workers_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  void Submit(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this]() { return !queue_.empty(); });
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // guarded by mu_
  std::vector<std::thread> workers_;
};

// The helpers behind RunLanes. Never destroyed: a worker may still be
// parked on it while static destructors run at exit.
ThreadPool* LanePool() {
  static ThreadPool* const pool =
      HardwareLanes() > 1 ? new ThreadPool(HardwareLanes() - 1) : nullptr;
  return pool;
}

// One RunLanes call. Helpers hold it by shared_ptr, so a helper that only
// starts after the call returned still finds valid state: no lane left to
// claim, and it leaves without touching `fn`.
class LaneJob {
 public:
  LaneJob(int num_lanes, const std::function<void(int)>* fn)
      : num_lanes_(num_lanes), fn_(fn) {}

  // Claims and runs lanes until none is left.
  void Work() {
    int lane = 0;
    while ((lane = next_.fetch_add(1, std::memory_order_relaxed)) <
           num_lanes_) {
      Run(lane);
    }
  }

  void Run(int lane) {
    (*fn_)(lane);
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == num_lanes_) {
      done_.notify_all();
    }
  }

  // Blocks until every lane has finished.
  void Wait() {
    int done = 0;
    while ((done = done_.load(std::memory_order_acquire)) < num_lanes_) {
      done_.wait(done, std::memory_order_acquire);
    }
  }

 private:
  const int num_lanes_;
  const std::function<void(int)>* fn_;  // valid until every lane is done
  std::atomic<int> next_{1};            // lane 0 belongs to the caller
  std::atomic<int> done_{0};
};

}  // namespace

int HardwareLanes() {
  static const int lanes =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return lanes;
}

void RunLanes(int num_lanes, const std::function<void(int lane)>& fn) {
  SOP_CHECK(num_lanes > 0);
  if (num_lanes == 1) {
    fn(0);
    return;
  }
  auto job = std::make_shared<LaneJob>(num_lanes, &fn);
  if (ThreadPool* pool = LanePool()) {
    const int helpers = std::min(num_lanes - 1, pool->num_threads());
    for (int i = 0; i < helpers; ++i) pool->Submit([job]() { job->Work(); });
  }
  job->Run(0);
  job->Work();
  job->Wait();
}

}  // namespace sop
