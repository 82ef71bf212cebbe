#include "sop/common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "sop/common/check.h"

namespace sop {

ThreadPool::ThreadPool(int num_threads) {
  SOP_CHECK_MSG(num_threads > 0, "thread pool needs at least one worker");
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    SOP_CHECK_MSG(!stopping_, "Submit() on a stopping ThreadPool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this]() { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and the queue is drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

namespace {

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
