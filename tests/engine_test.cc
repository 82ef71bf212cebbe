// Tests for the layered execution engine: the ThreadPool subsystem and
// RunLanes, the engine's driver loop (metrics, latency percentiles,
// RunStream parity) and — the load-bearing property — that
// partition-parallel execution of a PartitionedDetector produces a result
// stream byte-identical to serial execution, at every pool width.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/common/thread_pool.h"
#include "sop/core/grouped_sop.h"
#include "sop/core/multi_attribute.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/driver.h"
#include "sop/detector/engine.h"
#include "sop/detector/partitioned.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ExpectSameResults;

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsResults) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  // Futures joined in submission order carry the matching results:
  // submission order, not completion order, defines the output.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  std::future<int> ok = pool.Submit([]() { return 7; });
  std::future<int> bad = pool.Submit(
      []() -> int { throw std::runtime_error("child failed"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task and keeps serving.
  EXPECT_EQ(pool.Submit([]() { return 8; }).get(), 8);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 10; ++batch) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.Submit([&counter]() { ++counter; }));
    }
    for (auto& f : futures) f.get();  // quiesce between batches
    EXPECT_EQ(counter.load(), (batch + 1) * 16);
  }
}

TEST(ThreadPoolTest, MoveOnlyTaskCaptures) {
  ThreadPool pool(2);
  auto payload = std::make_unique<int>(41);
  std::future<int> f = pool.Submit(
      [p = std::move(payload)]() { return *p + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&ran]() { ++ran; });
    }
    // Destruction must run every already-submitted task before joining.
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(RunLanesTest, RunsEveryLaneOnceWithTheCallerAsLaneZero) {
  for (const int lanes : {1, 2, 4, 9}) {
    std::vector<std::atomic<int>> runs(static_cast<size_t>(lanes));
    std::thread::id lane0_thread;
    RunLanes(lanes, [&](int lane) {
      ++runs[static_cast<size_t>(lane)];
      if (lane == 0) lane0_thread = std::this_thread::get_id();
    });
    for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1) << lanes;
    EXPECT_EQ(lane0_thread, std::this_thread::get_id()) << lanes;
  }
}

// Callers never wait for a queued helper task, only for lanes already
// running, so more concurrent callers than pool workers — and callers that
// are themselves lanes — all finish however busy the shared pool is.
TEST(RunLanesTest, ConcurrentAndNestedCallersDoNotDeadlock) {
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 8; ++c) {
    callers.emplace_back([&total]() {
      for (int round = 0; round < 20; ++round) {
        RunLanes(4, [&total](int) {
          RunLanes(3, [&total](int) { ++total; });
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), 8 * 20 * 4 * 3);
}

// ---------------------------------------------------------------------------
// Engine-level tests.

std::vector<Point> RandomStream(int64_t n, int dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    std::vector<double> v;
    for (int d = 0; d < dims; ++d) {
      if (rng.Bernoulli(0.1)) {
        v.push_back(rng.UniformDouble(0, 40));
      } else {
        v.push_back(rng.Normal(rng.Bernoulli(0.5) ? 10.0 : 25.0, 1.5));
      }
    }
    points.emplace_back(s, s, std::move(v));
  }
  return points;
}

// A randomized multi-attribute workload with >= 4 partitions.
Workload RandomMultiAttributeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w(WindowType::kCount);
  w.AddAttributeSet({0});
  w.AddAttributeSet({1});
  w.AddAttributeSet({0, 1});
  for (int set = 0; set <= 3; ++set) {
    const int queries = static_cast<int>(rng.UniformInt(1, 3));
    for (int q = 0; q < queries; ++q) {
      w.AddQuery(OutlierQuery(rng.UniformDouble(1.0, 4.0),
                              rng.UniformInt(2, 6),
                              4 * rng.UniformInt(2, 6),
                              4 * rng.UniformInt(1, 2), set));
    }
  }
  return w;
}

std::vector<QueryResult> RunWithEngine(ExecutionEngine* engine,
                                       const Workload& w,
                                       const std::vector<Point>& points,
                                       OutlierDetector* detector) {
  std::vector<QueryResult> all;
  engine->Run(w, points, detector,
              [&all](const QueryResult& r) { all.push_back(r); });
  return all;
}

TEST(ExecutionEngineTest, SerialEngineMatchesRunStreamWrapper) {
  const Workload w = RandomMultiAttributeWorkload(11);
  const std::vector<Point> points = RandomStream(160, 2, 12);
  const auto factory = [](const Workload& sub) {
    return std::make_unique<SopDetector>(sub);
  };
  MultiAttributeDetector via_wrapper(w, factory);
  const std::vector<QueryResult> expected =
      CollectResults(w, points, &via_wrapper);

  ExecutionEngine engine;  // defaults: serial, no pool
  EXPECT_EQ(engine.pool(), nullptr);
  MultiAttributeDetector via_engine(w, factory);
  ExpectSameResults(expected,
                    RunWithEngine(&engine, w, points, &via_engine),
                    "serial engine");
}

TEST(ExecutionEngineTest, ParallelPartitionedMatchesSerial) {
  // The acceptance property: at 2, 4 and 8 threads, a partition-parallel
  // run is byte-identical to the serial run on randomized multi-attribute
  // workloads and streams.
  for (const uint64_t seed : {101u, 202u, 303u}) {
    const Workload w = RandomMultiAttributeWorkload(seed);
    const std::vector<Point> points = RandomStream(200, 2, seed + 7);
    const auto factory = [](const Workload& sub) {
      return std::make_unique<SopDetector>(sub);
    };
    MultiAttributeDetector serial(w, factory);
    const std::vector<QueryResult> expected =
        CollectResults(w, points, &serial);
    for (const int threads : {2, 4, 8}) {
      ExecOptions options;
      options.num_threads = threads;
      ExecutionEngine engine(options);
      ASSERT_NE(engine.pool(), nullptr);
      EXPECT_EQ(engine.pool()->num_threads(), threads);
      MultiAttributeDetector parallel(w, factory);
      ExpectSameResults(
          expected, RunWithEngine(&engine, w, points, &parallel),
          "parallel x" + std::to_string(threads) + " seed " +
              std::to_string(seed));
      // The engine detaches its pool after the run.
      EXPECT_EQ(parallel.thread_pool(), nullptr);
    }
  }
}

TEST(ExecutionEngineTest, ParallelGroupedSopMatchesSerial) {
  // The Sec. 3.2 grouped strawman partitions by k-group; its children must
  // also fan out without changing the result stream.
  Workload w(WindowType::kCount);
  Rng rng(55);
  for (int i = 0; i < 6; ++i) {
    w.AddQuery(OutlierQuery(rng.UniformDouble(1.0, 4.0), 2 + i,
                            4 * rng.UniformInt(2, 5), 4));
  }
  const std::vector<Point> points = RandomStream(180, 2, 56);
  GroupedSopDetector serial(w);
  const std::vector<QueryResult> expected = CollectResults(w, points, &serial);
  for (const int threads : {2, 4}) {
    ExecOptions options;
    options.num_threads = threads;
    ExecutionEngine engine(options);
    GroupedSopDetector parallel(w);
    ExpectSameResults(expected, RunWithEngine(&engine, w, points, &parallel),
                      "grouped x" + std::to_string(threads));
  }
}

TEST(ExecutionEngineTest, EngineIsReusableAcrossRuns) {
  ExecOptions options;
  options.num_threads = 2;
  ExecutionEngine engine(options);
  const Workload w = RandomMultiAttributeWorkload(31);
  const auto factory = [](const Workload& sub) {
    return std::make_unique<SopDetector>(sub);
  };
  for (const uint64_t seed : {1u, 2u}) {
    const std::vector<Point> points = RandomStream(120, 2, seed);
    MultiAttributeDetector serial(w, factory);
    MultiAttributeDetector parallel(w, factory);
    ExpectSameResults(CollectResults(w, points, &serial),
                      RunWithEngine(&engine, w, points, &parallel),
                      "reuse seed " + std::to_string(seed));
  }
}

TEST(ExecutionEngineTest, ComputesLatencyPercentiles) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(2.0, 3, 16, 4));
  SopDetector detector(w);
  ExecutionEngine engine;
  const RunMetrics metrics =
      engine.Run(w, RandomStream(120, 2, 9), &detector);
  EXPECT_EQ(metrics.num_batches, 30);
  EXPECT_GT(metrics.p50_batch_ms, 0.0);
  EXPECT_LE(metrics.p50_batch_ms, metrics.p95_batch_ms);
  EXPECT_LE(metrics.p95_batch_ms, metrics.max_batch_ms);
  EXPECT_LE(metrics.max_batch_ms, metrics.total_cpu_ms);
  EXPECT_NE(metrics.LatencyToString().find("p95"), std::string::npos);
}

TEST(ExecutionEngineTest, ZeroThreadsMeansHardwareConcurrency) {
  ExecOptions options;
  options.num_threads = 0;
  ExecutionEngine engine(options);
  // With one hardware thread the engine stays serial; otherwise the pool
  // matches the machine.
  if (std::thread::hardware_concurrency() > 1) {
    ASSERT_NE(engine.pool(), nullptr);
    EXPECT_EQ(engine.pool()->num_threads(),
              static_cast<int>(std::thread::hardware_concurrency()));
  } else {
    EXPECT_EQ(engine.pool(), nullptr);
  }
}

}  // namespace
}  // namespace sop
