// Tests for the layered execution engine: RunLanes, the engine's run loop
// (metrics, latency percentiles, reuse across runs) and — the
// load-bearing property — that a PartitionedDetector, whose children run
// on RunLanes with their own point lanes nested inside, still matches the
// oracle.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/common/thread_pool.h"
#include "sop/core/grouped_sop.h"
#include "sop/core/multi_attribute.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/engine.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ExpectedResults;
using testing::ExpectSameResults;
using testing::ScanBoundProbe;

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

// Every partition runs on its own lane. One engine drives all three seeds,
// so this also covers engine reuse across runs.
TEST(ExecutionEngineTest, MultiAttributeSopMatchesOracle) {
  ExecutionEngine engine;
  for (const uint64_t seed : {101u, 202u, 303u}) {
    const Workload w = RandomMultiAttributeWorkload(seed);
    const std::vector<Point> points = RandomStream(200, 2, seed + 7);
    MultiAttributeDetector detector(w, [](const Workload& sub) {
      return std::make_unique<SopDetector>(sub);
    });
    ASSERT_GE(detector.num_children(), 4u);
    ExpectSameResults(ExpectedResults(w, points),
                      RunWithEngine(&engine, w, points, &detector),
                      "multiattr-sop seed " + std::to_string(seed));
  }
}

// The Sec. 3.2 grouped strawman partitions by k-group; its children fan
// out the same way.
TEST(ExecutionEngineTest, GroupedSopMatchesOracle) {
  Workload w(WindowType::kCount);
  Rng rng(55);
  for (int i = 0; i < 6; ++i) {
    w.AddQuery(OutlierQuery(rng.UniformDouble(1.0, 4.0), 2 + i,
                            4 * rng.UniformInt(2, 5), 4));
  }
  const std::vector<Point> points = RandomStream(180, 2, 56);
  GroupedSopDetector detector(w);
  ASSERT_EQ(detector.num_children(), 6u);
  ExecutionEngine engine;
  ExpectSameResults(ExpectedResults(w, points),
                    RunWithEngine(&engine, w, points, &detector),
                    "grouped-sop");
}

// Partition lanes with point lanes nested inside: three attribute-set
// children over a sparse uniform 3-d stream. Their k-20 queries see about
// 8 neighbors per full window, so hardly any point turns Safe-For-All and
// every child's full-window batches clear kLaneScanBound. At 4 point
// lanes each child's lanes run inside its partition lane; at 1 only the
// partitions fan out.
TEST(ExecutionEngineTest, NestedPointLanesMatchOracle) {
  constexpr Seq kPoints = 2400;
  Rng rng(77);
  std::vector<Point> points;
  for (Seq s = 0; s < kPoints; ++s) {
    points.emplace_back(s, s,
                        std::vector<double>{rng.UniformDouble(0, 1000),
                                            rng.UniformDouble(0, 1000),
                                            rng.UniformDouble(0, 1000)});
  }
  Workload w(WindowType::kCount);
  const int set_x = w.AddAttributeSet({0});
  const int set_yz = w.AddAttributeSet({1, 2});
  // Radii that give about 8 neighbors in a 1600-point window over 3, 1
  // and 2 attributes.
  const std::pair<int, double> radii[] = {
      {0, 106.0}, {set_x, 2.5}, {set_yz, 40.0}};
  for (const auto& [set, r] : radii) {
    w.AddQuery(OutlierQuery(r, 20, 1600, 400, set));
    w.AddQuery(OutlierQuery(2 * r, 3, 1200, 800, set));
  }
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const int lanes : {1, 4}) {
    const std::string at = std::to_string(lanes) + " point lanes";
    std::vector<std::unique_ptr<SopDetector>> children;
    std::vector<const ScanBoundProbe*> probes;
    SetScanLanesForTest(lanes);
    MultiAttributeDetector detector(w, [&](const Workload& sub) {
      children.push_back(std::make_unique<SopDetector>(sub));
      auto probe =
          std::make_unique<ScanBoundProbe>(children.back().get(), kPoints);
      probes.push_back(probe.get());
      return probe;
    });
    ExecutionEngine engine;
    const std::vector<QueryResult> actual =
        RunWithEngine(&engine, w, points, &detector);
    SetScanLanesForTest(0);
    ExpectSameResults(expected, actual, at);
    ASSERT_EQ(probes.size(), 3u);
    for (const ScanBoundProbe* probe : probes) {
      EXPECT_GT(probe->max_bound(), SopDetector::kLaneScanBound)
          << at << ": a child never fanned out";
    }
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
  EXPECT_LE(metrics.max_batch_ms, metrics.total_wall_ms);
  EXPECT_DOUBLE_EQ(metrics.avg_wall_ms_per_window,
                   metrics.total_wall_ms / 30.0);
  // CPU is measured on its own clock.
  EXPECT_GT(metrics.total_cpu_ms, 0.0);
  EXPECT_DOUBLE_EQ(metrics.avg_cpu_ms_per_window,
                   metrics.total_cpu_ms / 30.0);
  EXPECT_NE(metrics.LatencyToString().find("p95"), std::string::npos);
}

}  // namespace
}  // namespace sop
