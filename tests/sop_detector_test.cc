// End-to-end tests of SopDetector on hand-checkable streams, plus behaviour
// tests (emission schedule, safe-inlier pruning, memory accounting, point
// lanes).

#include <algorithm>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/driver.h"
#include "sop/gen/synthetic.h"
#include "sop/gen/workload_gen.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ExpectedResults;
using testing::ExpectMatchesOracle;
using testing::ExpectSameResults;
using testing::Points1D;
using testing::ScanBoundProbe;

Workload SingleQuery(double r, int64_t k, int64_t win, int64_t slide) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(r, k, win, slide));
  return w;
}

TEST(SopDetectorTest, SingleQueryHandChecked) {
  // Window 4, slide 2, r=1, k=1: a point is an outlier iff no other point
  // in its window is within distance 1.
  const Workload w = SingleQuery(1.0, 1, 4, 2);
  const std::vector<Point> points =
      Points1D({0.0, 0.5, 10.0, 0.6, 20.0, 20.4});
  SopDetector detector(w);
  std::vector<QueryResult> results = CollectResults(w, points, &detector);
  ASSERT_EQ(results.size(), 3u);
  // Boundary 2: window {p0, p1}; both are mutual neighbors.
  EXPECT_TRUE(results[0].outliers.empty());
  // Boundary 4: window {p0, p1, p2, p3}; p2 (value 10) is isolated.
  EXPECT_EQ(results[1].outliers, (std::vector<Seq>{2}));
  // Boundary 6: window {p2, p3, p4, p5}; p2 and p3 isolated, p4/p5 paired.
  EXPECT_EQ(results[2].outliers, (std::vector<Seq>{2, 3}));
}

TEST(SopDetectorTest, MatchesOracleOnVaryingR) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(0.5, 2, 8, 4));
  w.AddQuery(OutlierQuery(1.5, 2, 8, 4));
  w.AddQuery(OutlierQuery(3.0, 2, 8, 4));
  const std::vector<Point> points = Points1D(
      {0.0, 1.0, 2.0, 9.0, 0.4, 1.2, 8.6, 2.2, 0.1, 5.0, 5.3, 5.2});
  SopDetector detector(w);
  ExpectMatchesOracle(w, points, &detector, "varying r");
}

TEST(SopDetectorTest, MatchesOracleOnVaryingK) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 1, 8, 4));
  w.AddQuery(OutlierQuery(1.0, 3, 8, 4));
  w.AddQuery(OutlierQuery(1.0, 5, 8, 4));
  const std::vector<Point> points = Points1D(
      {0.0, 0.2, 0.4, 0.6, 5.0, 0.8, 1.0, 5.2, 1.2, 1.4, 9.0, 1.6});
  SopDetector detector(w);
  ExpectMatchesOracle(w, points, &detector, "varying k");
}

TEST(SopDetectorTest, MatchesOracleOnVaryingWindows) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 4, 2));
  w.AddQuery(OutlierQuery(1.0, 2, 8, 2));
  w.AddQuery(OutlierQuery(1.0, 2, 12, 2));
  const std::vector<Point> points = Points1D(
      {0.0, 0.3, 0.6, 7.0, 0.9, 1.2, 7.3, 1.5, 1.8, 2.1, 7.6, 2.4, 2.7, 3.0});
  SopDetector detector(w);
  ExpectMatchesOracle(w, points, &detector, "varying win");
}

TEST(SopDetectorTest, MatchesOracleOnVaryingSlides) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 6, 2));
  w.AddQuery(OutlierQuery(1.0, 2, 6, 3));
  w.AddQuery(OutlierQuery(1.0, 2, 6, 6));
  const std::vector<Point> points = Points1D(
      {0.0, 0.3, 0.6, 7.0, 0.9, 1.2, 7.3, 1.5, 1.8, 2.1, 7.6, 2.4});
  SopDetector detector(w);
  ExpectMatchesOracle(w, points, &detector, "varying slide");
}

TEST(SopDetectorTest, EmissionScheduleFollowsSlides) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 1, 4, 2));  // emits at 2, 4, 6
  w.AddQuery(OutlierQuery(1.0, 1, 4, 3));  // emits at 3, 6
  SopDetector detector(w);
  std::vector<QueryResult> results =
      CollectResults(w, Points1D({0, 0, 0, 0, 0, 0}), &detector);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].query_index, 0u);
  EXPECT_EQ(results[0].boundary, 2);
  EXPECT_EQ(results[1].query_index, 1u);
  EXPECT_EQ(results[1].boundary, 3);
  EXPECT_EQ(results[2].boundary, 4);
  // Boundary 6: both queries, ascending query index.
  EXPECT_EQ(results[3].query_index, 0u);
  EXPECT_EQ(results[4].query_index, 1u);
  EXPECT_EQ(results[3].boundary, 6);
}

TEST(SopDetectorTest, TimeBasedWindowsMatchOracle) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 1, 10, 5));
  w.AddQuery(OutlierQuery(1.0, 2, 20, 10));
  // Bursty timestamps, including ties and an idle gap.
  const std::vector<Timestamp> times = {1, 2, 2, 3, 9, 9, 30, 31, 32, 33};
  const std::vector<double> values = {0.0, 0.2, 5.0, 0.4, 0.6,
                                      5.2, 0.8, 1.0, 5.4, 1.2};
  const std::vector<Point> points = Points1D(times, values);
  SopDetector detector(w);
  ExpectMatchesOracle(w, points, &detector, "time windows");
}

TEST(SopDetectorTest, SafeInlierPruningSkipsRescans) {
  // Dense stream: everything is everyone's neighbor; most points become
  // safe quickly, so scan counts stay far below points x batches.
  const Workload w = SingleQuery(5.0, 2, 20, 5);
  std::vector<double> values(100, 0.0);
  SopDetector detector(w);
  CollectResults(w, Points1D(values), &detector);
  EXPECT_GT(detector.stats().safe_points_discovered, 50);
  // Without safe pruning every alive point is rescanned every batch.
  SopDetector::Options options;
  options.safe_inlier_pruning = false;
  SopDetector no_pruning(w, options);
  CollectResults(w, Points1D(values), &no_pruning);
  EXPECT_GT(no_pruning.stats().ksky_scans, detector.stats().ksky_scans);
}

TEST(SopDetectorTest, SafePointsReleaseEvidence) {
  const Workload w = SingleQuery(5.0, 2, 20, 5);
  std::vector<double> values(40, 0.0);
  SopDetector detector(w);
  CollectResults(w, Points1D(values), &detector);
  // All alive points are safe inliers of a dense stream; their skybands
  // were released, leaving only container overhead.
  EXPECT_GT(detector.stats().safe_points_discovered, 0);
  EXPECT_LT(detector.MemoryBytes(), 4096u);
}

TEST(SopDetectorTest, AblationOptionsPreserveResults) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(0.7, 2, 8, 4));
  w.AddQuery(OutlierQuery(1.9, 4, 12, 4));
  w.AddQuery(OutlierQuery(1.1, 3, 8, 8));
  const std::vector<Point> points = Points1D(
      {0.0, 1.0, 2.0, 9.0, 0.4, 1.2, 8.6, 2.2, 0.1, 5.0, 5.3, 5.2,
       0.2, 0.9, 4.9, 9.1});
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const bool safe : {true, false}) {
    for (const bool term : {true, false}) {
      for (const bool cond3 : {true, false}) {
        SopDetector::Options options;
        options.safe_inlier_pruning = safe;
        options.ksky.early_termination = term;
        options.ksky.condition3_pruning = cond3;
        SopDetector detector(w, options);
        ExpectSameResults(expected, CollectResults(w, points, &detector),
                          "ablation");
      }
    }
  }
}

TEST(SopDetectorTest, SlideLargerThanWindow) {
  // Hopping windows with gaps: win 3, slide 6.
  const Workload w = SingleQuery(1.0, 1, 3, 6);
  const std::vector<Point> points =
      Points1D({0.0, 0.1, 9.0, 4.0, 4.1, 4.2, 0.0, 0.1, 9.0, 4.0, 4.1, 4.2});
  SopDetector detector(w);
  ExpectMatchesOracle(w, points, &detector, "hopping windows");
}

TEST(SopDetectorTest, RejectsNonMonotoneBoundaries) {
  const Workload w = SingleQuery(1.0, 1, 4, 2);
  SopDetector detector(w);
  auto batch = Points1D({0.0, 1.0});
  detector.Advance(std::move(batch), 2);
  EXPECT_DEATH(detector.Advance({}, 2), "boundaries must increase");
}

// Everything a run leaves behind: emissions, counters and final evidence.
struct LaneRun {
  std::vector<QueryResult> results;
  SopDetector::Stats stats;
  std::vector<bool> safe;                       // per alive seq
  std::vector<std::vector<SkybandEntry>> skybands;  // per alive seq
  std::vector<std::vector<LayerCount>> counts;      // per alive seq
};

// Point lanes (sop_detector.h) on a Fig-7-shaped input: 100 queries with r
// uniform in [200, 800), k 30, slide 500, over the synthetic 2-d stream.
// The 3K window keeps it quick while its batches still clear the fan-out
// bound. Every lane count must reproduce the one-lane run exactly.
TEST(SopDetectorLanesTest, EveryLaneCountIsBitIdentical) {
  constexpr Seq kPoints = 6000;
  gen::SyntheticOptions stream;
  stream.seed = 7;
  const std::vector<Point> points = gen::GenerateSynthetic(kPoints, stream);
  for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
    gen::WorkloadGenOptions o;
    o.r_lo = 200.0;
    o.r_hi = 800.0;
    o.k_fixed = 30;
    o.win_fixed = 3000;
    o.slide_fixed = 500;
    o.seed = 11;
    const Workload w =
        gen::GenerateWorkload(gen::WorkloadCase::kA, 100, type, o);
    const std::string label = type == WindowType::kCount ? "count" : "time";

    auto run = [&](int lanes) {
      SetScanLanesForTest(lanes);
      SopDetector detector(w);
      ScanBoundProbe probe(&detector, kPoints);
      LaneRun out;
      out.results = CollectResults(w, points, &probe);
      SetScanLanesForTest(0);
      EXPECT_GT(probe.max_bound(), SopDetector::kLaneScanBound)
          << label << ": no batch fanned out";
      out.stats = detector.stats();
      for (Seq s = 0; s < kPoints; ++s) {
        if (!detector.IsAliveForTesting(s)) continue;
        out.safe.push_back(detector.IsSafeForTesting(s));
        out.skybands.push_back(detector.SkybandForTesting(s).entries());
        out.counts.push_back(detector.SkybandForTesting(s).succ());
      }
      return out;
    };

    const LaneRun serial = run(1);
    ASSERT_FALSE(serial.results.empty());
    for (const int lanes : {2, 4, 8}) {
      const LaneRun fanned = run(lanes);
      const std::string at = label + " at " + std::to_string(lanes) + " lanes";
      ExpectSameResults(serial.results, fanned.results, at);
      EXPECT_EQ(serial.safe, fanned.safe) << at;
      EXPECT_EQ(serial.skybands, fanned.skybands) << at;
      EXPECT_EQ(serial.counts, fanned.counts) << at;
      EXPECT_EQ(serial.stats.ksky_scans, fanned.stats.ksky_scans) << at;
      EXPECT_EQ(serial.stats.distances_computed,
                fanned.stats.distances_computed) << at;
      EXPECT_EQ(serial.stats.candidates_examined,
                fanned.stats.candidates_examined) << at;
      EXPECT_EQ(serial.stats.early_terminations,
                fanned.stats.early_terminations) << at;
      EXPECT_EQ(serial.stats.safe_points_discovered,
                fanned.stats.safe_points_discovered) << at;
    }
  }
}

// The emission frontier (ksky.h) against the oracle. At boundary 1500 the
// due queries form five (window, k) groups: two share window 1500 and hold
// several queries that differ only in r, and the last has a window (200)
// shorter than its slide (750). Boundaries 500 and 1000 see four groups,
// 750 two. The 2-d uniform stream is sparse enough for the k-20 group
// that few points ever become Safe-For-All, so with or without safe-inlier
// pruning the batches clear kLaneScanBound and fan out at 4 lanes.
TEST(SopDetectorTest, GroupedVerdictsMatchOracle) {
  constexpr Seq kPoints = 3000;
  Rng rng(5);
  std::vector<std::vector<double>> values;
  for (Seq s = 0; s < kPoints; ++s) {
    values.push_back({rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)});
  }
  for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
    Workload w(type);
    for (const double r : {60.0, 40.0, 90.0}) {
      w.AddQuery(OutlierQuery(r, 8, 1500, 500));
    }
    w.AddQuery(OutlierQuery(100.0, 20, 1500, 500));
    w.AddQuery(OutlierQuery(60.0, 20, 1500, 500));
    w.AddQuery(OutlierQuery(80.0, 8, 1000, 500));
    w.AddQuery(OutlierQuery(50.0, 8, 1000, 500));
    w.AddQuery(OutlierQuery(40.0, 3, 750, 250));
    w.AddQuery(OutlierQuery(60.0, 2, 200, 750));
    // Time windows: ties (seq 3j+1 shares its predecessor's time) and
    // gaps (no point has time 3j+1).
    std::vector<Point> points;
    for (Seq s = 0; s < kPoints; ++s) {
      const Timestamp t =
          type == WindowType::kCount || s % 3 != 1 ? s : s - 1;
      points.emplace_back(s, t, values[static_cast<size_t>(s)]);
    }
    const std::string label = type == WindowType::kCount ? "count" : "time";
    const std::vector<QueryResult> expected = ExpectedResults(w, points);
    for (const bool pruning : {true, false}) {
      for (const int lanes : {1, 4}) {
        const std::string at = label + (pruning ? " pruned" : " unpruned") +
                               " at " + std::to_string(lanes) + " lanes";
        SopDetector::Options options;
        options.safe_inlier_pruning = pruning;
        SetScanLanesForTest(lanes);
        SopDetector detector(w, options);
        ScanBoundProbe probe(&detector, kPoints);
        const std::vector<QueryResult> actual =
            CollectResults(w, points, &probe);
        SetScanLanesForTest(0);
        ExpectSameResults(expected, actual, at);
        if (lanes > 1) {
          EXPECT_GT(probe.max_bound(), SopDetector::kLaneScanBound)
              << at << ": no batch fanned out";
        }
      }
    }
  }
}

}  // namespace
}  // namespace sop
