// Unit tests for the baseline detectors: the Naive oracle detector, LEAP,
// and MCOD. Deeper cross-checks live in equivalence_test.cc.

#include <memory>

#include "gtest/gtest.h"
#include "sop/baselines/leap.h"
#include "sop/baselines/mcod.h"
#include "sop/baselines/naive.h"
#include "sop/detector/engine.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;
using testing::ExpectMatchesOracle;
using testing::Points1D;

Workload SingleQuery(double r, int64_t k, int64_t win, int64_t slide) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(r, k, win, slide));
  return w;
}

Workload MixedWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(0.5, 1, 6, 3));
  w.AddQuery(OutlierQuery(1.5, 3, 9, 3));
  w.AddQuery(OutlierQuery(1.0, 2, 12, 6));
  return w;
}

std::vector<Point> MixedStream() {
  return Points1D({0.0, 0.4, 5.0, 0.8, 1.2, 5.4, 9.0, 1.6, 2.0,
                   5.8, 2.4, 0.0, 2.8, 6.2, 3.2, 9.4, 3.6, 4.0});
}

TEST(NaiveDetectorTest, MatchesIndependentOracle) {
  const Workload w = MixedWorkload();
  NaiveDetector detector(w);
  ExpectMatchesOracle(w, MixedStream(), &detector, "naive");
}

TEST(NaiveDetectorTest, SingleQueryHandChecked) {
  const Workload w = SingleQuery(1.0, 1, 4, 2);
  NaiveDetector detector(w);
  std::vector<QueryResult> results = CollectResults(
      w, Points1D({0.0, 0.5, 10.0, 0.6, 20.0, 20.4}), &detector);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].outliers.empty());
  EXPECT_EQ(results[1].outliers, (std::vector<Seq>{2}));
  EXPECT_EQ(results[2].outliers, (std::vector<Seq>{2, 3}));
}

TEST(LeapDetectorTest, MatchesOracleOnMixedWorkload) {
  const Workload w = MixedWorkload();
  LeapDetector detector(w);
  ExpectMatchesOracle(w, MixedStream(), &detector, "leap mixed");
}

TEST(LeapDetectorTest, MatchesOracleWhenSlideExceedsWindow) {
  const Workload w = SingleQuery(1.0, 2, 3, 6);
  LeapDetector detector(w);
  ExpectMatchesOracle(
      w, Points1D({0.0, 0.1, 9.0, 4.0, 4.1, 4.2, 0.0, 0.1, 9.0, 4.0, 4.1,
                   4.2}),
      &detector, "leap hopping");
}

TEST(LeapDetectorTest, TimeBasedMatchesOracle) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 1, 10, 5));
  w.AddQuery(OutlierQuery(1.0, 2, 20, 10));
  const std::vector<Timestamp> times = {1, 2, 2, 3, 9, 9, 30, 31, 32, 33};
  const std::vector<double> values = {0.0, 0.2, 5.0, 0.4, 0.6,
                                      5.2, 0.8, 1.0, 5.4, 1.2};
  LeapDetector detector(w);
  ExpectMatchesOracle(w, Points1D(times, values), &detector, "leap time");
}

TEST(LeapDetectorTest, MemoryGrowsWithQueryCount) {
  // Same queries duplicated: evidence is per query, so memory scales up.
  auto run = [](size_t copies) {
    Workload w(WindowType::kCount);
    for (size_t i = 0; i < copies; ++i) {
      w.AddQuery(OutlierQuery(1.0, 3, 12, 4));
    }
    LeapDetector detector(w);
    size_t peak = 0;
    ExecutionEngine().Run(w, Points1D(std::vector<double>(48, 0.0)),
                          &detector);
    peak = detector.MemoryBytes();
    return peak;
  };
  EXPECT_GT(run(8), 2 * run(1));
}

TEST(LeapDetectorTest, MinimalProbingStopsAtK) {
  // k=1 on a dense stream: each point's probe finds a neighbor almost
  // immediately, so distance computations stay near one per evaluation.
  const Workload w = SingleQuery(10.0, 1, 16, 4);
  LeapDetector detector(w);
  CollectResults(w, Points1D(std::vector<double>(64, 0.0)), &detector);
  ASSERT_GT(detector.stats().points_evaluated, 0);
  EXPECT_LT(detector.stats().distances_computed,
            2 * detector.stats().points_evaluated);
}

TEST(LeapDetectorTest, SafeInliersStopProbing) {
  // Dense stream, k=3: points collect 3 succeeding neighbors quickly and
  // are never probed again (distance count plateaus well below the naive
  // points x window bound).
  const Workload w = SingleQuery(10.0, 3, 24, 4);
  LeapDetector detector(w);
  std::vector<double> values(120, 0.0);
  CollectResults(w, Points1D(values), &detector);
  // Points whose preceding evidence expires before they do re-probe the
  // new side, find succeeding neighbors and retire as safe inliers.
  EXPECT_GT(detector.stats().safe_points_discovered, 20);
  // Naive would need ~ |W| distances per point per emission.
  EXPECT_LT(detector.stats().distances_computed, 4000);
}

TEST(McodDetectorTest, MatchesOracleOnMixedWorkload) {
  const Workload w = MixedWorkload();
  McodDetector detector(w);
  ExpectMatchesOracle(w, MixedStream(), &detector, "mcod mixed");
}

TEST(McodDetectorTest, FormsMicroClustersOnDenseData) {
  // k_max = 2; >= 3 points within r_min/2 = 0.5 of each other arrive
  // together, so a micro-cluster must form.
  const Workload w = SingleQuery(1.0, 2, 12, 4);
  McodDetector detector(w);
  std::vector<double> values(12, 0.0);
  values[5] = 50.0;  // one faraway point stays dispersed
  CollectResults(w, Points1D(values), &detector);
  EXPECT_GE(detector.num_clusters(), 1u);
}

TEST(McodDetectorTest, ClustersDissolveOnExpiry) {
  // Dense prefix forms a cluster; the rest of the stream is far away, so
  // once the prefix expires the cluster must dissolve.
  const Workload w = SingleQuery(1.0, 2, 4, 2);
  McodDetector detector(w);
  std::vector<double> values = {0, 0, 0, 0, 50, 51, 52, 53, 54, 55};
  CollectResults(w, Points1D(values), &detector);
  EXPECT_EQ(detector.num_clusters(), 0u);
}

TEST(McodDetectorTest, MatchesOracleWithClusterChurn) {
  // Alternating dense bursts and sparse noise exercise formation,
  // dissolution and the co-member fast path against exact counting.
  const Workload w = SingleQuery(2.0, 3, 8, 4);
  std::vector<double> values;
  for (int block = 0; block < 6; ++block) {
    const double base = block % 2 == 0 ? 0.0 : 40.0;
    for (int i = 0; i < 4; ++i) {
      values.push_back(base + 0.1 * i + 7.0 * (i == 3 ? 1 : 0));
    }
  }
  McodDetector detector(w);
  ExpectMatchesOracle(w, Points1D(values), &detector, "mcod churn");
}

TEST(McodDetectorTest, TimeBasedMatchesOracle) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 2, 10, 5));
  const std::vector<Timestamp> times = {1, 2, 3, 4, 11, 12, 13, 25, 26, 27};
  const std::vector<double> values = {0.0, 0.1, 0.2, 9.0, 0.3,
                                      0.4, 9.1, 0.5, 0.6, 0.7};
  McodDetector detector(w);
  ExpectMatchesOracle(w, Points1D(times, values), &detector, "mcod time");
}

}  // namespace
}  // namespace sop
