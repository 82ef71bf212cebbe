// Edge-case and misuse tests across the library: alternative metrics,
// degenerate streams, contract violations (death tests).

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/gen/stt.h"
#include "sop/stream/stream_buffer.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;
using testing::ExpectedResults;
using testing::ExpectSameResults;
using testing::Points1D;

TEST(ManhattanMetricTest, AllDetectorsMatchOracle) {
  Workload w(WindowType::kCount, Metric::kManhattan);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.5, 4, 24, 8));
  Rng rng(31);
  std::vector<Point> points;
  for (Seq s = 0; s < 120; ++s) {
    points.emplace_back(s, s,
                        std::vector<double>{rng.Normal(5, 0.8),
                                            rng.Normal(5, 0.8)});
  }
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const char* kind :
       {"sop", "leap", "mcod",
        "mcod-grid"}) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()),
                      std::string("manhattan/") + kind);
  }
}

// A point with a NaN or infinite coordinate is nobody's neighbor: it is an
// outlier and changes no other point's status. Every detector must agree
// with naive, which compares the same distances pair by pair.
TEST(NonFiniteCoordinateTest, EveryDetectorMatchesNaive) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf,
                           -inf}) {
    for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
      Workload w(type);
      w.AddQuery(OutlierQuery(1.5, 2, 8, 4));
      const std::vector<Point> points =
          Points1D({0.0, 0.5, 1.0, bad, 0.2, 0.7, 1.2, 0.4});
      const std::string label =
          std::to_string(bad) +
          (type == WindowType::kCount ? "/count" : "/time");
      std::unique_ptr<OutlierDetector> naive = CreateDetector("naive", w);
      const std::vector<QueryResult> expected =
          CollectResults(w, points, naive.get());
      ASSERT_FALSE(expected.empty()) << label;
      EXPECT_EQ(expected[0].boundary, 4) << label;
      EXPECT_EQ(expected[0].outliers, (std::vector<Seq>{3})) << label;
      for (const char* kind :
           {"sop", "grouped-sop", "leap", "mcod", "mcod-grid"}) {
        std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
        ExpectSameResults(expected, CollectResults(w, points, d.get()),
                          label + "/" + kind);
      }
    }
  }
}

// Distances exactly at a query radius, and a rounding step either side.
// The scan compares keys with per-layer key thresholds (query/plan.h,
// "Keys") where naive compares distances with r, so a pair whose key sits
// on a threshold, or an ulp off fl(r^2), is where the two could part.
//
// Each radius r is drawn so that the key one ulp above fl(r^2) still has
// root r: such a pair is at distance exactly r, a neighbour, which a
// threshold of plain r * r would drop. A seeded search finds 2-d offsets
// (a, b) whose Euclidean key fl(fl(a^2) + fl(b^2)), or Manhattan key
// fl(a + b), equals each target: fl(r^2) and its neighbours, or r and its
// neighbours. Points sit in clusters 8192 apart along a third axis, at the
// cluster's anchor or at an offset from it, so every anchor-offset pair
// differs by exactly (a, b, 0). No point can be Safe-For-All (k 200 at
// r_min exceeds any cluster), so large batches fan out to four lanes.
struct TieCase {
  std::vector<double> radii;
  std::vector<std::pair<double, double>> offsets;
};

TieCase FindTies(Metric metric, Rng* rng) {
  const double inf = std::numeric_limits<double>::infinity();
  TieCase c;
  while (c.radii.size() < 3) {
    const double r = rng->UniformDouble(200, 800);
    if (std::sqrt(std::nextafter(r * r, inf)) == r) c.radii.push_back(r);
  }
  for (const double r : c.radii) {
    const double s = metric == Metric::kEuclidean ? r * r : r;
    for (const double target : {std::nextafter(s, 0.0), s,
                                std::nextafter(s, inf),
                                std::nextafter(std::nextafter(s, inf), inf)}) {
      bool found = false;
      for (int attempt = 0; attempt < 10000 && !found; ++attempt) {
        const double a = r * rng->UniformDouble(0.2, 0.8);
        double b = metric == Metric::kEuclidean
                       ? std::sqrt(target - a * a)
                       : target - a;
        b = std::nextafter(b, 0.0);
        for (int step = 0; step < 3 && !found; ++step) {
          double key = 0.0;
          if (metric == Metric::kEuclidean) {
            key += a * a;
            key += b * b;
          } else {
            key += a;
            key += b;
          }
          if (key == target) {
            c.offsets.emplace_back(a, b);
            found = true;
          }
          b = std::nextafter(b, inf);
        }
      }
      EXPECT_TRUE(found) << MetricName(metric) << " r " << r;
    }
  }
  return c;
}

TEST(TieTest, SopMatchesNaiveOnThresholdKeys) {
  constexpr int kClusters = 20;
  constexpr Seq kPoints = 1500;  // the last batch scans 1500 x 1500 > 2M
  for (const Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
    Rng rng(metric == Metric::kEuclidean ? 101 : 202);
    const TieCase ties = FindTies(metric, &rng);
    ASSERT_EQ(ties.offsets.size(), 12u);
    for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
      Workload w(type, metric);
      for (const double r : ties.radii) {
        w.AddQuery(OutlierQuery(r, 10, 1500, 500));
        w.AddQuery(OutlierQuery(r, 25, 1000, 500));
      }
      w.AddQuery(OutlierQuery(100.0, 200, 1500, 500));
      // A third of the points at an anchor, the rest at its offsets; time
      // windows get ties and gaps as elsewhere (seq 3j+1 shares its
      // predecessor's time).
      std::vector<Point> points;
      for (Seq s = 0; s < kPoints; ++s) {
        const double z = 8192.0 * static_cast<double>(rng.NextBelow(kClusters));
        const size_t pos = rng.NextBelow(ties.offsets.size() * 3 / 2);
        std::vector<double> v = {0.0, 0.0, z};
        if (pos < ties.offsets.size()) {
          v[0] = ties.offsets[pos].first;
          v[1] = ties.offsets[pos].second;
        }
        const Timestamp t =
            type == WindowType::kCount || s % 3 != 1 ? s : s - 1;
        points.emplace_back(s, t, std::move(v));
      }
      const std::string label =
          std::string(MetricName(metric)) +
          (type == WindowType::kCount ? "/count" : "/time");
      std::unique_ptr<OutlierDetector> naive = CreateDetector("naive", w);
      const std::vector<QueryResult> expected =
          CollectResults(w, points, naive.get());
      ASSERT_FALSE(expected.empty()) << label;
      for (const int lanes : {1, 4}) {
        SetScanLanesForTest(lanes);
        SopDetector sop(w);
        ExpectSameResults(expected, CollectResults(w, points, &sop),
                          label + " at " + std::to_string(lanes) + " lanes");
        SetScanLanesForTest(0);
        EXPECT_EQ(sop.stats().safe_points_discovered, 0) << label;
      }
    }
  }
}

TEST(DegenerateStreamTest, WindowLargerThanStream) {
  // The window never fills; every emission uses a partial window.
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 1000, 4));
  const std::vector<Point> points = Points1D(
      {0.0, 0.1, 5.0, 0.2, 0.3, 5.1, 0.4, 9.0, 0.5, 0.6, 5.2, 0.7});
  std::unique_ptr<OutlierDetector> sop = CreateDetector("sop", w);
  ExpectSameResults(ExpectedResults(w, points),
                    CollectResults(w, points, sop.get()), "partial windows");
}

TEST(DegenerateStreamTest, SinglePointWindows) {
  // win == slide == 1: every window holds exactly one point, which can
  // never have a neighbor -> always an outlier.
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(100.0, 1, 1, 1));
  const std::vector<Point> points = Points1D({1, 1, 1, 1});
  std::unique_ptr<OutlierDetector> sop = CreateDetector("sop", w);
  std::vector<QueryResult> results = CollectResults(w, points, sop.get());
  ASSERT_EQ(results.size(), 4u);
  for (const QueryResult& r : results) {
    EXPECT_EQ(r.outliers.size(), 1u);
  }
}

TEST(DegenerateStreamTest, TiedTimestampsTimeWindows) {
  // All points share one timestamp: one emission covers them all.
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 2, 10, 5));
  std::vector<Point> points;
  for (Seq s = 0; s < 10; ++s) {
    points.emplace_back(s, 7, std::vector<double>{s < 8 ? 0.0 : 50.0});
  }
  std::unique_ptr<OutlierDetector> sop = CreateDetector("sop", w);
  ExpectSameResults(ExpectedResults(w, points),
                    CollectResults(w, points, sop.get()), "tied timestamps");
}

TEST(ContractTest, BufferRejectsOutOfOrderSeq) {
  StreamBuffer buffer(WindowType::kCount);
  buffer.Append(Point(0, 0, {1.0}));
  EXPECT_DEATH(buffer.Append(Point(5, 5, {1.0})), "seq order");
}

TEST(ContractTest, BufferRejectsDecreasingKeys) {
  StreamBuffer buffer(WindowType::kTime);
  buffer.Append(Point(0, 10, {1.0}));
  EXPECT_DEATH(buffer.Append(Point(1, 5, {1.0})), "non-decreasing");
}

TEST(ContractTest, ResetToRequiresEmptyBuffer) {
  StreamBuffer buffer(WindowType::kCount);
  buffer.Append(Point(0, 0, {1.0}));
  EXPECT_DEATH(buffer.ResetTo(10), "empty");
}

TEST(ContractTest, PlanRejectsMixedAttributeSets) {
  Workload w(WindowType::kCount);
  const int set = w.AddAttributeSet({0});
  w.AddQuery(OutlierQuery(1.0, 2, 8, 4, 0));
  w.AddQuery(OutlierQuery(1.0, 2, 8, 4, set));
  EXPECT_DEATH(WorkloadPlan plan(w), "single attribute set");
}

TEST(ContractTest, DetectorsRejectInvalidWorkloads) {
  Workload empty(WindowType::kCount);
  EXPECT_DEATH(CreateDetector("naive", empty), "no queries");
  Workload bad(WindowType::kCount);
  bad.AddQuery(OutlierQuery(1.0, 0, 8, 4));
  EXPECT_DEATH(CreateDetector("sop", bad), "k must");
}

TEST(SttAnomalyTest, AnomalyRateDrivesOutlierCount) {
  // More injected anomalies -> more detected outliers, same workload.
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(400.0, 8, 2000, 500));
  auto run = [&w](double rate) {
    gen::SttOptions options;
    options.seed = 9;
    options.anomaly_rate = rate;
    std::unique_ptr<OutlierDetector> d = CreateDetector("sop", w);
    uint64_t outliers = 0;
    ExecutionEngine().Run(w, gen::GenerateStt(6000, options), d.get(),
                          [&outliers](const QueryResult& r) {
                            outliers += r.outliers.size();
                          });
    return outliers;
  };
  const uint64_t low = run(0.005);
  const uint64_t high = run(0.08);
  EXPECT_GT(high, low * 2);
}

TEST(SlideGcdOneTest, CoprimeSlides) {
  // Slides 2 and 3: the swift query slides every point-pair... gcd 1
  // would batch every point; use 2 and 3 -> gcd 1.
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 1, 6, 2));
  w.AddQuery(OutlierQuery(1.0, 1, 6, 3));
  EXPECT_EQ(w.SlideGcd(), 1);
  const std::vector<Point> points =
      Points1D({0.0, 0.1, 9.0, 0.2, 9.1, 0.3, 0.4, 9.2, 0.5, 0.6});
  std::unique_ptr<OutlierDetector> sop = CreateDetector("sop", w);
  ExpectSameResults(ExpectedResults(w, points),
                    CollectResults(w, points, sop.get()), "gcd 1");
}

}  // namespace
}  // namespace sop
