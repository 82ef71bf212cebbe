// Edge-case and misuse tests across the library: alternative metrics,
// degenerate streams, contract violations (death tests).

#include <limits>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/driver.h"
#include "sop/detector/factory.h"
#include "sop/gen/stt.h"
#include "sop/stream/stream_buffer.h"
#include "test_util.h"

namespace sop {
namespace {

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
    RunStream(w, gen::GenerateStt(6000, options), d.get(),
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
