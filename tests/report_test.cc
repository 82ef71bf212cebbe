// Tests for the per-point outlier report aggregation (the paper's Alg. 3
// output format).

#include <memory>

#include "gtest/gtest.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/report/aggregate.h"
#include "test_util.h"

namespace sop {
namespace {

using report::OutlierAggregator;
using report::PointReport;

QueryResult MakeResult(size_t query, int64_t boundary,
                       std::vector<Seq> outliers) {
  QueryResult r;
  r.query_index = query;
  r.boundary = boundary;
  r.outliers = std::move(outliers);
  return r;
}

TEST(OutlierAggregatorTest, PivotsQueriesPerPoint) {
  OutlierAggregator agg;
  agg.Add(MakeResult(0, 100, {5, 9}));
  agg.Add(MakeResult(2, 100, {9}));
  agg.Add(MakeResult(1, 200, {5}));

  EXPECT_EQ(agg.Boundaries(), (std::vector<int64_t>{100, 200}));
  const std::vector<PointReport> at100 = agg.ReportsAt(100);
  ASSERT_EQ(at100.size(), 2u);
  EXPECT_EQ(at100[0].seq, 5);
  EXPECT_EQ(at100[0].queries, (std::vector<size_t>{0}));
  EXPECT_EQ(at100[1].seq, 9);
  EXPECT_EQ(at100[1].queries, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(agg.ReportsAt(200).size(), 1u);
  EXPECT_TRUE(agg.ReportsAt(999).empty());
  EXPECT_EQ(agg.NumFlaggedPointWindows(), 3u);
  EXPECT_EQ(agg.NumDistinctPoints(), 2u);
}

TEST(OutlierAggregatorTest, ToStringFormat) {
  OutlierAggregator agg;
  agg.Add(MakeResult(0, 100, {5}));
  agg.Add(MakeResult(3, 100, {5}));
  EXPECT_EQ(agg.ToString(100), "p5 <- q0,q3\n");
  EXPECT_EQ(agg.ToString(42), "");
}

// End-to-end: the aggregated view of a real run must contain exactly the
// per-query emissions, pivoted.
TEST(OutlierAggregatorTest, MatchesDriverEmissions) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(0.5, 1, 6, 3));
  w.AddQuery(OutlierQuery(1.5, 3, 9, 3));
  const std::vector<Point> points = testing::Points1D(
      {0.0, 0.4, 5.0, 0.8, 1.2, 5.4, 9.0, 1.6, 2.0, 5.8, 2.4, 0.0});
  std::unique_ptr<OutlierDetector> detector =
      CreateDetector("sop", w);
  OutlierAggregator agg;
  uint64_t flat_flags = 0;
  ExecutionEngine().Run(w, points, detector.get(), [&](const QueryResult& r) {
    agg.Add(r);
    flat_flags += r.outliers.size();
  });
  uint64_t pivoted_flags = 0;
  for (const int64_t b : agg.Boundaries()) {
    for (const PointReport& report : agg.ReportsAt(b)) {
      pivoted_flags += report.queries.size();
      // Query lists are sorted and duplicate-free.
      for (size_t i = 1; i < report.queries.size(); ++i) {
        EXPECT_LT(report.queries[i - 1], report.queries[i]);
      }
    }
  }
  EXPECT_EQ(pivoted_flags, flat_flags);
  EXPECT_GT(flat_flags, 0u);
}

}  // namespace
}  // namespace sop
