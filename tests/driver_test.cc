// Tests of ExecutionEngine::Run's batching: batch slicing, emission
// accounting, metrics.

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "sop/detector/detector.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/detector/metrics.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::Points1D;

// Records the batches it is fed.
class RecordingDetector : public OutlierDetector {
 public:
  struct Call {
    std::vector<Seq> seqs;
    int64_t boundary;
  };

  const char* name() const override { return "recording"; }

  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override {
    Call call;
    call.boundary = boundary;
    for (const Point& p : batch) call.seqs.push_back(p.seq);
    calls.push_back(std::move(call));
    return {};
  }

  size_t MemoryBytes() const override { return 123; }

  std::vector<Call> calls;
};

Workload CountWorkload(int64_t slide) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 1, 100, slide));
  return w;
}

TEST(DriverTest, CountBasedBatching) {
  RecordingDetector detector;
  RunMetrics metrics = ExecutionEngine().Run(
      CountWorkload(3), Points1D({0, 0, 0, 0, 0, 0, 0}), &detector);
  // 7 points, slide 3: two full batches, trailing point dropped.
  ASSERT_EQ(detector.calls.size(), 2u);
  EXPECT_EQ(detector.calls[0].seqs, (std::vector<Seq>{0, 1, 2}));
  EXPECT_EQ(detector.calls[0].boundary, 3);
  EXPECT_EQ(detector.calls[1].seqs, (std::vector<Seq>{3, 4, 5}));
  EXPECT_EQ(detector.calls[1].boundary, 6);
  EXPECT_EQ(metrics.num_batches, 2);
  EXPECT_EQ(metrics.total_points, 7);
  EXPECT_EQ(metrics.peak_memory_bytes, 123u);
}

TEST(DriverTest, CountBasedUsesSlideGcdAcrossQueries) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 1, 100, 4));
  w.AddQuery(OutlierQuery(1.0, 1, 100, 6));
  RecordingDetector detector;
  ExecutionEngine().Run(w, Points1D(std::vector<double>(8, 0.0)), &detector);
  // gcd(4, 6) = 2: boundaries 2, 4, 6, 8.
  ASSERT_EQ(detector.calls.size(), 4u);
  EXPECT_EQ(detector.calls[3].boundary, 8);
}

TEST(DriverTest, TimeBasedBatchingWithGapsAndTies) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 1, 100, 10));
  RecordingDetector detector;
  const std::vector<Timestamp> times = {3, 9, 9, 10, 31};
  ExecutionEngine().Run(w, Points1D(times, {0, 0, 0, 0, 0}), &detector);
  // First boundary after t=3 is 10 (covers keys < 10); then 20 and 30
  // (empty), then 40 covering the last point.
  ASSERT_EQ(detector.calls.size(), 4u);
  EXPECT_EQ(detector.calls[0].boundary, 10);
  EXPECT_EQ(detector.calls[0].seqs, (std::vector<Seq>{0, 1, 2}));
  EXPECT_EQ(detector.calls[1].boundary, 20);
  EXPECT_EQ(detector.calls[1].seqs, (std::vector<Seq>{3}));
  EXPECT_EQ(detector.calls[2].boundary, 30);
  EXPECT_TRUE(detector.calls[2].seqs.empty());
  EXPECT_EQ(detector.calls[3].boundary, 40);
  EXPECT_EQ(detector.calls[3].seqs, (std::vector<Seq>{4}));
}

TEST(DriverTest, EmptyStreamProducesNothing) {
  RecordingDetector detector;
  RunMetrics metrics =
      ExecutionEngine().Run(CountWorkload(2), std::vector<Point>{}, &detector);
  EXPECT_TRUE(detector.calls.empty());
  EXPECT_EQ(metrics.num_batches, 0);
  EXPECT_EQ(metrics.total_points, 0);
}

TEST(DriverTest, SinkReceivesEveryResult) {
  // A detector that emits one fixed result per batch.
  class EmittingDetector : public OutlierDetector {
   public:
    const char* name() const override { return "emitting"; }
    std::vector<QueryResult> Advance(std::vector<Point>,
                                     int64_t boundary) override {
      QueryResult r;
      r.query_index = 0;
      r.boundary = boundary;
      r.outliers = {1, 2};
      return {r};
    }
    size_t MemoryBytes() const override { return 0; }
  };
  EmittingDetector detector;
  int sunk = 0;
  RunMetrics metrics =
      ExecutionEngine().Run(CountWorkload(2), Points1D({0, 0, 0, 0}), &detector,
                            [&sunk](const QueryResult&) { ++sunk; });
  EXPECT_EQ(sunk, 2);
  EXPECT_EQ(metrics.total_emissions, 2u);
  EXPECT_EQ(metrics.total_outliers, 4u);
}

TEST(MetricsTest, AccumulatorAveragesPerWindow) {
  MetricsAccumulator acc;
  // Wall 2/4/6 ms; CPU 7/1/1 ms (lanes can spend more CPU than wall).
  acc.RecordBatch(2.0, 7.0, 100, 1, 5);
  acc.RecordBatch(4.0, 1.0, 300, 2, 0);
  acc.RecordBatch(6.0, 1.0, 200, 0, 0);
  acc.RecordPoints(30);
  const RunMetrics m = acc.Finish();
  EXPECT_EQ(m.num_batches, 3);
  EXPECT_DOUBLE_EQ(m.avg_wall_ms_per_window, 4.0);
  EXPECT_DOUBLE_EQ(m.total_wall_ms, 12.0);
  EXPECT_DOUBLE_EQ(m.avg_cpu_ms_per_window, 3.0);
  EXPECT_DOUBLE_EQ(m.total_cpu_ms, 9.0);
  // Latency percentiles follow wall time.
  EXPECT_DOUBLE_EQ(m.max_batch_ms, 6.0);
  EXPECT_EQ(m.peak_memory_bytes, 300u);
  EXPECT_EQ(m.total_emissions, 3u);
  EXPECT_EQ(m.total_outliers, 5u);
  EXPECT_EQ(m.total_points, 30);
  EXPECT_NE(m.ToString().find("cpu/window=3.000ms"), std::string::npos)
      << m.ToString();
  EXPECT_NE(m.ToString().find("wall/window=4.000ms"), std::string::npos)
      << m.ToString();
}

// The diagnostic sop_cli and sop_server print for a rejected --detector:
// one line, naming the offender and every detector the factory knows.
TEST(DriverTest, UnknownDetectorMessageListsEveryName) {
  const std::string msg = UnknownDetectorMessage("bogus");
  EXPECT_NE(msg.find("unknown detector 'bogus'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("known detectors"), std::string::npos) << msg;
  for (const std::string& name : KnownDetectorNames()) {
    EXPECT_NE(msg.find(name), std::string::npos) << msg;
  }
  EXPECT_EQ(msg.find('\n'), std::string::npos) << "must be one line";
}

}  // namespace
}  // namespace sop
