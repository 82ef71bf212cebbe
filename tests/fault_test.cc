// Tests for the fault-injection toolkit (common/fault.h), the checksum
// framing (common/frame.h), the policy-enforcing source wrapper
// (stream/sanitize.h), and the engine's resilience behaviours: overload
// degradation with a bounded batch queue.

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/fault.h"
#include "sop/common/frame.h"
#include "sop/common/random.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/stream/sanitize.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ExpectSameResults;

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  FaultInjector a(42);
  FaultInjector b(42);
  a.SetRate(FaultSite::kCheckpointWrite, 0.3);
  b.SetRate(FaultSite::kCheckpointWrite, 0.3);
  a.SetRate(FaultSite::kBatchStall, 0.3);
  b.SetRate(FaultSite::kBatchStall, 0.3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.ShouldFail(FaultSite::kCheckpointWrite),
              b.ShouldFail(FaultSite::kCheckpointWrite))
        << "checkpoint-write draw " << i;
    EXPECT_EQ(a.ShouldFail(FaultSite::kBatchStall),
              b.ShouldFail(FaultSite::kBatchStall))
        << "batch-stall draw " << i;
  }
  EXPECT_GT(a.injected(FaultSite::kCheckpointWrite), 0);
  EXPECT_EQ(a.consulted(FaultSite::kCheckpointWrite), 2000);
}

TEST(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  // Interleaving draws at one site must not perturb another site's
  // schedule: site decisions are a pure function of (seed, site, index).
  FaultInjector interleaved(7);
  FaultInjector solo(7);
  interleaved.SetRate(FaultSite::kBatchStall, 0.5);
  interleaved.SetRate(FaultSite::kCheckpointWrite, 0.5);
  solo.SetRate(FaultSite::kBatchStall, 0.5);
  std::vector<bool> with_noise;
  std::vector<bool> without_noise;
  for (int i = 0; i < 500; ++i) {
    interleaved.ShouldFail(FaultSite::kCheckpointWrite);  // noise draws
    with_noise.push_back(interleaved.ShouldFail(FaultSite::kBatchStall));
    without_noise.push_back(solo.ShouldFail(FaultSite::kBatchStall));
  }
  EXPECT_EQ(with_noise, without_noise);
}

TEST(FaultInjectorTest, MaxFailuresCapsInjection) {
  FaultInjector injector(3);
  injector.SetRate(FaultSite::kCheckpointRead, 1.0);
  injector.SetMaxFailures(FaultSite::kCheckpointRead, 5);
  int64_t failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (injector.ShouldFail(FaultSite::kCheckpointRead)) ++failures;
  }
  EXPECT_EQ(failures, 5);
  EXPECT_EQ(injector.injected(FaultSite::kCheckpointRead), 5);
  EXPECT_EQ(injector.consulted(FaultSite::kCheckpointRead), 100);
}

TEST(FaultInjectorTest, CorruptBytesFlipsExactlyOneBit) {
  FaultInjector injector(11);
  const std::string original(64, '\0');
  for (int round = 0; round < 20; ++round) {
    std::string bytes = original;
    injector.CorruptBytes(&bytes);
    int flipped_bits = 0;
    for (size_t i = 0; i < bytes.size(); ++i) {
      unsigned char diff = static_cast<unsigned char>(bytes[i]) ^
                           static_cast<unsigned char>(original[i]);
      while (diff != 0) {
        flipped_bits += diff & 1;
        diff >>= 1;
      }
    }
    EXPECT_EQ(flipped_bits, 1) << "round " << round;
  }
  std::string empty;
  injector.CorruptBytes(&empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjectorTest, ArmingIsScopedAndOptIn) {
  EXPECT_EQ(FaultInjector::Armed(), nullptr);
  FaultInjector injector(1);
  {
    ScopedFaultInjection armed(&injector);
    EXPECT_EQ(FaultInjector::Armed(), &injector);
  }
  EXPECT_EQ(FaultInjector::Armed(), nullptr);
}

// ---------------------------------------------------------------------------
// Frame

TEST(FrameTest, Crc32MatchesTheStandardCheckValue) {
  // The IEEE 802.3 reflected CRC-32 of "123456789" is the canonical check
  // value; matching it pins the exact polynomial/reflection/final-xor.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(FrameTest, WrapUnwrapRoundTrips) {
  const std::vector<std::string> payloads = {std::string(), std::string("x"),
                                             std::string(1000, '\xab')};
  for (const std::string& payload : payloads) {
    const std::string framed = WrapFrame(payload);
    EXPECT_EQ(framed.size(), payload.size() + 20);
    std::string_view unwrapped;
    std::string error;
    ASSERT_TRUE(UnwrapFrame(framed, &unwrapped, &error)) << error;
    EXPECT_EQ(unwrapped, payload);
  }
}

TEST(FrameTest, RejectsTruncationTrailingBytesAndBitFlips) {
  const std::string framed = WrapFrame("resilient payload");
  std::string_view payload;
  std::string error;
  for (size_t len = 0; len < framed.size(); ++len) {
    EXPECT_FALSE(UnwrapFrame(framed.substr(0, len), &payload, &error))
        << "accepted truncation to " << len;
  }
  EXPECT_FALSE(UnwrapFrame(framed + "y", &payload, &error));
  for (size_t byte = 0; byte < framed.size(); ++byte) {
    std::string mutated = framed;
    mutated[byte] ^= 0x10;
    EXPECT_FALSE(UnwrapFrame(mutated, &payload, &error))
        << "accepted flip in byte " << byte;
    EXPECT_FALSE(error.empty());
  }
}

// ---------------------------------------------------------------------------
// SanitizingSource

std::vector<Point> DirtyStream() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Point> points;
  points.emplace_back(0, 10, std::vector<double>{1.0, 2.0});
  points.emplace_back(0, 11, std::vector<double>{nan, 2.0});    // non-finite
  points.emplace_back(0, 12, std::vector<double>{3.0});         // wrong dims
  points.emplace_back(0, 5, std::vector<double>{4.0, 4.0});     // time goes back
  points.emplace_back(0, 13, std::vector<double>{5.0, 6.0});
  return points;
}

TEST(SanitizingSourceTest, SkipQuarantineDropsAndCounts) {
  VectorSource inner(DirtyStream());
  SanitizingSource source(&inner, RecordPolicy::kSkipQuarantine);
  std::vector<Point> out;
  Point p;
  while (source.Next(&p)) out.push_back(p);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].time, 10);
  EXPECT_EQ(out[1].time, 13);
  EXPECT_EQ(source.stats().accepted, 2u);
  EXPECT_EQ(source.stats().quarantined, 3u);
  EXPECT_TRUE(source.error().empty());
}

TEST(SanitizingSourceTest, ClampRepairFixesWhatItCanDropsTheRest) {
  VectorSource inner(DirtyStream());
  SanitizingSource source(&inner, RecordPolicy::kClampRepair);
  std::vector<Point> out;
  Point p;
  while (source.Next(&p)) out.push_back(p);
  // The non-finite value and the time regression are repairable; the
  // dimensionality change is not.
  ASSERT_EQ(out.size(), 4u);
  Timestamp last = out.front().time;
  for (const Point& q : out) {
    EXPECT_GE(q.time, last);
    last = q.time;
    ASSERT_EQ(q.values.size(), 2u);
    for (double v : q.values) EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(source.stats().repaired, 2u);
  EXPECT_EQ(source.stats().quarantined, 1u);
}

TEST(SanitizingSourceTest, FailFastEndsTheStreamWithADiagnostic) {
  VectorSource inner(DirtyStream());
  SanitizingSource source(&inner, RecordPolicy::kFailFast);
  std::vector<Point> out;
  Point p;
  while (source.Next(&p)) out.push_back(p);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_FALSE(source.error().empty());
  EXPECT_NE(source.error().find("record 1"), std::string::npos)
      << source.error();
  EXPECT_FALSE(source.Next(&p)) << "stream must stay terminated";
}

// ---------------------------------------------------------------------------
// Engine resilience

Workload ResilienceWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.0, 3, 24, 8));
  return w;
}

std::vector<Point> ResilienceStream(int64_t n) {
  Rng rng(99);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    const double v =
        rng.Bernoulli(0.15) ? rng.UniformDouble(0, 40) : rng.Normal(12, 1.0);
    points.emplace_back(s, s, std::vector<double>{v});
  }
  return points;
}

TEST(EngineResilienceTest, BlockingQueueIsLossless) {
  const Workload w = ResilienceWorkload();
  const std::vector<Point> points = ResilienceStream(160);

  ExecutionEngine serial;
  std::unique_ptr<OutlierDetector> serial_detector = CreateDetector("mcod", w);
  std::vector<QueryResult> expected;
  serial.Run(w, points, serial_detector.get(),
             [&expected](const QueryResult& r) { expected.push_back(r); });

  ExecOptions options;
  options.overload.max_queue_batches = 3;
  options.overload.policy = OverloadPolicy::kBlock;
  ExecutionEngine pipelined(options);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("mcod", w);
  std::vector<QueryResult> actual;
  const RunMetrics metrics =
      pipelined.Run(w, points, detector.get(),
                    [&actual](const QueryResult& r) { actual.push_back(r); });

  EXPECT_EQ(metrics.shed_batches, 0u);
  EXPECT_EQ(metrics.degraded_emissions, 0u);
  ExpectSameResults(expected, actual, "blocking pipeline");
}

TEST(EngineResilienceTest, DropOldestShedsAndFlagsDegradedUnderStall) {
  const Workload w = ResilienceWorkload();
  const std::vector<Point> points = ResilienceStream(400);

  FaultInjector injector(5);
  injector.SetRate(FaultSite::kBatchStall, 1.0);
  injector.SetStallMillis(3);
  ScopedFaultInjection armed(&injector);

  ExecOptions options;
  options.overload.max_queue_batches = 2;
  options.overload.policy = OverloadPolicy::kDropOldest;
  ExecutionEngine engine(options);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", w);
  uint64_t degraded_seen = 0;
  const RunMetrics metrics = engine.Run(
      w, points, detector.get(), [&degraded_seen](const QueryResult& r) {
        if (r.degraded) ++degraded_seen;
      });

  // With every batch stalled and a 2-deep queue, ingest overruns detection
  // and the oldest batches are shed; windows spanning the shed data are
  // flagged.
  EXPECT_GT(metrics.shed_batches, 0u);
  EXPECT_GT(metrics.shed_points, 0u);
  EXPECT_GT(metrics.degraded_emissions, 0u);
  EXPECT_EQ(metrics.degraded_emissions, degraded_seen);
  EXPECT_GT(injector.injected(FaultSite::kBatchStall), 0);
}

TEST(EngineResilienceTest, TimeBasedSheddingKeepsTheEmissionCadence) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.0, 3, 24, 8));
  const std::vector<Point> points = ResilienceStream(400);  // time == seq

  ExecutionEngine serial;
  std::unique_ptr<OutlierDetector> serial_detector = CreateDetector("mcod", w);
  std::vector<QueryResult> baseline;
  serial.Run(w, points, serial_detector.get(),
             [&baseline](const QueryResult& r) { baseline.push_back(r); });

  FaultInjector injector(6);
  injector.SetRate(FaultSite::kBatchStall, 1.0);
  injector.SetStallMillis(3);
  ScopedFaultInjection armed(&injector);

  ExecOptions options;
  options.overload.max_queue_batches = 2;
  options.overload.policy = OverloadPolicy::kDropOldest;
  ExecutionEngine engine(options);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("mcod", w);
  std::vector<QueryResult> degraded_run;
  const RunMetrics metrics = engine.Run(
      w, points, detector.get(),
      [&degraded_run](const QueryResult& r) { degraded_run.push_back(r); });

  EXPECT_GT(metrics.shed_batches, 0u);
  // Shed time spans still advance the windows (empty filler batches), so
  // the emission schedule — which queries fire at which boundaries — is
  // identical to the lossless run even though the answers may differ.
  ASSERT_EQ(baseline.size(), degraded_run.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(baseline[i].query_index, degraded_run[i].query_index);
    EXPECT_EQ(baseline[i].boundary, degraded_run[i].boundary);
  }
}

}  // namespace
}  // namespace sop
