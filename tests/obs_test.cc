// Tests for the observability subsystem (sop/obs/): registry semantics,
// the JSON exporter, disabled-mode no-ops, and the core guarantee that
// enabling metrics never changes detection results.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/obs/export.h"
#include "sop/obs/metrics.h"
#include "sop/obs/trace.h"
#include "test_util.h"

namespace sop {
namespace {

using ::sop::testing::CollectResults;
using ::sop::testing::ExpectSameResults;

// Restores the runtime gate on scope exit so tests cannot leak an enabled
// registry into each other.
class ScopedObsEnabled {
 public:
  explicit ScopedObsEnabled(bool enabled) { obs::SetEnabled(enabled); }
  ~ScopedObsEnabled() { obs::SetEnabled(false); }
};

Workload SmallWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(/*r=*/1.5, /*k=*/3, /*win=*/40, /*slide=*/10));
  w.AddQuery(OutlierQuery(/*r=*/2.5, /*k=*/5, /*win=*/20, /*slide=*/10));
  return w;
}

std::vector<Point> SmallStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double v = (i % 17 == 0) ? rng.UniformDouble(-40.0, 40.0)
                                   : rng.Normal(0.0, 1.0);
    points.emplace_back(static_cast<Seq>(i), static_cast<Timestamp>(i),
                        std::vector<double>{v});
  }
  return points;
}

TEST(ObsRegistryTest, HandlesAreStableAndSurviveReset) {
  obs::MetricsRegistry registry;
  obs::Counter& c1 = registry.GetCounter("a/count");
  obs::Counter& c2 = registry.GetCounter("a/count");
  EXPECT_EQ(&c1, &c2);  // same name -> same handle
  c1.Add(41);
  c1.Increment();
  EXPECT_EQ(c2.value(), 42u);

  obs::Gauge& g = registry.GetGauge("a/gauge");
  g.Set(7);
  g.SetMax(3);  // lower: no change
  EXPECT_EQ(g.value(), 7);
  g.SetMax(11);
  EXPECT_EQ(g.value(), 11);

  registry.GetHistogram("a/hist").Record(2.5);

  registry.Reset();
  EXPECT_EQ(c1.value(), 0u);          // zeroed...
  EXPECT_EQ(&registry.GetCounter("a/count"), &c1);  // ...but not replaced
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(registry.GetHistogram("a/hist").count(), 0u);

  const obs::Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.counters.size(), 1u);  // registrations survive Reset
  EXPECT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.histograms.size(), 1u);
}

TEST(ObsRegistryTest, HistogramExactStatsOnSmallSamples) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));
  const obs::Histogram::Stats s = h.ComputeStats();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.sum, 5050.0);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Nearest-rank: ceil(p/100 * 100) = p.
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p90, 90.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
}

TEST(ObsRegistryTest, HistogramDecimationKeepsExactAggregates) {
  obs::Histogram h;
  const int n = 200000;  // > the 64Ki sample cap, forces two decimations
  for (int i = 0; i < n; ++i) h.Record(static_cast<double>(i));
  const obs::Histogram::Stats s = h.ComputeStats();
  EXPECT_EQ(s.count, static_cast<uint64_t>(n));
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(n) * (n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, n - 1.0);
  // Percentiles come from the decimated sample; the uniform ramp makes the
  // expected quantile value p% of the range, within decimation error.
  EXPECT_NEAR(s.p50 / n, 0.50, 0.02);
  EXPECT_NEAR(s.p95 / n, 0.95, 0.02);
}

TEST(ObsRegistryTest, NearestRankPercentileEdgeCases) {
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({}, 50.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({3.0}, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({3.0}, 99.0), 3.0);
  // Rank = round(p/100 * n), clamped to [1, n] (the engine's historical
  // batch-latency convention).
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({1.0, 2.0}, 50.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::NearestRankPercentile({1.0, 2.0}, 76.0), 2.0);
}

TEST(ObsExportTest, JsonRendersAllMetrics) {
  obs::MetricsRegistry registry;
  registry.GetCounter("x/events").Add(3);
  registry.GetGauge("x/level").Set(-2);
  registry.GetHistogram("x/lat_ms").Record(1.0);
  registry.GetHistogram("x/lat_ms").Record(3.0);
  const obs::Snapshot snap = registry.TakeSnapshot();

  const std::string json = obs::ToJson(snap);
  // Structurally a single JSON object with balanced braces.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x/events\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"x/level\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"x/lat_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

TEST(ObsExportTest, JsonEscapesControlAndQuoteCharacters) {
  obs::MetricsRegistry registry;
  registry.GetCounter("weird\"name\n").Add(1);
  const std::string json = obs::ToJson(registry.TakeSnapshot());
  EXPECT_NE(json.find("weird\\\"name\\n"), std::string::npos);
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);  // raw quote gone
}

TEST(ObsGateTest, DisabledMacrosRecordNothing) {
  obs::SetEnabled(false);
  obs::Counter& probe =
      obs::MetricsRegistry::Global().GetCounter("gate/probe");
  probe.Reset();
  SOP_COUNTER_ADD("gate/probe", 5);
  EXPECT_EQ(probe.value(), 0u);  // gate off: no recording

  if (obs::kCompiledIn) {
    ScopedObsEnabled enable(true);
    SOP_COUNTER_ADD("gate/probe", 5);
    EXPECT_EQ(probe.value(), 5u);
  } else {
    ScopedObsEnabled enable(true);
    EXPECT_FALSE(obs::Enabled());  // compiled out: cannot be enabled
    SOP_COUNTER_ADD("gate/probe", 5);
    EXPECT_EQ(probe.value(), 0u);
  }
  probe.Reset();
}

TEST(ObsGateTest, ScopedTraceRecordsOnlyWhenEnabled) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  obs::Histogram& hist =
      obs::MetricsRegistry::Global().GetHistogram("gate/trace_ms");
  hist.Reset();
  { SOP_TRACE("gate/trace_ms"); }
  EXPECT_EQ(hist.count(), 0u);
  {
    ScopedObsEnabled enable(true);
    { SOP_TRACE("gate/trace_ms"); }
  }
  EXPECT_EQ(hist.count(), 1u);
  hist.Reset();
}

// The subsystem's core guarantee: turning metrics on changes what is
// *measured*, never what is *emitted*.
TEST(ObsEquivalenceTest, EnablingMetricsDoesNotChangeOutliers) {
  const Workload w = SmallWorkload();
  const std::vector<Point> points = SmallStream(300, 1234);
  for (const std::string& name : KnownDetectorNames()) {
    std::unique_ptr<OutlierDetector> plain = CreateDetector(name, w);
    obs::SetEnabled(false);
    const std::vector<QueryResult> off = CollectResults(w, points, plain.get());

    std::unique_ptr<OutlierDetector> instrumented = CreateDetector(name, w);
    ScopedObsEnabled enable(true);
    const std::vector<QueryResult> on =
        CollectResults(w, points, instrumented.get());
    ExpectSameResults(off, on, "obs-on/" + name);
  }
  obs::MetricsRegistry::Global().Reset();
}

TEST(ObsEngineTest, EngineRecordsRunAndPerQueryCounters) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const Workload w = SmallWorkload();
  const std::vector<Point> points = SmallStream(300, 77);

  ScopedObsEnabled enable(true);
  obs::MetricsRegistry::Global().Reset();
  ExecutionEngine engine;
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", w);
  const RunMetrics metrics = engine.Run(w, points, detector.get());

  const obs::Snapshot snap = obs::MetricsRegistry::Global().TakeSnapshot();
  obs::MetricsRegistry::Global().Reset();
  // The run's counts have one source, RunMetrics: the registry keeps no
  // engine/* counter, only the batch timing.
  for (const auto& counter : snap.counters) {
    EXPECT_NE(counter.first.rfind("engine/", 0), 0u) << counter.first;
  }
  // Both queries emitted at least once, and the per-query counters add up
  // to the engine-wide totals.
  ASSERT_NE(snap.counters.find("query/0/emissions"), snap.counters.end());
  ASSERT_NE(snap.counters.find("query/1/emissions"), snap.counters.end());
  EXPECT_EQ(snap.counters.at("query/0/emissions") +
                snap.counters.at("query/1/emissions"),
            metrics.total_emissions);
  EXPECT_EQ(snap.counters.at("query/0/outliers") +
                snap.counters.at("query/1/outliers"),
            metrics.total_outliers);
  // The SOP core reported its own instrumentation during the run.
  EXPECT_GT(snap.counters.at("ksky/scans"), 0u);
  ASSERT_NE(snap.histograms.find("engine/batch_ms"), snap.histograms.end());
  EXPECT_EQ(snap.histograms.at("engine/batch_ms").count,
            static_cast<uint64_t>(metrics.num_batches));
}

TEST(ObsRunMetricsTest, ToJsonIsWellFormed) {
  RunMetrics m;
  m.num_batches = 3;
  m.total_cpu_ms = 1.5;
  m.total_wall_ms = 0.75;
  m.avg_wall_ms_per_window = 0.25;
  m.total_outliers = 7;
  const std::string json = m.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"num_batches\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_cpu_ms\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"total_wall_ms\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"avg_wall_ms_per_window\": 0.25"),
            std::string::npos);
  EXPECT_NE(json.find("\"total_outliers\": 7"), std::string::npos);
}

}  // namespace
}  // namespace sop
