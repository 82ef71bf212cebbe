// Tests for partitioned execution: the generic splitter, the Sec. 3.2
// grouped-SOP strawman, and the grid-indexed MCOD variant — all of which
// must agree exactly with the oracle and with integrated SOP.

#include <memory>

#include "gtest/gtest.h"
#include "sop/baselines/mcod.h"
#include "sop/common/random.h"
#include "sop/core/grouped_sop.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/factory.h"
#include "sop/detector/partitioned.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;
using testing::ExpectedResults;
using testing::ExpectSameResults;

std::vector<Point> ClusteredStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    std::vector<double> v(2);
    if (rng.Bernoulli(0.12)) {
      v = {rng.UniformDouble(0, 30), rng.UniformDouble(0, 30)};
    } else {
      const double c = rng.Bernoulli(0.5) ? 8.0 : 20.0;
      v = {rng.Normal(c, 1.0), rng.Normal(c, 1.0)};
    }
    points.emplace_back(s, s, std::move(v));
  }
  return points;
}

Workload MixedKWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  w.AddQuery(OutlierQuery(3.0, 2, 12, 4));
  w.AddQuery(OutlierQuery(2.0, 5, 16, 8));
  w.AddQuery(OutlierQuery(4.0, 5, 20, 4));
  w.AddQuery(OutlierQuery(2.5, 7, 8, 4));
  return w;
}

TEST(PartitionedDetectorTest, SplitsByArbitraryKeys) {
  const Workload w = MixedKWorkload();
  // Partition queries {0,1} | {2,3} | {4}.
  const std::vector<int> keys = {7, 7, 3, 3, 9};
  PartitionedDetector detector(
      "split", w, keys, [](const Workload& sub) {
        return std::make_unique<SopDetector>(sub);
      });
  EXPECT_EQ(detector.num_children(), 3u);
  EXPECT_STREQ(detector.name(), "split");
  // Results identical to the oracle despite the arbitrary split.
  const std::vector<Point> points = ClusteredStream(120, 8);
  ExpectSameResults(ExpectedResults(w, points),
                    CollectResults(w, points, &detector), "split");
}

TEST(GroupedSopTest, OneChildPerDistinctK) {
  GroupedSopDetector detector(MixedKWorkload());
  EXPECT_EQ(detector.num_children(), 3u);  // k in {2, 5, 7}
  EXPECT_STREQ(detector.name(), "grouped-sop");
}

TEST(GroupedSopTest, MatchesIntegratedSopAndOracle) {
  const Workload w = MixedKWorkload();
  const std::vector<Point> points = ClusteredStream(140, 21);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  GroupedSopDetector grouped(w);
  ExpectSameResults(expected, CollectResults(w, points, &grouped),
                    "grouped-sop");
  SopDetector integrated(w);
  ExpectSameResults(expected, CollectResults(w, points, &integrated),
                    "integrated sop");
}

TEST(GroupedSopTest, SharingReducesEvidenceMemory) {
  // Many k-groups over the same r's: the integrated LSky stores shared
  // skyband points once, the grouped strawman once per group.
  Workload w(WindowType::kCount);
  for (int64_t k = 2; k <= 12; ++k) {
    w.AddQuery(OutlierQuery(2.0, k, 40, 8));
  }
  const std::vector<Point> points = ClusteredStream(200, 33);
  SopDetector integrated(w);
  GroupedSopDetector grouped(w);
  CollectResults(w, points, &integrated);
  CollectResults(w, points, &grouped);
  EXPECT_GT(grouped.MemoryBytes(), 2 * integrated.MemoryBytes());
}

TEST(McodGridTest, GridVariantMatchesLinearVariant) {
  const Workload w = MixedKWorkload();
  const std::vector<Point> points = ClusteredStream(150, 55);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  McodDetector linear(w);
  ExpectSameResults(expected, CollectResults(w, points, &linear),
                    "mcod linear");
  McodDetector::Options options;
  options.use_grid_index = true;
  McodDetector grid(w, options);
  EXPECT_STREQ(grid.name(), "mcod-grid");
  ExpectSameResults(expected, CollectResults(w, points, &grid), "mcod grid");
}

TEST(McodGridTest, GridVariantHandlesTimeWindows) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.5, 2, 20, 5));
  w.AddQuery(OutlierQuery(3.0, 4, 40, 10));
  Rng rng(77);
  std::vector<Point> points;
  Timestamp t = 0;
  for (Seq s = 0; s < 120; ++s) {
    t += rng.UniformInt(0, 2);
    points.emplace_back(
        s, t,
        std::vector<double>{rng.Normal(5, 1.0), rng.Normal(5, 1.0)});
  }
  McodDetector::Options options;
  options.use_grid_index = true;
  McodDetector grid(w, options);
  ExpectSameResults(ExpectedResults(w, points),
                    CollectResults(w, points, &grid), "mcod grid time");
}

TEST(FactoryTest, KnowsAllNames) {
  for (const char* name :
       {"sop", "grouped-sop", "mcod-grid", "leap", "mcod", "naive"}) {
    EXPECT_TRUE(IsKnownDetector(name)) << name;
  }
  EXPECT_FALSE(IsKnownDetector("bogus"));
  EXPECT_FALSE(IsKnownDetector(""));
  EXPECT_EQ(KnownDetectorNames().size(), 6u);
}

TEST(FactoryTest, AllKindsMatchOracleOnOneWorkload) {
  const Workload w = MixedKWorkload();
  const std::vector<Point> points = ClusteredStream(120, 99);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const std::string& name : KnownDetectorNames()) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(name, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()), name);
  }
}

}  // namespace
}  // namespace sop
