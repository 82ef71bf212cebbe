// Tests for multi-attribute workloads (paper Fig. 10(b)): the divide-and-
// conquer wrapper and the factory's automatic splitting.

#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/multi_attribute.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/factory.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;
using testing::ExpectedResults;
using testing::ExpectSameResults;

// 3-D stream where each attribute pair behaves differently.
std::vector<Point> Stream3D(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    std::vector<double> v(3);
    v[0] = rng.Bernoulli(0.2) ? rng.UniformDouble(0, 20) : rng.Normal(5, 0.5);
    v[1] = rng.Bernoulli(0.1) ? rng.UniformDouble(0, 20) : rng.Normal(9, 0.7);
    v[2] = rng.Normal(2, 0.3);
    points.emplace_back(s, s, std::move(v));
  }
  return points;
}

Workload ThreeGroupWorkload(size_t queries_per_group) {
  Workload w(WindowType::kCount);
  const int set_a = w.AddAttributeSet({0});
  const int set_b = w.AddAttributeSet({1, 2});
  // Group 0 uses the full space (attribute set 0).
  for (size_t i = 0; i < queries_per_group; ++i) {
    const double r = 0.8 + 0.4 * static_cast<double>(i);
    w.AddQuery(OutlierQuery(r, 2 + static_cast<int64_t>(i), 16, 4, 0));
    w.AddQuery(OutlierQuery(r, 2, 16, 4, set_a));
    w.AddQuery(OutlierQuery(r, 3, 24, 8, set_b));
  }
  return w;
}

TEST(MultiAttributeTest, WrapperSplitsPerAttributeSet) {
  const Workload w = ThreeGroupWorkload(2);
  MultiAttributeDetector detector(w, [](const Workload& sub) {
    return std::make_unique<SopDetector>(sub);
  });
  EXPECT_EQ(detector.num_children(), 3u);
  EXPECT_STREQ(detector.name(), "multiattr-sop");
}

TEST(MultiAttributeTest, SopMatchesOracleAcrossAttributeGroups) {
  const Workload w = ThreeGroupWorkload(3);
  const std::vector<Point> points = Stream3D(120, 19);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  std::unique_ptr<OutlierDetector> sop = CreateDetector("sop", w);
  ExpectSameResults(expected, CollectResults(w, points, sop.get()),
                    "multiattr sop");
}

TEST(MultiAttributeTest, AllDetectorsAgreeAcrossAttributeGroups) {
  const Workload w = ThreeGroupWorkload(2);
  const std::vector<Point> points = Stream3D(100, 23);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  // Every wrapped detector's children run on their own lanes, grouped-sop's
  // k-group children nested inside.
  for (const std::string& kind : KnownDetectorNames()) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()),
                      "multiattr/" + kind);
  }
}

TEST(MultiAttributeTest, FactoryOnlyWrapsWhenNeeded) {
  Workload single(WindowType::kCount);
  single.AddQuery(OutlierQuery(1.0, 2, 8, 4));
  std::unique_ptr<OutlierDetector> plain =
      CreateDetector("sop", single);
  EXPECT_STREQ(plain->name(), "sop");

  const Workload multi = ThreeGroupWorkload(1);
  std::unique_ptr<OutlierDetector> wrapped =
      CreateDetector("sop", multi);
  EXPECT_STREQ(wrapped->name(), "multiattr-sop");
}

}  // namespace
}  // namespace sop
