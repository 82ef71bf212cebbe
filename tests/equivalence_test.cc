// Cross-detector equivalence property suite.
//
// For randomized workloads spanning every Table-1 case (A)-(G) and
// randomized streams (clustered inliers + uniform noise), every detector
// must produce exactly the oracle's outliers at every emission. This is
// the strongest correctness check in the repository: it exercises varying
// r, k, win and slide simultaneously, partial windows, hopping windows,
// duplicate queries, ties, and both window types.

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/detector/factory.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;
using testing::ExpectedResults;
using testing::ExpectSameResults;

// Scaled-down analog of gen::GenerateWorkload: the full Table-2 ranges
// would make the oracle quadratically slow, so tests use miniature ranges
// with the same structure.
Workload RandomWorkload(char wcase, size_t num_queries, WindowType type,
                        uint64_t seed) {
  const bool vary_r = wcase == 'A' || wcase == 'C' || wcase == 'G';
  const bool vary_k = wcase == 'B' || wcase == 'C' || wcase == 'G';
  const bool vary_win = wcase == 'D' || wcase == 'F' || wcase == 'G';
  const bool vary_slide = wcase == 'E' || wcase == 'F' || wcase == 'G';
  Rng rng(seed);
  Workload w(type);
  for (size_t i = 0; i < num_queries; ++i) {
    OutlierQuery q;
    q.r = vary_r ? rng.UniformDouble(0.2, 3.0) : 1.0;
    q.k = vary_k ? rng.UniformInt(1, 8) : 3;
    q.win = vary_win ? rng.UniformInt(2, 10) * 4 : 16;
    q.slide = vary_slide ? rng.UniformInt(1, 6) * 2 : 4;
    w.AddQuery(q);
  }
  return w;
}

// Clustered inliers with uniform noise; 2-D; timestamps advance by 0-2 per
// point (ties and gaps included) so time windows get exercised too.
std::vector<Point> RandomStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  Timestamp t = 0;
  for (int64_t i = 0; i < n; ++i) {
    t += rng.UniformInt(0, 2);
    std::vector<double> values(2);
    if (rng.Bernoulli(0.15)) {
      values[0] = rng.UniformDouble(0.0, 20.0);
      values[1] = rng.UniformDouble(0.0, 20.0);
    } else {
      const double cx = rng.Bernoulli(0.5) ? 5.0 : 12.0;
      values[0] = rng.Normal(cx, 0.8);
      values[1] = rng.Normal(cx, 0.8);
    }
    points.emplace_back(static_cast<Seq>(i), t, std::move(values));
  }
  return points;
}

struct EquivalenceCase {
  char wcase;
  WindowType type;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<EquivalenceCase>& info) {
  std::string name(1, info.param.wcase);
  name += info.param.type == WindowType::kCount ? "Count" : "Time";
  name += "Seed" + std::to_string(info.param.seed);
  return name;
}

class EquivalenceTest : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EquivalenceTest, AllDetectorsMatchOracle) {
  const EquivalenceCase param = GetParam();
  const Workload workload =
      RandomWorkload(param.wcase, /*num_queries=*/7, param.type,
                     param.seed * 31 + 1);
  const std::vector<Point> points = RandomStream(140, param.seed * 97 + 5);
  const std::vector<QueryResult> expected = ExpectedResults(workload, points);
  for (const char* kind :
       {"naive", "sop", "leap",
        "mcod"}) {
    std::unique_ptr<OutlierDetector> detector =
        CreateDetector(kind, workload);
    ExpectSameResults(
        expected, CollectResults(workload, points, detector.get()),
        std::string(kind) + "/" + CaseName({param, 0}));
  }
}

std::vector<EquivalenceCase> AllCases() {
  std::vector<EquivalenceCase> cases;
  for (char wcase = 'A'; wcase <= 'G'; ++wcase) {
    for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        cases.push_back({wcase, type, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Workloads, EquivalenceTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// Single-query agreement over a sweep of (r, k) pattern parameters — the
// Fig. 10(a)-style small-workload sanity check.
class SingleQuerySweepTest
    : public ::testing::TestWithParam<std::tuple<double, int64_t>> {};

TEST_P(SingleQuerySweepTest, SopMatchesOracle) {
  const auto [r, k] = GetParam();
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(r, k, 20, 5));
  const std::vector<Point> points = RandomStream(120, 77);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  std::unique_ptr<OutlierDetector> sop = CreateDetector("sop", w);
  ExpectSameResults(expected, CollectResults(w, points, sop.get()),
                    "single-query sop");
}

INSTANTIATE_TEST_SUITE_P(
    PatternParameters, SingleQuerySweepTest,
    ::testing::Combine(::testing::Values(0.3, 1.0, 2.5, 8.0),
                       ::testing::Values<int64_t>(1, 3, 10)));

// Duplicate and near-duplicate queries must not confuse the shared plan.
TEST(EquivalenceEdgeTest, DuplicateQueries) {
  Workload w(WindowType::kCount);
  for (int i = 0; i < 4; ++i) w.AddQuery(OutlierQuery(1.0, 3, 16, 4));
  w.AddQuery(OutlierQuery(1.0, 3, 16, 8));
  const std::vector<Point> points = RandomStream(100, 13);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const char* kind :
       {"sop", "leap", "mcod"}) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()),
                      std::string("dup/") + kind);
  }
}

// k larger than any window population: everything is an outlier.
TEST(EquivalenceEdgeTest, KExceedsWindow) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(100.0, 50, 8, 4));
  const std::vector<Point> points = RandomStream(40, 3);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const char* kind :
       {"sop", "leap", "mcod"}) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()),
                      std::string("bigk/") + kind);
  }
}

// Huge r: every pair is a neighbor; nobody is an outlier once windows hold
// more than k points.
TEST(EquivalenceEdgeTest, HugeR) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1e9, 2, 8, 4));
  const std::vector<Point> points = RandomStream(40, 4);
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const char* kind :
       {"sop", "leap", "mcod"}) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()),
                      std::string("huger/") + kind);
  }
}

// Identical points (all distances zero) stress tie handling.
TEST(EquivalenceEdgeTest, AllIdenticalPoints) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(0.5, 3, 8, 4));
  w.AddQuery(OutlierQuery(0.5, 9, 8, 4));
  std::vector<Point> points;
  for (Seq s = 0; s < 32; ++s) points.emplace_back(s, s, std::vector{1.0, 1.0});
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const char* kind :
       {"sop", "leap", "mcod"}) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    ExpectSameResults(expected, CollectResults(w, points, d.get()),
                      std::string("identical/") + kind);
  }
}

// Distances exactly equal to r are neighbors (Def. 1: dist <= r).
TEST(EquivalenceEdgeTest, DistanceExactlyR) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 1, 4, 2));
  // 1-D points at 0 and exactly 1 apart.
  std::vector<Point> points;
  for (Seq s = 0; s < 8; ++s) {
    points.emplace_back(s, s, std::vector<double>{s % 2 == 0 ? 0.0 : 1.0});
  }
  const std::vector<QueryResult> expected = ExpectedResults(w, points);
  for (const char* kind :
       {"sop", "leap", "mcod"}) {
    std::unique_ptr<OutlierDetector> d = CreateDetector(kind, w);
    std::vector<QueryResult> actual = CollectResults(w, points, d.get());
    ExpectSameResults(expected, actual,
                      std::string("exact-r/") + kind);
    // And nothing is an outlier: everyone has a neighbor at distance 1.
    for (const QueryResult& r : actual) EXPECT_TRUE(r.outliers.empty());
  }
}

}  // namespace
}  // namespace sop
