// White-box invariant tests for the SOP core.
//
// These validate the two load-bearing claims of the design directly,
// rather than through end-to-end results:
//   * generalized Lemma 3: for every query (r, k) and every window suffix,
//     thresholding the evidence count (succeeding counts plus the
//     preceding entries inside the window) is equivalent to thresholding
//     the true neighbor count;
//   * Safe-For-All soundness: once a point is flagged safe, it satisfies
//     every query's neighbor threshold in every later window it occupies.

#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/sop_detector.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace {

std::vector<Point> NoisyStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    std::vector<double> v(2);
    if (rng.Bernoulli(0.2)) {
      v = {rng.UniformDouble(0, 25), rng.UniformDouble(0, 25)};
    } else {
      const double c = rng.Bernoulli(0.5) ? 6.0 : 18.0;
      v = {rng.Normal(c, 1.2), rng.Normal(c, 1.2)};
    }
    points.emplace_back(s, s, std::move(v));
  }
  return points;
}

class SopInvariantsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SopInvariantsTest, SkybandThresholdEqualsBruteForceThreshold) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 20, 4));
  w.AddQuery(OutlierQuery(2.0, 5, 12, 4));
  w.AddQuery(OutlierQuery(4.0, 3, 28, 4));
  w.AddQuery(OutlierQuery(1.5, 8, 20, 8));
  const DistanceFn dist = w.MakeDistanceFn(0);
  const std::vector<Point> points = NoisyStream(120, GetParam());

  SopDetector detector(w);
  const int64_t span = w.SlideGcd();
  const int64_t batches = static_cast<int64_t>(points.size()) / span;
  for (int64_t b = 0; b < batches; ++b) {
    std::vector<Point> batch(
        points.begin() + static_cast<size_t>(b * span),
        points.begin() + static_cast<size_t>((b + 1) * span));
    const int64_t boundary = (b + 1) * span;
    detector.Advance(std::move(batch), boundary);

    for (Seq s = 0; s < boundary; ++s) {
      if (!detector.IsAliveForTesting(s)) continue;
      for (size_t qi = 0; qi < w.num_queries(); ++qi) {
        const OutlierQuery& q = w.query(qi);
        const int64_t start = WindowStart(boundary, q.win);
        if (s < start) continue;  // point outside this query's window
        // Brute-force neighbor count inside the window.
        int64_t exact = 0;
        for (Seq t = std::max<Seq>(start, 0); t < boundary; ++t) {
          if (t == s) continue;
          if (dist(points[static_cast<size_t>(s)],
                   points[static_cast<size_t>(t)]) <= q.r) {
            ++exact;
          }
        }
        const bool exact_inlier = exact >= q.k;
        if (detector.IsSafeForTesting(s)) {
          EXPECT_TRUE(exact_inlier)
              << "safe point " << s << " fails " << q.ToString()
              << " at boundary " << boundary;
          continue;
        }
        const int64_t counted = testing::CountWithin(
            detector.SkybandForTesting(s),
            detector.plan().layer_of_query(qi), start, q.k);
        EXPECT_EQ(counted >= q.k, exact_inlier)
            << "point " << s << " query " << q.ToString() << " boundary "
            << boundary << " counted " << counted << " exact " << exact;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SopInvariantsTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// The evidence never retains anything outside the swift window; its
// entries are older than their point and strictly seq-descending with
// valid layers, and its succeeding counts ascend in layer and stop at
// k_max (structural invariants of LSky maintained by K-SKY).
TEST(SopInvariantsTest, SkybandStructuralInvariants) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 3, 16, 4));
  w.AddQuery(OutlierQuery(3.0, 6, 24, 8));
  const std::vector<Point> points = NoisyStream(96, 42);
  SopDetector detector(w);
  const int64_t span = w.SlideGcd();
  for (int64_t b = 0; b < static_cast<int64_t>(points.size()) / span; ++b) {
    std::vector<Point> batch(
        points.begin() + static_cast<size_t>(b * span),
        points.begin() + static_cast<size_t>((b + 1) * span));
    const int64_t boundary = (b + 1) * span;
    detector.Advance(std::move(batch), boundary);
    const int64_t swift_start = boundary - detector.plan().win_max();
    for (Seq s = 0; s < boundary; ++s) {
      if (!detector.IsAliveForTesting(s) || detector.IsSafeForTesting(s)) {
        continue;
      }
      const LSky& sky = detector.SkybandForTesting(s);
      const auto& entries = sky.entries();
      for (size_t i = 0; i < entries.size(); ++i) {
        EXPECT_GE(entries[i].key, swift_start);
        EXPECT_LT(entries[i].seq, s);  // preceding only
        EXPECT_GE(entries[i].layer, 1);
        EXPECT_LE(entries[i].layer, detector.plan().num_layers());
        if (i > 0) {
          EXPECT_LT(entries[i].seq, entries[i - 1].seq);
        }
      }
      const auto& succ = sky.succ();
      int64_t sum = 0;
      for (size_t i = 0; i < succ.size(); ++i) {
        EXPECT_LT(sum, detector.plan().k_max()) << "pair past k_max";
        EXPECT_GT(succ[i].count, 0);
        EXPECT_GE(succ[i].layer, 1);
        EXPECT_LE(succ[i].layer, detector.plan().num_layers());
        if (i > 0) {
          EXPECT_GT(succ[i].layer, succ[i - 1].layer);
        }
        sum += succ[i].count;
      }
      EXPECT_LE(sum, detector.plan().k_max());
    }
  }
}

}  // namespace
}  // namespace sop
