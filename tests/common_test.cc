// Unit tests for sop/common: distances, RNG, math helpers.

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/distance.h"
#include "sop/common/fenwick.h"
#include "sop/common/math_util.h"
#include "sop/common/memory.h"
#include "sop/common/random.h"
#include "sop/common/serialize.h"

namespace sop {
namespace {

Point MakePoint(std::vector<double> values) {
  return Point(0, 0, std::move(values));
}

TEST(DistanceTest, EuclideanFullSpace) {
  DistanceFn dist(Metric::kEuclidean);
  EXPECT_DOUBLE_EQ(dist(MakePoint({0, 0}), MakePoint({3, 4})), 5.0);
  EXPECT_DOUBLE_EQ(dist(MakePoint({1, 1}), MakePoint({1, 1})), 0.0);
  EXPECT_DOUBLE_EQ(dist(MakePoint({-1}), MakePoint({2})), 3.0);
}

TEST(DistanceTest, ManhattanFullSpace) {
  DistanceFn dist(Metric::kManhattan);
  EXPECT_DOUBLE_EQ(dist(MakePoint({0, 0}), MakePoint({3, 4})), 7.0);
  EXPECT_DOUBLE_EQ(dist(MakePoint({-2, 5}), MakePoint({1, 1})), 7.0);
}

TEST(DistanceTest, SubspaceSelectsAttributes) {
  DistanceFn dist(Metric::kEuclidean, {0, 2});
  // Middle attribute differs wildly but is not part of the subspace.
  EXPECT_DOUBLE_EQ(dist(MakePoint({0, 100, 0}), MakePoint({3, -100, 4})), 5.0);
  DistanceFn manhattan(Metric::kManhattan, {1});
  EXPECT_DOUBLE_EQ(
      manhattan(MakePoint({100, 2, 100}), MakePoint({-5, 7, -5})), 5.0);
}

TEST(DistanceTest, SymmetricAndNonNegative) {
  DistanceFn dist(Metric::kEuclidean);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const Point a = MakePoint({rng.Normal(), rng.Normal(), rng.Normal()});
    const Point b = MakePoint({rng.Normal(), rng.Normal(), rng.Normal()});
    EXPECT_GE(dist(a, b), 0.0);
    EXPECT_DOUBLE_EQ(dist(a, b), dist(b, a));
  }
}

TEST(DistanceTest, ParseMetric) {
  Metric m;
  EXPECT_TRUE(ParseMetric("euclidean", &m));
  EXPECT_EQ(m, Metric::kEuclidean);
  EXPECT_TRUE(ParseMetric("manhattan", &m));
  EXPECT_EQ(m, Metric::kManhattan);
  EXPECT_FALSE(ParseMetric("cosine", &m));
  EXPECT_STREQ(MetricName(Metric::kEuclidean), "euclidean");
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalMoments) {
  Rng rng(21);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 2.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(33);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(MathTest, GcdAll) {
  EXPECT_EQ(GcdAll({50}), 50);
  EXPECT_EQ(GcdAll({100, 150, 250}), 50);
  EXPECT_EQ(GcdAll({7, 11}), 1);
  EXPECT_EQ(GcdAll({500, 500, 500}), 500);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 5), 0);
  EXPECT_EQ(CeilDiv(1, 5), 1);
  EXPECT_EQ(CeilDiv(5, 5), 1);
  EXPECT_EQ(CeilDiv(6, 5), 2);
}

TEST(FenwickTest, PrefixSumsMatchBruteForce) {
  const int n = 37;
  FenwickTree tree(n);
  std::vector<int64_t> reference(static_cast<size_t>(n) + 1, 0);
  Rng rng(17);
  for (int step = 0; step < 500; ++step) {
    const int pos = static_cast<int>(rng.UniformInt(1, n));
    const int64_t delta = rng.UniformInt(-3, 3);
    tree.Add(pos, delta);
    reference[static_cast<size_t>(pos)] += delta;
    const int query = static_cast<int>(rng.UniformInt(0, n));
    int64_t expected = 0;
    for (int i = 1; i <= query; ++i) expected += reference[static_cast<size_t>(i)];
    ASSERT_EQ(tree.PrefixSum(query), expected) << "step " << step;
  }
}

TEST(FenwickTest, ResetZeroes) {
  FenwickTree tree(8);
  tree.Add(3, 5);
  tree.Reset(8);
  EXPECT_EQ(tree.PrefixSum(8), 0);
  tree.Reset(2);
  EXPECT_EQ(tree.size(), 2);
}

TEST(FenwickTest, UndoByNegativeAdd) {
  FenwickTree tree(16);
  tree.Add(4, 1);
  tree.Add(9, 1);
  tree.Add(4, -1);
  tree.Add(9, -1);
  for (int i = 0; i <= 16; ++i) EXPECT_EQ(tree.PrefixSum(i), 0);
}

TEST(FenwickTest, LowerBoundMatchesLinearScan) {
  Rng rng(23);
  for (const int n : {1, 2, 3, 7, 8, 37, 100}) {
    FenwickTree tree(n);
    std::vector<int64_t> counts(static_cast<size_t>(n) + 1, 0);
    for (int step = 0; step < 300; ++step) {
      const int pos = static_cast<int>(rng.UniformInt(1, n));
      if (counts[static_cast<size_t>(pos)] == 0 || rng.Bernoulli(0.6)) {
        tree.Add(pos, 1);
        ++counts[static_cast<size_t>(pos)];
      } else {
        tree.Add(pos, -1);
        --counts[static_cast<size_t>(pos)];
      }
      const int64_t target = rng.UniformInt(0, step / 4 + 2);
      int expected = 1;
      for (int64_t sum = counts[1]; expected <= n && sum < target;) {
        ++expected;
        if (expected <= n) sum += counts[static_cast<size_t>(expected)];
      }
      ASSERT_EQ(tree.LowerBound(target), expected)
          << "n " << n << " step " << step << " target " << target;
    }
  }
}

TEST(SerializeTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteBool(false);
  BinaryReader r(w.bytes());
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  bool b1, b2;
  ASSERT_TRUE(r.ReadU32(&u32));
  ASSERT_TRUE(r.ReadU64(&u64));
  ASSERT_TRUE(r.ReadI64(&i64));
  ASSERT_TRUE(r.ReadDouble(&d));
  ASSERT_TRUE(r.ReadBool(&b1));
  ASSERT_TRUE(r.ReadBool(&b2));
  EXPECT_EQ(u32, 0xdeadbeef);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, UnderflowFailsAndStaysFailed) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.bytes());
  uint64_t u64;
  EXPECT_FALSE(r.ReadU64(&u64));  // only 4 bytes available
  uint32_t u32;
  EXPECT_FALSE(r.ReadU32(&u32));  // failed reader stays failed
  EXPECT_FALSE(r.AtEnd());
}

TEST(SerializeTest, BadBoolRejected) {
  std::string bytes = "\x02";
  BinaryReader r(bytes);
  bool b;
  EXPECT_FALSE(r.ReadBool(&b));
}

TEST(MemoryTest, VectorHeapBytesTracksCapacity) {
  std::vector<int64_t> v;
  EXPECT_EQ(VectorHeapBytes(v), 0u);
  v.reserve(10);
  EXPECT_EQ(VectorHeapBytes(v), 10 * sizeof(int64_t));
}

}  // namespace
}  // namespace sop
