// Unit and property tests for the uniform grid index.

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/index/grid.h"

namespace sop {
namespace {

Point MakePoint(Seq seq, std::vector<double> values) {
  return Point(seq, seq, std::move(values));
}

std::set<Seq> Candidates(const GridIndex& grid, const Point& p, double r) {
  std::set<Seq> seqs;
  grid.VisitCandidates(p, r, [&seqs](Seq s) { seqs.insert(s); });
  // The batched form must enumerate the same superset as the visitor.
  std::vector<Seq> batched;
  grid.CollectCandidates(p, r, &batched);
  EXPECT_EQ(std::set<Seq>(batched.begin(), batched.end()), seqs);
  return seqs;
}

TEST(GridIndexTest, InsertRemoveSize) {
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  const Point a = MakePoint(1, {0.5, 0.5});
  const Point b = MakePoint(2, {0.6, 0.4});
  const Point c = MakePoint(3, {5.0, 5.0});
  grid.Insert(1, a);
  grid.Insert(2, b);
  grid.Insert(3, c);
  EXPECT_EQ(grid.size(), 3u);
  grid.Remove(2, b);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(Candidates(grid, a, 0.5), (std::set<Seq>{1}));
}

TEST(GridIndexTest, RemovingUnindexedPointDies) {
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  grid.Insert(1, MakePoint(1, {0.0}));
  EXPECT_DEATH(grid.Remove(2, MakePoint(2, {50.0})), "unindexed");
}

// Coordinates whose cell int64 cannot hold (non-finite, or |v / cell|
// beyond 2^61) go on an overflow list that every probe visits; a probe
// without a cell, or a radius without a span, visits every point.
TEST(GridIndexTest, PointsWithoutACellAreAlwaysCandidates) {
  const double inf = std::numeric_limits<double>::infinity();
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  const Point near = MakePoint(1, {0.0, 0.0});
  const Point far = MakePoint(2, {50.0, 50.0});
  const Point nan = MakePoint(3, {std::nan(""), 0.0});
  const Point huge = MakePoint(4, {1e300, 0.0});
  const Point huge_too = MakePoint(5, {1e300, 0.5});
  for (const Point* p : {&near, &far, &nan, &huge, &huge_too}) {
    grid.Insert(p->seq, *p);
  }
  EXPECT_EQ(grid.size(), 5u);
  EXPECT_EQ(Candidates(grid, near, 1.0), (std::set<Seq>{1, 3, 4, 5}));
  EXPECT_EQ(Candidates(grid, huge, 1.0), (std::set<Seq>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Candidates(grid, near, inf), (std::set<Seq>{1, 2, 3, 4, 5}));
  grid.Remove(3, nan);
  grid.Remove(4, huge);
  EXPECT_EQ(grid.size(), 3u);
  EXPECT_EQ(Candidates(grid, near, 1.0), (std::set<Seq>{1, 5}));
}

TEST(GridIndexTest, CandidatesAreSuperset) {
  // Every point within r must be among the candidates (no false
  // negatives), for both metrics and a radius spanning many cells.
  for (const Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
    const DistanceFn dist(metric);
    GridIndex grid(dist, 0.7);
    Rng rng(404);
    std::vector<Point> points;
    for (Seq s = 0; s < 400; ++s) {
      points.push_back(MakePoint(
          s, {rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10)}));
      grid.Insert(s, points.back());
    }
    for (int probe = 0; probe < 30; ++probe) {
      const Point p = MakePoint(
          1000, {rng.UniformDouble(-10, 10), rng.UniformDouble(-10, 10)});
      const double r = rng.UniformDouble(0.1, 6.0);
      const std::set<Seq> candidates = Candidates(grid, p, r);
      for (const Point& q : points) {
        if (dist(p, q) <= r) {
          EXPECT_TRUE(candidates.count(q.seq))
          << "missing neighbor " << q.seq << " metric "
          << MetricName(metric);
        }
      }
    }
  }
}

TEST(GridIndexTest, CellPruningFiltersFarCells) {
  // Points far beyond r + cell diagonal must not be visited.
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  grid.Insert(1, MakePoint(1, {0.0, 0.0}));
  grid.Insert(2, MakePoint(2, {100.0, 100.0}));
  const std::set<Seq> candidates =
      Candidates(grid, MakePoint(9, {0.5, 0.5}), 2.0);
  EXPECT_TRUE(candidates.count(1));
  EXPECT_FALSE(candidates.count(2));
}

TEST(GridIndexTest, SubspaceGridIgnoresOtherAttributes) {
  // Grid over attribute {0} only: attribute 1 must not affect candidacy.
  GridIndex grid(DistanceFn(Metric::kEuclidean, {0}), 1.0);
  grid.Insert(1, MakePoint(1, {1.0, 9999.0}));
  grid.Insert(2, MakePoint(2, {50.0, 1.0}));
  const std::set<Seq> candidates =
      Candidates(grid, MakePoint(9, {1.2, -9999.0}), 1.0);
  EXPECT_TRUE(candidates.count(1));
  EXPECT_FALSE(candidates.count(2));
}

TEST(GridIndexTest, NegativeCoordinates) {
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  grid.Insert(1, MakePoint(1, {-3.4, -7.9}));
  const std::set<Seq> candidates =
      Candidates(grid, MakePoint(9, {-3.0, -8.0}), 1.0);
  EXPECT_TRUE(candidates.count(1));
}

TEST(GridIndexTest, DuplicateCoordinatesShareCell) {
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  const Point a = MakePoint(1, {2.0, 2.0});
  const Point b = MakePoint(2, {2.0, 2.0});
  grid.Insert(1, a);
  grid.Insert(2, b);
  EXPECT_EQ(Candidates(grid, a, 0.1), (std::set<Seq>{1, 2}));
  grid.Remove(1, a);
  EXPECT_EQ(Candidates(grid, b, 0.1), (std::set<Seq>{2}));
}

TEST(GridIndexTest, VisitorIsStaticallyDispatched) {
  // The visitor is taken by template parameter: a mutable lambda with
  // captured state works without any std::function wrapping, and the count
  // it accumulates matches the batched form's size.
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  for (Seq s = 0; s < 20; ++s) {
    grid.Insert(s, MakePoint(s, {static_cast<double>(s % 5) * 0.1, 0.0}));
  }
  int visited = 0;
  grid.VisitCandidates(MakePoint(99, {0.2, 0.0}), 1.0,
                       [&visited](Seq) { ++visited; });
  std::vector<Seq> batched;
  grid.CollectCandidates(MakePoint(99, {0.2, 0.0}), 1.0, &batched);
  EXPECT_EQ(static_cast<size_t>(visited), batched.size());
  EXPECT_EQ(visited, 20);
}

TEST(GridIndexTest, CollectCandidatesClearsScratch) {
  // Reused scratch buffers must not leak candidates across scans.
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  grid.Insert(1, MakePoint(1, {0.0, 0.0}));
  grid.Insert(2, MakePoint(2, {50.0, 50.0}));
  std::vector<Seq> scratch;
  grid.CollectCandidates(MakePoint(9, {0.1, 0.1}), 1.0, &scratch);
  EXPECT_EQ(scratch, (std::vector<Seq>{1}));
  grid.CollectCandidates(MakePoint(9, {50.1, 50.1}), 1.0, &scratch);
  EXPECT_EQ(scratch, (std::vector<Seq>{2}));
  grid.CollectCandidates(MakePoint(9, {-50.0, -50.0}), 1.0, &scratch);
  EXPECT_TRUE(scratch.empty());
}

TEST(GridIndexTest, MemoryBytesGrows) {
  GridIndex grid(DistanceFn(Metric::kEuclidean), 1.0);
  const size_t empty = grid.MemoryBytes();
  Rng rng(5);
  for (Seq s = 0; s < 200; ++s) {
    grid.Insert(s, MakePoint(s, {rng.UniformDouble(0, 100),
                                 rng.UniformDouble(0, 100)}));
  }
  EXPECT_GT(grid.MemoryBytes(), empty);
}

}  // namespace
}  // namespace sop
