// Columnar store + batch distance kernel coverage.
//
// Three layers of proof that the kernel refactor cannot change answers:
//   1. ColumnStore units: the ring mirror (slots, recycling, growth,
//      wraparound, restore re-basing) holds exactly the alive points.
//   2. A seed-logged equivalence fuzz: every kernel entry point, backend
//      (scalar and — when the CPU has it — AVX2), metric, and subspace
//      shape must return distances bit-identical to the legacy per-pair
//      DistanceFn, including degenerate 0/1-candidate batches and batches
//      spanning the ring seam.
//   3. Emissions bit-identity: every KnownDetectorNames() detector, over
//      both window types, emits identical outliers under every supported
//      backend, and matches the brute-force oracle.
//
// Fuzz budget/seed follow the suite convention: SOP_FUZZ_MS extends the
// time budget (check.sh runs ~2s), SOP_FUZZ_SEED pins the seed, and the
// seed is printed so failures replay exactly.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/column_store.h"
#include "sop/common/dist_kernel.h"
#include "sop/common/distance.h"
#include "sop/common/random.h"
#include "sop/detector/factory.h"
#include "sop/index/grid.h"
#include "sop/stream/stream_buffer.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;

Point MakePoint(Seq seq, size_t dims, Rng* rng) {
  std::vector<double> values(dims);
  for (double& v : values) v = rng->UniformDouble(-3.0, 3.0);
  return Point(seq, static_cast<Timestamp>(seq), std::move(values));
}

// Selects a backend for one scope, then restores whichever backend was
// active before, even if a test fails mid-way.
struct ScopedBackend {
  explicit ScopedBackend(KernelBackend b) : previous(ActiveKernelBackend()) {
    SetKernelBackend(b);
  }
  ~ScopedBackend() { SetKernelBackend(previous); }
  const KernelBackend previous;
};

TEST(ColumnStoreTest, AppendExpireAndSlots) {
  ColumnStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.capacity(), 0u);

  Rng rng(7);
  std::vector<Point> rows;
  for (Seq s = 0; s < 50; ++s) {
    rows.push_back(MakePoint(s, 3, &rng));
    store.Append(rows.back());
  }
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(store.num_dims(), 3u);
  EXPECT_EQ(store.first_seq(), 0);
  EXPECT_EQ(store.next_seq(), 50);
  for (Seq s = 0; s < 50; ++s) {
    const size_t slot = store.SlotOf(s);
    EXPECT_EQ(store.seq_column()[slot], s);
    EXPECT_EQ(store.time_column()[slot], static_cast<Timestamp>(s));
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(store.Column(d)[slot], rows[static_cast<size_t>(s)].values[d]);
    }
  }

  store.PopFront(20);
  EXPECT_EQ(store.first_seq(), 20);
  EXPECT_EQ(store.size(), 30u);
  EXPECT_FALSE(store.Contains(19));
  EXPECT_TRUE(store.Contains(20));
  EXPECT_GT(store.MemoryBytes(), 0u);
}

TEST(ColumnStoreTest, GrowthRescattersAndRingWraps) {
  // Drive the window far past the initial capacity with interleaved
  // expiry, so slots wrap the ring seam and capacity doubles re-scatter
  // live points. Verify every alive value against the row copy throughout.
  ColumnStore store;
  Rng rng(11);
  std::vector<Point> rows;  // rows[s] = point with seq s
  Seq first = 0;
  for (Seq s = 0; s < 1000; ++s) {
    rows.push_back(MakePoint(s, 2, &rng));
    store.Append(rows.back());
    if (s % 3 == 2 && first + 40 < s) {
      store.PopFront(2);
      first += 2;
    }
  }
  EXPECT_EQ(store.first_seq(), first);
  EXPECT_EQ(store.next_seq(), 1000);
  for (Seq s = first; s < 1000; ++s) {
    const size_t slot = store.SlotOf(s);
    EXPECT_EQ(store.seq_column()[slot], s);
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(store.Column(d)[slot], rows[static_cast<size_t>(s)].values[d]);
    }
  }
}

TEST(ColumnStoreTest, ResetToRebasesEmptyStore) {
  ColumnStore store;
  Rng rng(3);
  store.Append(MakePoint(0, 2, &rng));
  store.PopFront(1);
  store.ResetTo(500);
  EXPECT_EQ(store.first_seq(), 500);
  store.Append(MakePoint(500, 2, &rng));
  EXPECT_EQ(store.seq_column()[store.SlotOf(500)], 500);
}

TEST(ColumnStoreTest, StreamBufferKeepsColumnsInSync) {
  StreamBuffer buffer(WindowType::kCount);
  Rng rng(5);
  for (Seq s = 0; s < 100; ++s) buffer.Append(MakePoint(s, 2, &rng));
  buffer.ExpireBefore(40);
  const ColumnStore& cols = buffer.columns();
  EXPECT_EQ(cols.first_seq(), buffer.first_seq());
  EXPECT_EQ(cols.next_seq(), buffer.next_seq());
  for (Seq s = buffer.first_seq(); s < buffer.next_seq(); ++s) {
    const Point& p = buffer.At(s);
    const size_t slot = cols.SlotOf(s);
    EXPECT_EQ(cols.time_column()[slot], p.time);
    for (size_t d = 0; d < 2; ++d) EXPECT_EQ(cols.Column(d)[slot], p.values[d]);
  }
}

TEST(KernelBackendTest, DefaultIsAuto) {
  // Every test restores the backend it changed, so the library default is
  // still in place here.
  KernelBackend best = KernelBackend::kScalar;
  ASSERT_TRUE(ParseKernelBackend("auto", &best));
  EXPECT_EQ(ActiveKernelBackend(), best);
}

TEST(KernelBackendTest, ParseAndSelect) {
  KernelBackend b = KernelBackend::kAvx2;
  EXPECT_TRUE(ParseKernelBackend("scalar", &b));
  EXPECT_EQ(b, KernelBackend::kScalar);
  EXPECT_TRUE(ParseKernelBackend("auto", &b));
  EXPECT_TRUE(KernelBackendSupported(b));
  EXPECT_FALSE(ParseKernelBackend("sse9", &b));
  EXPECT_STREQ(KernelBackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(KernelBackendName(KernelBackend::kAvx2), "avx2");

  EXPECT_TRUE(KernelBackendSupported(KernelBackend::kScalar));
  ScopedBackend scalar(KernelBackend::kScalar);
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  const bool avx2 = KernelBackendSupported(KernelBackend::kAvx2);
  std::fprintf(stderr, "[ info ] avx2 backend %s on this machine\n",
               avx2 ? "available" : "unavailable");
  EXPECT_EQ(ParseKernelBackend("avx2", &b), avx2);
  if (avx2) {
    ScopedBackend guard(KernelBackend::kAvx2);
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kAvx2);
  } else {
    EXPECT_FALSE(SetKernelBackend(KernelBackend::kAvx2));
    EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
  }
  EXPECT_EQ(ActiveKernelBackend(), KernelBackend::kScalar);
}

// The key of a pair by the scalar per-pair accumulation (dist_kernel.h,
// "Keys"): the attribute-ascending sum of squared (Euclidean) or absolute
// (Manhattan) differences, with no root.
double PairKey(Metric metric, const std::vector<int>& attrs, const Point& a,
               const Point& b) {
  double sum = 0.0;
  const size_t n = attrs.empty() ? a.values.size() : attrs.size();
  for (size_t i = 0; i < n; ++i) {
    const size_t d = attrs.empty() ? i : static_cast<size_t>(attrs[i]);
    const double diff = a.values[d] - b.values[d];
    sum += metric == Metric::kEuclidean ? diff * diff : std::fabs(diff);
  }
  return sum;
}

// Bit-identical keys; any two NaNs count as equal.
bool SameKey(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// One fuzz round: builds a random window, compares every kernel entry
// point against the legacy per-pair DistanceFn, on every supported
// backend. All comparisons are exact (==): the contract is bit-identity.
void FuzzKernelOnce(Rng* rng) {
  const size_t dims = 1 + rng->NextBelow(6);
  const Metric metric =
      rng->NextBelow(2) == 0 ? Metric::kEuclidean : Metric::kManhattan;
  // Subspace: full space, or a random sorted strict subset.
  std::vector<int> attrs;
  if (dims > 1 && rng->NextBelow(2) == 0) {
    for (size_t d = 0; d < dims; ++d) {
      if (rng->NextBelow(2) == 0) attrs.push_back(static_cast<int>(d));
    }
    if (attrs.empty()) attrs.push_back(static_cast<int>(rng->NextBelow(dims)));
  }
  const DistanceFn dist(metric, attrs);
  const DistanceKernel kernel = dist.MakeKernel();

  // A window with random churn so batches span capacity growth and the
  // ring seam. Occasionally duplicate coordinates exactly (distance 0 and
  // ties on the r threshold).
  ColumnStore store;
  std::vector<Point> rows;
  Seq first = 0, next = 0;
  const size_t target = 1 + rng->NextBelow(300);
  while (static_cast<size_t>(next - first) < target) {
    Point p = MakePoint(next, dims, rng);
    if (!rows.empty() && rng->NextBelow(16) == 0) {
      p.values = rows.back().values;  // exact duplicate
    }
    rows.push_back(p);
    store.Append(p);
    ++next;
    if (rng->NextBelow(8) == 0 && next - first > 4) {
      const size_t drop = 1 + rng->NextBelow(3);
      store.PopFront(drop);
      first += static_cast<Seq>(drop);
    }
  }
  const Point probe = MakePoint(next, dims, rng);
  auto row_of = [&](Seq s) -> const Point& {
    return rows[static_cast<size_t>(s)];
  };

  // Batch of random alive seqs in random order (possibly empty).
  const size_t alive = static_cast<size_t>(next - first);
  std::vector<Seq> batch;
  for (Seq s = first; s < next; ++s) {
    if (rng->NextBelow(3) != 0) batch.push_back(s);
  }
  for (size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng->NextBelow(i)]);
  }
  if (rng->NextBelow(8) == 0) batch.resize(std::min<size_t>(batch.size(), 1));

  std::vector<double> expected(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    expected[i] = dist(probe, row_of(batch[i]));
  }

  const bool avx2 = KernelBackendSupported(KernelBackend::kAvx2);
  for (int pass = 0; pass < (avx2 ? 2 : 1); ++pass) {
    ScopedBackend guard(pass == 0 ? KernelBackend::kScalar
                                  : KernelBackend::kAvx2);
    SCOPED_TRACE(std::string("backend ") +
                 KernelBackendName(ActiveKernelBackend()));

    std::vector<double> out(batch.size(), -1.0);
    kernel.BatchDist(store, probe, batch.data(), batch.size(), out.data());
    ASSERT_EQ(out, expected);

    // Contiguous range form over a random alive subrange.
    const Seq lo = first + static_cast<Seq>(rng->NextBelow(alive));
    const size_t max_n = static_cast<size_t>(next - lo);
    const size_t n = rng->NextBelow(max_n + 1);
    std::vector<double> range_out(n, -1.0);
    std::vector<double> range_expected(n);
    for (size_t i = 0; i < n; ++i) {
      range_expected[i] = dist(probe, row_of(lo + static_cast<Seq>(i)));
    }
    kernel.BatchDistRange(store, probe, lo, n, range_out.data());
    ASSERT_EQ(range_out, range_expected);

    // Key form over at most 64 of the same candidates, against a bound at
    // one of their keys (a tie), one ulp off it, or at either infinity.
    const size_t kn = std::min<size_t>(n, 64);
    if (kn > 0) {
      std::vector<double> keys(kn, -1.0);
      double bound = PairKey(metric, attrs, probe, row_of(lo));
      switch (rng->NextBelow(4)) {
        case 0:
          bound = std::nextafter(bound, 0.0);
          break;
        case 1:
          bound = -std::numeric_limits<double>::infinity();
          break;
        case 2:
          bound = std::numeric_limits<double>::infinity();
          break;
      }
      kernel.StageProbe(store, probe);
      const uint64_t mask = kernel.KeyBlock(store, lo, kn, bound, keys.data());
      uint64_t expected_mask = 0;
      for (size_t i = 0; i < kn; ++i) {
        const Point& row = row_of(lo + static_cast<Seq>(i));
        ASSERT_TRUE(SameKey(keys[i], PairKey(metric, attrs, probe, row)));
        const double root =
            metric == Metric::kEuclidean ? std::sqrt(keys[i]) : keys[i];
        ASSERT_EQ(root, range_expected[i]);
        expected_mask |= static_cast<uint64_t>(keys[i] <= bound ? 1 : 0) << i;
      }
      ASSERT_EQ(mask, expected_mask);
    }

    // Range confirmation: radius drawn near the observed distances so both
    // sides of the threshold occur; ties land exactly on a computed value.
    double r = 0.0;
    if (!expected.empty()) {
      r = expected[rng->NextBelow(expected.size())];
      if (rng->NextBelow(2) == 0) r *= rng->UniformDouble(0.5, 1.5);
    }
    std::vector<Seq> part = batch;
    std::vector<double> part_dists(part.size());
    const size_t hits = kernel.PartitionWithinR(
        store, probe, part.data(), part.size(), r, part_dists.data());
    std::vector<Seq> expected_hits;
    std::vector<double> expected_hit_dists;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (expected[i] <= r) {
        expected_hits.push_back(batch[i]);
        expected_hit_dists.push_back(expected[i]);
      }
    }
    ASSERT_EQ(hits, expected_hits.size());
    ASSERT_EQ(std::vector<Seq>(part.begin(),
                               part.begin() + static_cast<long>(hits)),
              expected_hits);
    ASSERT_EQ(std::vector<double>(
                  part_dists.begin(),
                  part_dists.begin() + static_cast<long>(hits)),
              expected_hit_dists);
  }
}

TEST(KernelEquivalenceFuzz, MatchesLegacyPerPairBitExactly) {
  const testing::FuzzParams fuzz =
      testing::AnnouncedFuzzParams("kernel equivalence", 300);
  const uint64_t seed = fuzz.seed;
  const int64_t budget_ms = fuzz.budget_ms;
  Rng rng(seed);
  SCOPED_TRACE("seed " + std::to_string(seed));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  int rounds = 0;
  do {
    FuzzKernelOnce(&rng);
    if (::testing::Test::HasFatalFailure()) return;
    ++rounds;
  } while (std::chrono::steady_clock::now() < deadline);
  std::fprintf(stderr, "[ fuzz ] %d rounds\n", rounds);
}

TEST(KernelEquivalence, DegenerateBatches) {
  const DistanceFn dist(Metric::kEuclidean);
  const DistanceKernel kernel = dist.MakeKernel();
  ColumnStore store;
  Rng rng(42);
  const Point only = MakePoint(0, 2, &rng);
  store.Append(only);
  const Point probe = MakePoint(1, 2, &rng);

  // Empty batch: no output touched.
  double sentinel = -7.0;
  kernel.BatchDist(store, probe, nullptr, 0, &sentinel);
  kernel.BatchDistRange(store, probe, 0, 0, &sentinel);
  EXPECT_EQ(sentinel, -7.0);
  EXPECT_EQ(kernel.PartitionWithinR(store, probe, nullptr, 0, 1.0, &sentinel),
            0u);

  // One-candidate batch.
  const Seq one[] = {0};
  double out = -1.0;
  kernel.BatchDist(store, probe, one, 1, &out);
  EXPECT_EQ(out, dist(probe, only));

  // Zero-distance probe (probe identical to the stored point).
  kernel.BatchDist(store, only, one, 1, &out);
  EXPECT_EQ(out, 0.0);
}

// KeyBlock on every block length 1..64 whose range crosses the ring seam,
// for both metrics and every supported backend: keys bit-identical to the
// per-pair accumulation, masks equal to a scalar compare, a NaN coordinate
// keying NaN and setting no bit, and a bound of -inf setting none at all.
TEST(KernelKeys, MasksAcrossTheSeamWithNaNs) {
  ColumnStore store;
  Rng rng(5);
  std::vector<Point> rows;
  // 100 points, then drop 90 and add 60: capacity 128, and the alive seqs
  // [90, 160) wrap from slot 90 round to slot 31.
  for (Seq s = 0; s < 160; ++s) {
    if (s == 100) store.PopFront(90);
    Point p = MakePoint(s, 3, &rng);
    if (s % 17 == 5) p.values[1] = std::numeric_limits<double>::quiet_NaN();
    rows.push_back(p);
    store.Append(p);
  }
  ASSERT_EQ(store.first_seq(), 90);
  const Point probe = MakePoint(160, 3, &rng);
  const bool avx2 = KernelBackendSupported(KernelBackend::kAvx2);
  int crossed = 0;
  int nans = 0;
  for (const Metric metric : {Metric::kEuclidean, Metric::kManhattan}) {
    const DistanceFn dist(metric);
    const DistanceKernel kernel = dist.MakeKernel();
    for (int pass = 0; pass < (avx2 ? 2 : 1); ++pass) {
      ScopedBackend guard(pass == 0 ? KernelBackend::kScalar
                                    : KernelBackend::kAvx2);
      kernel.StageProbe(store, probe);
      for (size_t n = 1; n <= 64; ++n) {
        for (Seq lo = 90; lo + static_cast<Seq>(n) <= 160; lo += 7) {
          const double pivot =
              PairKey(metric, {}, probe, rows[static_cast<size_t>(lo)]);
          for (const double bound :
               {pivot, -std::numeric_limits<double>::infinity(), 4.0}) {
            std::vector<double> keys(n, -1.0);
            const uint64_t mask =
                kernel.KeyBlock(store, lo, n, bound, keys.data());
            uint64_t expected = 0;
            for (size_t i = 0; i < n; ++i) {
              const Point& row = rows[static_cast<size_t>(lo) + i];
              const double key = PairKey(metric, {}, probe, row);
              ASSERT_TRUE(SameKey(keys[i], key))
                  << MetricName(metric) << " n " << n << " lo " << lo;
              nans += std::isnan(key) ? 1 : 0;
              expected |= static_cast<uint64_t>(key <= bound ? 1 : 0) << i;
            }
            ASSERT_EQ(mask, expected)
                << MetricName(metric) << " n " << n << " lo " << lo
                << " bound " << bound << " backend "
                << KernelBackendName(ActiveKernelBackend());
            if (bound == -std::numeric_limits<double>::infinity()) {
              ASSERT_EQ(mask, 0u);
            }
          }
          crossed += store.SlotOf(lo) + n > store.capacity() ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(crossed, 100) << "no block crossed the ring seam";
  EXPECT_GT(nans, 0);
}

TEST(GridScanState, CachedSpanTracksRadiusChanges) {
  // The hoisted per-query scan state must not leak between probes with
  // different radii: alternate two radii against the same index and check
  // the candidate supersets stay exact.
  const DistanceFn dist(Metric::kEuclidean);
  GridIndex grid(dist, /*cell_size=*/0.5);
  StreamBuffer buffer(WindowType::kCount);
  Rng rng(99);
  for (Seq s = 0; s < 200; ++s) {
    buffer.Append(MakePoint(s, 2, &rng));
    grid.Insert(s, buffer.At(s));
  }
  std::vector<Seq> got;
  for (int i = 0; i < 20; ++i) {
    const double r = (i % 2 == 0) ? 0.4 : 2.5;
    const Point probe = MakePoint(200 + i, 2, &rng);
    grid.CollectCandidates(probe, r, &got);
    std::sort(got.begin(), got.end());
    for (Seq s = 0; s < 200; ++s) {
      if (dist(probe, buffer.At(s)) <= r) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), s))
            << "r=" << r << " missed neighbor seq " << s;
      }
    }
  }
}

Workload EmissionsWorkload(WindowType type) {
  Workload w(type);
  w.AddQuery(OutlierQuery(1.0, 3, 32, 8));
  w.AddQuery(OutlierQuery(2.0, 5, 16, 8));
  w.AddQuery(OutlierQuery(0.6, 2, 24, 8));
  return w;
}

std::vector<Point> EmissionsStream(size_t n) {
  Rng rng(20160626);
  std::vector<Point> points;
  points.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Mostly clustered with occasional far outliers, in 2-D.
    std::vector<double> v(2);
    if (rng.NextBelow(12) == 0) {
      v[0] = rng.UniformDouble(-40.0, 40.0);
      v[1] = rng.UniformDouble(-40.0, 40.0);
    } else {
      v[0] = rng.Normal(0.0, 1.0);
      v[1] = rng.Normal(0.0, 1.0);
    }
    points.emplace_back(static_cast<Seq>(i), static_cast<Timestamp>(i),
                        std::move(v));
  }
  return points;
}

TEST(KernelEmissions, BitIdenticalAcrossBackendsAndOracle) {
  const std::vector<Point> points = EmissionsStream(400);
  const bool avx2 = KernelBackendSupported(KernelBackend::kAvx2);
  for (const std::string& name : KnownDetectorNames()) {
    for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
      const Workload w = EmissionsWorkload(type);
      const std::string label =
          name + (type == WindowType::kCount ? "/count" : "/time");
      SCOPED_TRACE(label);

      std::vector<QueryResult> scalar_results;
      {
        ScopedBackend scalar(KernelBackend::kScalar);
        auto detector = CreateDetector(name, w);
        scalar_results = CollectResults(w, points, detector.get());
      }
      testing::ExpectSameResults(testing::ExpectedResults(w, points),
                                 scalar_results, label + "/scalar-vs-oracle");

      if (avx2) {
        ScopedBackend guard(KernelBackend::kAvx2);
        auto avx2_detector = CreateDetector(name, w);
        const std::vector<QueryResult> avx2_results =
            CollectResults(w, points, avx2_detector.get());
        testing::ExpectSameResults(scalar_results, avx2_results,
                                   label + "/avx2-vs-scalar");
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sop
