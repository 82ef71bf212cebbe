// Spatial partitioner tests (cluster/partition.h): ownership, halo
// membership semantics, region geometry, halo derivation from the
// workload basis, and a seed-logged fuzz loop asserting the three
// invariants the scale-out merge rests on — every value has exactly one
// owner, halo membership is symmetric with region distance, and the
// assigned shard set covers exactly the shards whose region the value's
// halo ball touches (contiguously).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/cluster/partition.h"
#include "sop/common/random.h"
#include "sop/query/plan.h"
#include "sop/query/workload.h"
#include "test_util.h"

namespace sop {
namespace cluster {
namespace {

TEST(PartitionTest, UniformSpecPlacesEvenCuts) {
  const PartitionSpec spec = PartitionSpec::Uniform(0.0, 100.0, 4);
  ASSERT_EQ(spec.parts(), 4);
  ASSERT_EQ(spec.cuts.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.cuts[0], 25.0);
  EXPECT_DOUBLE_EQ(spec.cuts[1], 50.0);
  EXPECT_DOUBLE_EQ(spec.cuts[2], 75.0);
  std::string error;
  EXPECT_TRUE(spec.Validate(&error)) << error;
}

TEST(PartitionTest, SinglePartHasNoCuts) {
  const PartitionSpec spec = PartitionSpec::Uniform(0.0, 100.0, 1);
  EXPECT_EQ(spec.parts(), 1);
  EXPECT_TRUE(spec.cuts.empty());
  std::string error;
  EXPECT_TRUE(spec.Validate(&error)) << error;
}

TEST(PartitionTest, ValidateRejectsUnsortedAndNonFiniteCuts) {
  PartitionSpec spec;
  std::string error;
  spec.cuts = {10.0, 5.0};
  EXPECT_FALSE(spec.Validate(&error));
  spec.cuts = {5.0, 5.0};
  EXPECT_FALSE(spec.Validate(&error));
  spec.cuts = {std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(spec.Validate(&error));
  spec.cuts = {std::nan("")};
  EXPECT_FALSE(spec.Validate(&error));
}

TEST(PartitionTest, OwnerOfRespectsHalfOpenRegions) {
  PartitionSpec spec;
  spec.cuts = {10.0, 20.0};
  const Partitioner part(spec, 0.0);
  EXPECT_EQ(part.OwnerOf(-1e30), 0);
  EXPECT_EQ(part.OwnerOf(9.999), 0);
  EXPECT_EQ(part.OwnerOf(10.0), 1);  // regions are [lo, hi)
  EXPECT_EQ(part.OwnerOf(19.999), 1);
  EXPECT_EQ(part.OwnerOf(20.0), 2);
  EXPECT_EQ(part.OwnerOf(1e30), 2);
  // Outer regions are open to +-infinity.
  EXPECT_EQ(part.range_lo(0), -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(part.range_hi(0), 10.0);
  EXPECT_DOUBLE_EQ(part.range_lo(2), 20.0);
  EXPECT_EQ(part.range_hi(2), std::numeric_limits<double>::infinity());
}

TEST(PartitionTest, HaloMembershipAtExactDistanceIsIncluded) {
  PartitionSpec spec;
  spec.cuts = {10.0};
  const Partitioner part(spec, 2.0);
  std::vector<ShardAssignment> a;
  // 8.0 is exactly halo away from the cut: a point at 10.0 (owned by
  // shard 1) is a neighbor at distance exactly r, so shard 1 needs the
  // replica.
  part.AssignmentsOf(8.0, &a);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].shard, 0);
  EXPECT_TRUE(a[0].owner);
  EXPECT_EQ(a[1].shard, 1);
  EXPECT_FALSE(a[1].owner);
  // 7.999... needs only its owner.
  part.AssignmentsOf(7.0, &a);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].shard, 0);
  EXPECT_TRUE(a[0].owner);
  // 11.9 within halo of shard 0's region (hi = 10 exclusive: distance to
  // the region is > 1.9 - ... a value below lo + halo replicates down).
  part.AssignmentsOf(11.9, &a);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].shard, 0);
  EXPECT_FALSE(a[0].owner);
  EXPECT_EQ(a[1].shard, 1);
  EXPECT_TRUE(a[1].owner);
}

TEST(PartitionTest, NonFiniteValuesFallToEdgeShards) {
  PartitionSpec spec;
  spec.cuts = {0.0};
  const Partitioner part(spec, 1.0);
  std::vector<ShardAssignment> a;
  part.AssignmentsOf(std::numeric_limits<double>::infinity(), &a);
  ASSERT_EQ(a.size(), 1u);  // no finite halo ball around infinity
  EXPECT_EQ(a[0].shard, 1);
  EXPECT_TRUE(a[0].owner);
  part.AssignmentsOf(-std::numeric_limits<double>::infinity(), &a);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0].shard, 0);
  part.AssignmentsOf(std::nan(""), &a);
  ASSERT_EQ(a.size(), 1u);  // NaN compares below everything: shard 0 owns
  EXPECT_EQ(a[0].shard, 0);
  EXPECT_TRUE(a[0].owner);
}

TEST(PartitionTest, HaloFromBasisIsWorkloadRMax) {
  Workload wl(WindowType::kCount, Metric::kEuclidean);
  wl.AddQuery(OutlierQuery(2.0, 4, 100, 50));
  wl.AddQuery(OutlierQuery(7.5, 2, 200, 50));
  wl.AddQuery(OutlierQuery(3.0, 8, 100, 100));
  ASSERT_TRUE(wl.Validate().empty());
  // The largest subscribed radius, which is the compiled basis' r_max
  // under either basis policy; a halo that wide makes every owned verdict
  // exact (partition.h).
  EXPECT_DOUBLE_EQ(HaloFromBasis(wl), 7.5);
  EXPECT_DOUBLE_EQ(HaloFromBasis(wl), WorkloadPlan(wl).r_max());
  EXPECT_DOUBLE_EQ(HaloFromBasis(wl), WorkloadPlan(wl, true).r_max());
}

// Brute-force oracle: the distance from value v to shard s's region.
double RegionDistance(const Partitioner& part, double v, int shard) {
  const double lo = part.range_lo(shard);
  const double hi = part.range_hi(shard);
  if (v >= lo && v < hi) return 0.0;
  if (v < lo) return lo - v;
  return v - hi;  // v >= hi; hi itself belongs to the next shard
}

TEST(PartitionTest, FuzzOwnershipCoverageAndHaloSymmetry) {
  const testing::FuzzParams fuzz =
      testing::AnnouncedFuzzParams("partition geometry", 300);
  const uint64_t seed = fuzz.seed;
  const int64_t budget_ms = fuzz.budget_ms;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  Rng rng(seed);
  std::vector<ShardAssignment> assignments;
  int rounds = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    ++rounds;
    // Random geometry: up to 8 shards over a random span, random r_max.
    const int parts = 1 + static_cast<int>(rng.NextBelow(8));
    const double lo = rng.UniformDouble(-1000.0, 1000.0);
    const double span = rng.UniformDouble(1.0, 5000.0);
    PartitionSpec spec;
    if (rng.Bernoulli(0.5)) {
      spec = PartitionSpec::Uniform(lo, lo + span, parts);
    } else {
      // Irregular cuts: sorted uniform draws.
      std::vector<double> cuts;
      for (int i = 0; i + 1 < parts; ++i) {
        cuts.push_back(rng.UniformDouble(lo, lo + span));
      }
      std::sort(cuts.begin(), cuts.end());
      cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
      spec.cuts = cuts;
    }
    std::string verror;
    ASSERT_TRUE(spec.Validate(&verror)) << "seed=" << seed << ": " << verror;
    const double halo = rng.Bernoulli(0.2)
                            ? 0.0
                            : rng.UniformDouble(0.0, span / 2.0);
    const Partitioner part(spec, halo);

    uint64_t per_shard_points[8] = {0};
    for (int i = 0; i < 200; ++i) {
      // Sample inside, far outside, and exactly on the cut lines.
      double v;
      const uint64_t mode = rng.NextBelow(8);
      if (mode == 0 && !spec.cuts.empty()) {
        v = spec.cuts[rng.NextBelow(spec.cuts.size())];
      } else if (mode == 1 && !spec.cuts.empty()) {
        v = spec.cuts[rng.NextBelow(spec.cuts.size())] + halo;
      } else if (mode == 2 && !spec.cuts.empty()) {
        v = spec.cuts[rng.NextBelow(spec.cuts.size())] - halo;
      } else if (mode == 3) {
        v = rng.UniformDouble(lo - 3.0 * span, lo + 4.0 * span);
      } else {
        v = rng.UniformDouble(lo, lo + span);
      }
      part.AssignmentsOf(v, &assignments);

      // Invariant 1: exactly one owner, and it is OwnerOf(v).
      int owners = 0;
      for (const ShardAssignment& a : assignments) {
        if (a.owner) {
          ++owners;
          EXPECT_EQ(a.shard, part.OwnerOf(v)) << "seed=" << seed;
        }
        ASSERT_GE(a.shard, 0) << "seed=" << seed;
        ASSERT_LT(a.shard, part.parts()) << "seed=" << seed;
        ++per_shard_points[a.shard];
      }
      ASSERT_EQ(owners, 1) << "seed=" << seed << " v=" << v;

      // Invariant 2: membership is symmetric with region distance — a
      // shard holds v iff v's halo ball touches its region, where the
      // low edge is inclusive (distance exactly halo is a neighbor at
      // distance exactly r) and the high edge exclusive (region points
      // sit strictly below hi).
      for (int s = 0; s < part.parts(); ++s) {
        const bool assigned =
            std::any_of(assignments.begin(), assignments.end(),
                        [s](const ShardAssignment& a) {
                          return a.shard == s;
                        });
        const bool lo_reach = part.range_lo(s) <= v + halo;
        const bool hi_reach = part.range_hi(s) > v - halo;
        EXPECT_EQ(assigned, lo_reach && hi_reach)
            << "seed=" << seed << " v=" << v << " shard=" << s
            << " halo=" << halo;
        if (assigned) {
          // One ulp of slack: v is often sampled as fl(cut +- halo), so
          // the exact region distance can exceed halo by a rounding error
          // even though the membership rule (lo <= v + halo) includes it.
          const double slack =
              1e-9 * std::max({1.0, std::abs(v), std::abs(halo)});
          EXPECT_LE(RegionDistance(part, v, s), halo + slack)
              << "seed=" << seed;
        }
      }

      // Invariant 3: the assigned set is the contiguous interval
      // [OwnerOf(v - halo), OwnerOf(v + halo)] — full coverage, no holes.
      ASSERT_FALSE(assignments.empty()) << "seed=" << seed;
      EXPECT_EQ(assignments.front().shard, part.OwnerOf(v - halo))
          << "seed=" << seed;
      EXPECT_EQ(assignments.back().shard, part.OwnerOf(v + halo))
          << "seed=" << seed;
      for (size_t i = 1; i < assignments.size(); ++i) {
        EXPECT_EQ(assignments[i].shard, assignments[i - 1].shard + 1)
            << "seed=" << seed;
      }
      if (::testing::Test::HasFatalFailure() ||
          ::testing::Test::HasNonfatalFailure()) {
        return;  // the seed line above reproduces this exact round
      }
    }
  }
  std::fprintf(stderr, "[ fuzz ] %d geometry rounds\n", rounds);
}

}  // namespace
}  // namespace cluster
}  // namespace sop
