// Unit tests for sop/query: queries, workloads, and the compiled plan
// (normalized distance layers, k-groups, Def-6 table, safety staircase,
// swift-query parameters).

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/query/plan.h"
#include "sop/query/query.h"
#include "sop/query/workload.h"

namespace sop {
namespace {

Workload MakeWorkload(std::vector<OutlierQuery> queries) {
  Workload w(WindowType::kCount);
  for (const OutlierQuery& q : queries) w.AddQuery(q);
  return w;
}

TEST(QueryTest, ToStringMentionsParameters) {
  const OutlierQuery q(1.5, 3, 100, 10);
  const std::string s = q.ToString();
  EXPECT_NE(s.find("r=1.5"), std::string::npos);
  EXPECT_NE(s.find("k=3"), std::string::npos);
  EXPECT_NE(s.find("win=100"), std::string::npos);
  EXPECT_NE(s.find("slide=10"), std::string::npos);
}

TEST(WorkloadTest, ValidateCatchesBadParameters) {
  EXPECT_FALSE(Workload().Validate().empty());  // no queries
  EXPECT_FALSE(
      MakeWorkload({OutlierQuery(0.0, 3, 100, 10)}).Validate().empty());
  EXPECT_FALSE(
      MakeWorkload({OutlierQuery(1.0, 0, 100, 10)}).Validate().empty());
  EXPECT_FALSE(
      MakeWorkload({OutlierQuery(1.0, 3, 0, 10)}).Validate().empty());
  EXPECT_FALSE(
      MakeWorkload({OutlierQuery(1.0, 3, 100, 0)}).Validate().empty());
  EXPECT_FALSE(
      MakeWorkload({OutlierQuery(1.0, 3, 100, 10, /*attribute_set=*/5)})
          .Validate()
          .empty());
  EXPECT_TRUE(
      MakeWorkload({OutlierQuery(1.0, 3, 100, 10)}).Validate().empty());
}

TEST(WorkloadTest, AggregatesAndGcd) {
  Workload w = MakeWorkload({OutlierQuery(1.0, 3, 100, 10),
                             OutlierQuery(2.0, 7, 400, 25),
                             OutlierQuery(0.5, 5, 200, 15)});
  EXPECT_EQ(w.MaxWindow(), 400);
  EXPECT_EQ(w.MaxK(), 7);
  EXPECT_EQ(w.SlideGcd(), 5);
}

TEST(WorkloadTest, AttributeSetsAndDistance) {
  Workload w(WindowType::kCount);
  const int set = w.AddAttributeSet({0, 2});
  EXPECT_EQ(set, 1);
  w.AddQuery(OutlierQuery(1.0, 3, 100, 10, set));
  w.AddQuery(OutlierQuery(1.0, 3, 100, 10, 0));
  const DistanceFn sub = w.MakeDistanceFn(0);
  EXPECT_EQ(sub.attributes(), (std::vector<int>{0, 2}));
  const DistanceFn full = w.MakeDistanceFn(1);
  EXPECT_TRUE(full.attributes().empty());
}

// Run checkpoints refuse to resume under a different workload by this
// fingerprint.
TEST(WorkloadTest, FingerprintDistinguishesWorkloads) {
  const Workload a = MakeWorkload({OutlierQuery(1.0, 2, 16, 4),
                                   OutlierQuery(2.5, 4, 24, 8),
                                   OutlierQuery(1.5, 3, 8, 4)});
  Workload b = a;
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.AddQuery(OutlierQuery(9.0, 2, 8, 4));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  Workload c(WindowType::kTime);
  c.AddQuery(a.query(0));
  c.AddQuery(a.query(1));
  c.AddQuery(a.query(2));
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

TEST(PlanTest, LayersAreSortedUniqueRs) {
  WorkloadPlan plan(MakeWorkload({OutlierQuery(3.0, 2, 100, 10),
                                  OutlierQuery(1.0, 2, 100, 10),
                                  OutlierQuery(3.0, 4, 100, 10),
                                  OutlierQuery(2.0, 2, 100, 10)}));
  EXPECT_EQ(plan.num_layers(), 3);
  EXPECT_DOUBLE_EQ(plan.r_of_layer(1), 1.0);
  EXPECT_DOUBLE_EQ(plan.r_of_layer(2), 2.0);
  EXPECT_DOUBLE_EQ(plan.r_of_layer(3), 3.0);
  EXPECT_DOUBLE_EQ(plan.r_min(), 1.0);
  EXPECT_DOUBLE_EQ(plan.r_max(), 3.0);
}

TEST(PlanTest, NormalizedDistancePerDef4) {
  // Paper Def. 4: dist = m+1 when r_m < dist_o <= r_{m+1}.
  WorkloadPlan plan(MakeWorkload({OutlierQuery(1.0, 3, 100, 10),
                                  OutlierQuery(2.0, 3, 100, 10),
                                  OutlierQuery(3.0, 3, 100, 10)}));
  const WorkloadPlan::Basis& basis = plan.basis();
  EXPECT_EQ(basis.LayerOfDistance(0.0), 1);
  EXPECT_EQ(basis.LayerOfDistance(1.0), 1);  // inclusive upper bound
  EXPECT_EQ(basis.LayerOfDistance(1.5), 2);
  EXPECT_EQ(basis.LayerOfDistance(2.0), 2);
  EXPECT_EQ(basis.LayerOfDistance(3.0), 3);
  EXPECT_EQ(basis.LayerOfDistance(3.1), 4);  // beyond every r: no neighbor
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(basis.LayerOfDistance(inf), 4);
  EXPECT_EQ(basis.LayerOfDistance(-inf), 1);
  // NaN compares false with every r: nobody's neighbor, never layer 1.
  EXPECT_EQ(basis.LayerOfDistance(std::numeric_limits<double>::quiet_NaN()),
            4);
  // The scan's lookup takes squared sums (Euclidean keys).
  EXPECT_EQ(plan.LayerOfKey(1.0), 1);
  EXPECT_EQ(plan.LayerOfKey(2.25), 2);
  EXPECT_EQ(plan.LayerOfKey(4.0), 2);
  EXPECT_EQ(plan.LayerOfKey(9.0), 3);
  EXPECT_EQ(plan.LayerOfKey(9.61), 4);
}

TEST(PlanTest, LayerOfDistanceIsALowerBoundForEveryLayerCount) {
  // The branch-free search must equal std::lower_bound at, between and
  // beyond the thresholds, for odd and even layer counts alike.
  for (int layers = 1; layers <= 40; ++layers) {
    Workload w(WindowType::kCount);
    for (int m = 1; m <= layers; ++m) {
      w.AddQuery(OutlierQuery(0.5 * m, 2, 100, 10));
    }
    const WorkloadPlan plan(w);
    const std::vector<double>& rs = plan.basis().layer_r;
    for (double d = 0.0; d <= 0.5 * layers + 1.0; d += 0.25) {
      const int expected = static_cast<int>(
          std::lower_bound(rs.begin(), rs.end(), d) - rs.begin()) + 1;
      EXPECT_EQ(plan.basis().LayerOfDistance(d), expected)
          << layers << " layers, d=" << d;
    }
  }
}

// The key lookup must equal the reference layer of the key's root for
// every key, under both metrics: at each key threshold and its 16 nearest
// doubles either side, at fl(r^2), at both zeros, at denormals, beyond
// K_L, at +inf and at NaN. A Manhattan key is the distance itself, so any
// double is one there; a Euclidean key is never negative (its sqrt would
// be NaN), so negative probes are skipped for it. Each K_m must also be
// the largest double whose root is <= r_m.
void ExpectKeyLookupExact(const std::vector<double>& rs, Metric metric,
                          Rng* rng) {
  Workload w(WindowType::kCount, metric);
  for (const double r : rs) w.AddQuery(OutlierQuery(r, 2, 100, 10));
  const WorkloadPlan plan(w);
  const WorkloadPlan::Basis& basis = plan.basis();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double normal = std::numeric_limits<double>::min();
  std::vector<double> keys = {0.0,
                              -0.0,
                              -1.0,
                              inf,
                              -inf,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::max(),
                              tiny,
                              4 * tiny,
                              normal,
                              std::nextafter(normal, 0.0)};
  for (int m = 1; m <= plan.num_layers(); ++m) {
    const double r = basis.layer_r[static_cast<size_t>(m - 1)];
    const double k = plan.key_of_layer(m);
    ASSERT_LE(plan.DistanceOfKey(k), r) << "layer " << m << ", r " << r;
    if (k < inf) {
      ASSERT_GT(plan.DistanceOfKey(std::nextafter(k, inf)), r)
          << "layer " << m << ", r " << r;
    }
    double below = k;
    double above = k;
    for (int u = 0; u < 16; ++u) {
      below = std::nextafter(below, -inf);
      above = std::nextafter(above, inf);
      keys.push_back(below);
      keys.push_back(above);
    }
    keys.push_back(k);
    keys.push_back(2.0 * k);
    keys.push_back(r * r);
    keys.push_back(r);
  }
  const double k_max = plan.key_of_layer(plan.num_layers());
  for (int i = 0; i < 1000 && std::isfinite(k_max); ++i) {
    keys.push_back(rng->UniformDouble(0.0, 1.25 * k_max));
  }
  for (const double key : keys) {
    if (metric == Metric::kEuclidean && key < 0.0) continue;
    ASSERT_EQ(plan.LayerOfKey(key),
              basis.LayerOfDistance(plan.DistanceOfKey(key)))
        << MetricName(metric) << ", " << rs.size() << " layers, r_max "
        << plan.r_max() << ", key " << key;
  }
}

void ExpectKeyLookupExact(const std::vector<double>& rs, Rng* rng) {
  ExpectKeyLookupExact(rs, Metric::kEuclidean, rng);
  ExpectKeyLookupExact(rs, Metric::kManhattan, rng);
}

TEST(PlanTest, KeyLookupEqualsReference) {
  Rng rng(41);
  for (const int layers : {1, 2, 3, 100, 5000}) {
    std::vector<double> rs;
    for (int m = 0; m < layers; ++m) rs.push_back(rng.UniformDouble(200, 800));
    ExpectKeyLookupExact(rs, &rng);
    // Thresholds crowded into one bucket next to sparse ones.
    for (int m = 0; m < layers; ++m) {
      rs[static_cast<size_t>(m)] =
          m % 2 == 0 ? 1.0 + 1e-9 * m : 1.0 + 1000.0 * m;
    }
    ExpectKeyLookupExact(rs, &rng);
  }
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  ExpectKeyLookupExact({1.0, 2.0, inf}, &rng);   // r_max = +inf: s floored
  ExpectKeyLookupExact({inf}, &rng);
  ExpectKeyLookupExact({tiny, 4 * tiny}, &rng);  // denormal r_max: s = +inf
  ExpectKeyLookupExact({tiny, 1.0, 1e300}, &rng);
  ExpectKeyLookupExact({1e-160, 3e-155, 1e154, 2e154}, &rng);
}

TEST(PlanTest, KeyThresholdsAreExactNotSquares) {
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  // Overflowing, denormal and infinite radii.
  Workload w(WindowType::kCount);
  for (const double r : {tiny, 4 * tiny, 1e200, inf}) {
    w.AddQuery(OutlierQuery(r, 2, 100, 10));
  }
  const WorkloadPlan edge(w);
  EXPECT_EQ(edge.key_of_layer(1), 0.0);  // only an exact 0 is that close
  EXPECT_EQ(edge.key_of_layer(2), 0.0);
  EXPECT_EQ(edge.key_of_layer(3), std::numeric_limits<double>::max());
  EXPECT_EQ(edge.key_of_layer(4), inf);
  w.set_metric(Metric::kManhattan);
  const WorkloadPlan manhattan(w);
  for (int m = 1; m <= 4; ++m) {
    EXPECT_EQ(manhattan.key_of_layer(m), manhattan.r_of_layer(m));
  }
  // For r uniform in [200, 800), about half the thresholds sit one ulp
  // above fl(r^2): a key there is at distance exactly r.
  Rng rng(7);
  Workload uniform(WindowType::kCount);
  for (int i = 0; i < 2000; ++i) {
    uniform.AddQuery(OutlierQuery(rng.UniformDouble(200, 800), 2, 100, 10));
  }
  const WorkloadPlan plan(uniform);
  int above = 0;
  for (int m = 1; m <= plan.num_layers(); ++m) {
    const double r = plan.r_of_layer(m);
    const double k = plan.key_of_layer(m);
    EXPECT_GE(k, std::nextafter(r * r, 0.0)) << "r " << r;
    EXPECT_LE(k, std::nextafter(r * r, inf)) << "r " << r;
    if (k > r * r) {
      ++above;
      EXPECT_EQ(std::sqrt(k), r);
    }
  }
  EXPECT_GT(above, plan.num_layers() / 3);
  EXPECT_LT(above, 2 * plan.num_layers() / 3);
}

TEST(PlanTest, GroupsAndQueryCoordinates) {
  Workload w = MakeWorkload({OutlierQuery(2.0, 5, 100, 10),
                             OutlierQuery(1.0, 2, 100, 10),
                             OutlierQuery(3.0, 2, 100, 10)});
  WorkloadPlan plan(w);
  EXPECT_EQ(plan.num_groups(), 2);
  EXPECT_EQ(plan.k_of_group(0), 2);
  EXPECT_EQ(plan.k_of_group(1), 5);
  EXPECT_EQ(plan.k_max(), 5);
  EXPECT_EQ(plan.group_of_query(0), 1);
  EXPECT_EQ(plan.group_of_query(1), 0);
  EXPECT_EQ(plan.layer_of_query(0), 2);
  EXPECT_EQ(plan.layer_of_query(1), 1);
  EXPECT_EQ(plan.layer_of_query(2), 3);
  // Group 0 (k=2) has rs {1,3}; group 1 (k=5) has r {2}.
  EXPECT_EQ(plan.min_layer_of_group(0), 1);
  EXPECT_EQ(plan.max_layer_of_group(0), 3);
  EXPECT_EQ(plan.min_layer_of_group(1), 2);
  EXPECT_EQ(plan.max_layer_of_group(1), 2);
}

TEST(PlanTest, MaxLayerForCountMatchesDef6) {
  // Paper Fig. 3: QG1 = k=2 with rs {1,3,4}; QG2 = k=3 with rs {2,3,4}.
  Workload w = MakeWorkload(
      {OutlierQuery(1.0, 2, 100, 10), OutlierQuery(3.0, 2, 100, 10),
       OutlierQuery(4.0, 2, 100, 10), OutlierQuery(2.0, 3, 100, 10),
       OutlierQuery(3.0, 3, 100, 10), OutlierQuery(4.0, 3, 100, 10)});
  WorkloadPlan plan(w);
  ASSERT_EQ(plan.k_max(), 3);
  // Candidate dominated by 0 or 1 points: both groups usable, max layer 4.
  EXPECT_EQ(plan.MaxLayerForCount(0), 4);
  EXPECT_EQ(plan.MaxLayerForCount(1), 4);
  // Dominated by 2: only the k=3 group can use it, its max layer is 4.
  EXPECT_EQ(plan.MaxLayerForCount(2), 4);
}

TEST(PlanTest, MaxLayerForCountDropsExhaustedGroups) {
  // Unique rs {1, 3} -> layers 1 and 2. The k=2 group reaches layer 2
  // (r=3); the k=5 group only covers layer 1 (r=1).
  Workload w = MakeWorkload(
      {OutlierQuery(3.0, 2, 100, 10), OutlierQuery(1.0, 5, 100, 10)});
  WorkloadPlan plan(w);
  EXPECT_EQ(plan.MaxLayerForCount(0), 2);  // both groups
  EXPECT_EQ(plan.MaxLayerForCount(1), 2);
  EXPECT_EQ(plan.MaxLayerForCount(2), 1);  // only k=5 remains
  EXPECT_EQ(plan.MaxLayerForCount(4), 1);
}

TEST(PlanTest, SafetyRequirementStaircase) {
  // Group k=5 min layer 1; group k=2 min layer 2 (implied: 5 >= 2 at an
  // earlier layer); group k=9 min layer 3.
  Workload w = MakeWorkload(
      {OutlierQuery(1.0, 5, 100, 10), OutlierQuery(2.0, 2, 100, 10),
       OutlierQuery(3.0, 9, 100, 10)});
  WorkloadPlan plan(w);
  const auto& reqs = plan.safety_requirements();
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].layer, 1);
  EXPECT_EQ(reqs[0].k, 5);
  EXPECT_EQ(reqs[1].layer, 3);
  EXPECT_EQ(reqs[1].k, 9);
}

TEST(PlanTest, SwiftQueryParameters) {
  Workload w = MakeWorkload({OutlierQuery(1.0, 3, 100, 10),
                             OutlierQuery(1.0, 3, 500, 25),
                             OutlierQuery(1.0, 3, 300, 40)});
  WorkloadPlan plan(w);
  EXPECT_EQ(plan.win_max(), 500);
  EXPECT_EQ(plan.slide_gcd(), 5);
}

TEST(PlanDeltaTest, ClassifiesOverlayExtendAndRebuild) {
  Workload w = MakeWorkload(
      {OutlierQuery(1.0, 3, 100, 10), OutlierQuery(2.0, 2, 100, 10)});
  WorkloadPlan plan(w);

  // Removing a query: always covered.
  Workload removed = MakeWorkload({OutlierQuery(1.0, 3, 100, 10)});
  EXPECT_TRUE(plan.Covers(removed));

  // Adding at an existing layer, k and win inside the compiled basis.
  Workload same_layer = w;
  same_layer.AddQuery(OutlierQuery(1.0, 2, 50, 10));
  EXPECT_TRUE(plan.Covers(same_layer));

  // New radius: new layer.
  Workload new_r = w;
  new_r.AddQuery(OutlierQuery(1.5, 2, 100, 10));
  EXPECT_FALSE(plan.Covers(new_r));

  // k beyond the compiled envelope.
  Workload big_k = w;
  big_k.AddQuery(OutlierQuery(1.0, 4, 100, 10));
  EXPECT_FALSE(plan.Covers(big_k));

  // Window beyond the swift envelope.
  Workload big_win = w;
  big_win.AddQuery(OutlierQuery(1.0, 2, 200, 10));
  EXPECT_FALSE(plan.Covers(big_win));

  // Structural mismatches.
  Workload time_windows(WindowType::kTime);
  time_windows.AddQuery(OutlierQuery(1.0, 3, 100, 10));
  EXPECT_FALSE(plan.Covers(time_windows));
  EXPECT_FALSE(plan.Covers(Workload(WindowType::kCount)));
}

TEST(PlanDeltaTest, ExactBasisRejectsSameLayerAddBeyondItsEvidence) {
  // Exact plan: the k=5 group stops at layer 1, so the Def-6 table prunes
  // layer-2 evidence for counts >= 2 — a later (r=2, k=5) add is NOT
  // overlay-safe even though r=2 is an existing layer.
  Workload w = MakeWorkload(
      {OutlierQuery(1.0, 5, 100, 10), OutlierQuery(2.0, 2, 100, 10)});
  Workload grown = w;
  grown.AddQuery(OutlierQuery(2.0, 5, 100, 10));

  WorkloadPlan exact(w);
  EXPECT_FALSE(exact.Covers(grown));

  // The elastic basis keeps every layer alive to the full k envelope, so
  // the same add becomes overlay-only.
  WorkloadPlan elastic(w, /*elastic=*/true);
  EXPECT_TRUE(elastic.Covers(grown));
}

TEST(PlanDeltaTest, ApplyOverlaySwapsWithoutTouchingBasis) {
  Workload w = MakeWorkload(
      {OutlierQuery(1.0, 3, 100, 10), OutlierQuery(2.0, 2, 100, 10)});
  WorkloadPlan plan(w);
  const WorkloadPlan::Basis before = plan.basis();

  Workload removed = MakeWorkload({OutlierQuery(2.0, 2, 100, 10)});
  ASSERT_TRUE(plan.ApplyOverlay(removed));
  EXPECT_TRUE(plan.basis() == before);  // basis untouched
  EXPECT_EQ(plan.workload().num_queries(), 1u);
  EXPECT_EQ(plan.num_groups(), 1);
  EXPECT_EQ(plan.layer_of_query(0), 2);  // r=2 is still layer 2
  EXPECT_EQ(plan.num_layers(), 2);       // both layers remain compiled

  // An uncovered next leaves the plan unchanged and returns false.
  Workload grown = removed;
  grown.AddQuery(OutlierQuery(5.0, 2, 100, 10));
  EXPECT_FALSE(plan.ApplyOverlay(grown));
  EXPECT_EQ(plan.workload().num_queries(), 1u);
  EXPECT_TRUE(plan.basis() == before);
}

}  // namespace
}  // namespace sop
