// Unit tests for the K-SKY scan, including the paper's worked examples.

#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/ksky.h"
#include "sop/obs/metrics.h"
#include "sop/query/plan.h"
#include "sop/stream/stream_buffer.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CountWithin;

// Where the evaluated point p sits among the harness candidates.
enum class Probe {
  kLast,   // p arrives after every candidate: all precede it (examined)
  kFirst,  // p arrives before every candidate: all succeed it (counted)
};

// Test harness: 1-D points, the evaluated point p at value 0, candidates
// at value == their distance to p with seqs 1..n in arrival order,
// count-based windows. p is seq n + 1 (Probe::kLast) or seq 0
// (Probe::kFirst).
class KSkyHarness {
 public:
  KSkyHarness(std::vector<OutlierQuery> queries,
              const std::vector<double>& distances,
              KSky::Options options = KSky::Options(),
              Probe probe = Probe::kLast)
      : workload_(MakeWorkload(std::move(queries))),
        plan_(workload_),
        ksky_(&plan_, workload_.MakeDistanceFn(0), options),
        buffer_(WindowType::kCount) {
    const Seq n = static_cast<Seq>(distances.size());
    probe_seq_ = probe == Probe::kFirst ? 0 : n + 1;
    if (probe == Probe::kFirst) {
      buffer_.Append(Point(0, 0, {0.0}));
    } else {
      buffer_.ResetTo(1);
    }
    for (Seq s = 1; s <= n; ++s) {
      buffer_.Append(Point(s, s, {distances[static_cast<size_t>(s - 1)]}));
    }
    if (probe == Probe::kLast) buffer_.Append(Point(n + 1, n + 1, {0.0}));
  }

  // Runs a from-scratch scan for p; returns whether p is Safe-For-All.
  bool Scan(LSky* skyband) {
    return ksky_.EvaluatePoint(buffer_.At(probe_seq_), buffer_,
                               buffer_.next_seq(), /*swift_window_start=*/0,
                               /*from_scratch=*/true, skyband);
  }

  // Appends arrivals at the given distances, then rescans p incrementally
  // with the swift window starting at key `start`.
  bool Rescan(const std::vector<double>& arrivals, int64_t start,
              LSky* skyband) {
    const Seq first = buffer_.next_seq();
    for (const double d : arrivals) {
      const Seq s = buffer_.next_seq();
      buffer_.Append(Point(s, s, {d}));
    }
    return ksky_.EvaluatePoint(buffer_.At(probe_seq_), buffer_, first, start,
                               /*from_scratch=*/false, skyband);
  }

  std::vector<Seq> SkybandSeqs(const LSky& skyband) const {
    std::vector<Seq> seqs;
    for (const SkybandEntry& e : skyband.entries()) seqs.push_back(e.seq);
    return seqs;
  }

  static Workload MakeWorkload(std::vector<OutlierQuery> queries) {
    Workload w(WindowType::kCount);
    for (const OutlierQuery& q : queries) w.AddQuery(q);
    return w;
  }

  const KSkyScanStats& stats() const { return ksky_.last_stats(); }
  StreamBuffer& buffer() { return buffer_; }
  const WorkloadPlan& plan() const { return plan_; }

 private:
  Workload workload_;
  WorkloadPlan plan_;
  KSky ksky_;
  StreamBuffer buffer_;
  Seq probe_seq_ = 0;
};

using Counts = std::vector<LayerCount>;

// Paper Example 1 / Example 2 (Fig. 2): queries q1(1), q2(2), q3(3), k=3;
// candidate distances 2,3,2,1,1,4,3,2 in arrival order, all older than p.
// The skyband must be {p4, p5, p7, p8} and is discovered newest-first.
TEST(KSkyTest, PaperExample1SkybandContent) {
  KSkyHarness h({{1.0, 3, 100, 10}, {2.0, 3, 100, 10}, {3.0, 3, 100, 10}},
                {2, 3, 2, 1, 1, 4, 3, 2});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7, 5, 4}));
  EXPECT_TRUE(skyband.succ().empty());
  // Layers per Def. 4: p8 -> B2, p7 -> B3, p5/p4 -> B1.
  EXPECT_EQ(skyband.entries()[0].layer, 2);
  EXPECT_EQ(skyband.entries()[1].layer, 3);
  EXPECT_EQ(skyband.entries()[2].layer, 1);
  EXPECT_EQ(skyband.entries()[3].layer, 1);
}

// The k-distance observation on Example 1: with the skyband above, p has
// 3 neighbors within r=2 (k-distance 2), so p is an outlier for q1 only.
TEST(KSkyTest, PaperExample1OutlierStatus) {
  KSkyHarness h({{1.0, 3, 100, 10}, {2.0, 3, 100, 10}, {3.0, 3, 100, 10}},
                {2, 3, 2, 1, 1, 4, 3, 2});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_LT(CountWithin(skyband, 1, 0, 3), 3);  // q1(r=1): outlier
  EXPECT_GE(CountWithin(skyband, 2, 0, 3), 3);  // q2(r=2): inlier
  EXPECT_GE(CountWithin(skyband, 3, 0, 3), 3);  // q3(r=3): inlier
}

// Example 1 with the same candidates arriving after p: they are counted,
// not examined. Every neighbour within r_max is counted (the block's
// frontier is r_3), and the counts stop at k_max = 3: layer 1 holds two,
// layer 2 three, capped to one. The verdicts are the paper's.
TEST(KSkyTest, SucceedingNeighboursAreCounted) {
  KSkyHarness h({{1.0, 3, 100, 10}, {2.0, 3, 100, 10}, {3.0, 3, 100, 10}},
                {2, 3, 2, 1, 1, 4, 3, 2}, KSky::Options(), Probe::kFirst);
  LSky skyband;
  EXPECT_FALSE(h.Scan(&skyband));  // layer 1 holds 2 < k = 3
  EXPECT_TRUE(skyband.entries().empty());
  EXPECT_EQ(skyband.succ(), (Counts{{1, 2}, {2, 1}}));
  EXPECT_FALSE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().candidates_examined, 8);
  EXPECT_EQ(h.stats().distances_computed, 8);
  EXPECT_LT(CountWithin(skyband, 1, 0, 3), 3);  // q1: outlier
  EXPECT_GE(CountWithin(skyband, 2, 0, 3), 3);  // q2: inlier
  EXPECT_GE(CountWithin(skyband, 3, 0, 3), 3);  // q3: inlier
}

// Example 1's window slide (Fig. 1): p4 expires; newcomers are all far
// away. p7 becomes part of p's kNN and p turns into an outlier for q2.
TEST(KSkyTest, PaperExample1NecessityAfterSlide) {
  KSkyHarness h({{1.0, 3, 100, 10}, {2.0, 3, 100, 10}, {3.0, 3, 100, 10}},
                {2, 3, 2, 1, 1, 4, 3, 2});
  LSky skyband;
  h.Scan(&skyband);
  // Newcomers p10..p13 at distance > 3; the window now starts at key 5
  // (p4 gone).
  h.Rescan({5, 5, 5, 5}, 5, &skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7, 5}));
  EXPECT_TRUE(skyband.succ().empty());
  EXPECT_LT(CountWithin(skyband, 2, 5, 3), 3);  // q2: now outlier
  EXPECT_GE(CountWithin(skyband, 3, 5, 3), 3);  // q3: still inlier
}

// Paper Example 3 (Figs. 3-4): QG1 = k=2, rs {1,3,4}; QG2 = k=3,
// rs {2,3,4}. Def. 6 admits p6 (layer 4, dominated by 2 < k_max points).
TEST(KSkyTest, PaperExample3MultiGroupSkyband) {
  KSkyHarness h({{1.0, 2, 100, 10},
                 {3.0, 2, 100, 10},
                 {4.0, 2, 100, 10},
                 {2.0, 3, 100, 10},
                 {3.0, 3, 100, 10},
                 {4.0, 3, 100, 10}},
                {2, 3, 2, 1, 1, 4, 3, 2});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7, 6, 5, 4}));
  // Status per the paper: inlier for every query in both groups.
  EXPECT_GE(CountWithin(skyband, 1, 0, 2), 2);  // QG1 r=1
  EXPECT_GE(CountWithin(skyband, 3, 0, 2), 2);  // QG1 r=3
  EXPECT_GE(CountWithin(skyband, 2, 0, 3), 3);  // QG2 r=2
  EXPECT_GE(CountWithin(skyband, 4, 0, 3), 3);  // QG2 r=4
}

// Def. 6 condition 3: a candidate dominated by c points is discarded when
// no group with k > c covers its layer.
TEST(KSkyTest, Condition3DiscardsUselessCandidates) {
  // Group k=1 covers layers {1,2} (rs 1,5); group k=3 covers layer 1 only.
  // Candidate at distance 5 (layer 2) dominated by 1 point serves nobody:
  // k=1 is already saturated, k=3 does not reach layer 2.
  KSkyHarness h({{1.0, 1, 100, 10}, {5.0, 1, 100, 10}, {1.0, 3, 100, 10}},
                /*distances=*/{5, 5, 5});
  // Scan order: p3(d=5,l=2,c=0) kept; p2(d=5,l=2,c=1): no group with k>1
  // reaches layer 2 -> discarded; p1 likewise.
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{3}));
}

TEST(KSkyTest, Condition3OffKeepsPlainSkyband) {
  KSky::Options options;
  options.condition3_pruning = false;
  KSkyHarness h({{1.0, 1, 100, 10}, {5.0, 1, 100, 10}, {1.0, 3, 100, 10}},
                {5, 5, 5}, options);
  LSky skyband;
  h.Scan(&skyband);
  // Plain (k_max-1)-skyband keeps all candidates dominated by < 3 points.
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{3, 2, 1}));
}

// Early termination: once layer 1 holds k_max entries, older candidates
// are never examined.
TEST(KSkyTest, TerminatesOnLayer1Saturation) {
  KSkyHarness h({{10.0, 2, 100, 10}},
                /*distances=*/{1, 1, 1, 1, 1, 1, 1, 1});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_TRUE(h.stats().terminated_early);
  // Newest two candidates only (k_max = 2).
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7}));
  EXPECT_EQ(h.stats().candidates_examined, 2);
}

TEST(KSkyTest, TerminationOffScansEverything) {
  KSky::Options options;
  options.early_termination = false;
  KSkyHarness h({{10.0, 2, 100, 10}}, {1, 1, 1, 1, 1, 1, 1, 1}, options);
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_FALSE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().candidates_examined, 8);
  // Content identical to the terminated scan.
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7}));
}

// Hit filter. The scan computes distances in 64-candidate kernel blocks
// (newest first) and classifies only the hits it could keep; the counters
// must still stop at the candidate that ended the scan. Harness seqs
// 1..130 (p is 131) form the blocks [67, 131) and [3, 67) (then [1, 3)).
std::vector<double> FarExcept(
    size_t n, const std::vector<std::pair<Seq, double>>& near) {
  std::vector<double> distances(n, 100.0);
  for (const auto& [seq, d] : near) {
    distances[static_cast<size_t>(seq - 1)] = d;
  }
  return distances;
}

TEST(KSkyTest, TerminatesOnFirstHitOfABlock) {
  // One hit in the first block; the second block's first hit saturates
  // layer 1 (k_max = 2) at block position 66 - 60 = 6.
  KSkyHarness h({{10.0, 2, 1000, 10}},
                FarExcept(130, {{100, 1.0}, {60, 1.0}}));
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{100, 60}));
  EXPECT_EQ(h.stats().candidates_examined, 64 + 7);
  EXPECT_EQ(h.stats().distances_computed, 64 + 7);
}

TEST(KSkyTest, TerminatesMidBlockBeforeLaterHits) {
  // Layer-1 hits at 120 and 110 saturate at position 130 - 110 = 20; the
  // layer-2 hit at 115 is kept, the hit at 105 is never consumed.
  KSkyHarness h(
      {{1.0, 2, 1000, 10}, {5.0, 2, 1000, 10}},
      FarExcept(130, {{120, 1.0}, {115, 3.0}, {110, 0.5}, {105, 1.0}}));
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{120, 115, 110}));
  EXPECT_EQ(h.stats().candidates_examined, 21);
  EXPECT_EQ(h.stats().distances_computed, 21);
}

TEST(KSkyTest, SplitsTheProbesBlock) {
  // p is seq 40 of 80. The scan counts [41, 80) in one block, then
  // examines [0, 40) in another: p is never its own candidate, and the
  // block that would hold it is split at it. Layer 1 saturates (k_max 2)
  // in whichever half holds the second hit.
  Workload w = KSkyHarness::MakeWorkload({{10.0, 2, 1000, 10}});
  WorkloadPlan plan(w);
  KSky ksky(&plan, w.MakeDistanceFn(0));
  auto scan = [&](Seq second_hit) {
    StreamBuffer buffer(WindowType::kCount);
    for (Seq s = 0; s < 80; ++s) {
      const double v = s == 40 ? 0.0 : (s == 70 || s == second_hit) ? 1.0
                                                                    : 100.0;
      buffer.Append(Point(s, s, {v}));
    }
    LSky skyband;
    ksky.EvaluatePoint(buffer.At(40), buffer, buffer.next_seq(), 0,
                       /*from_scratch=*/true, &skyband);
    EXPECT_TRUE(ksky.last_stats().terminated_early);
    return skyband;
  };
  // Ends at position 39 - 30 = 9 of the older block: 39 + 10 consumed.
  LSky split = scan(30);
  EXPECT_EQ(split.succ(), (Counts{{1, 1}}));
  ASSERT_EQ(split.size(), 1u);
  EXPECT_EQ(split.entries()[0].seq, 30);
  EXPECT_EQ(ksky.last_stats().candidates_examined, 49);
  EXPECT_EQ(ksky.last_stats().distances_computed, 49);
  // Ends at position 79 - 50 = 29 of the newer block: 30 consumed, and
  // no older candidate is examined.
  LSky newer = scan(50);
  EXPECT_EQ(newer.succ(), (Counts{{1, 2}}));
  EXPECT_TRUE(newer.entries().empty());
  EXPECT_EQ(ksky.last_stats().candidates_examined, 30);
  EXPECT_EQ(ksky.last_stats().distances_computed, 30);
}

// Dominance frontier (ksky.h): once k_max kept entries sit at layers <= f,
// candidates at layer >= f are consumed without classification. The
// skyband and stats are those of the unfiltered scan; ksky/classified
// (hits that reached the layer lookup) shows the cut.
class ObsCounters {
 public:
  ObsCounters() {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
  }
  ~ObsCounters() {
    obs::SetEnabled(false);
    obs::MetricsRegistry::Global().Reset();
  }
  // The counter's value; 0 when the obs layer is compiled out.
  uint64_t Get(const std::string& name) const {
    const obs::Snapshot snap = obs::MetricsRegistry::Global().TakeSnapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }
};

constexpr uint64_t IfObs(uint64_t n) { return obs::kCompiledIn ? n : 0; }

TEST(KSkyTest, FrontierCutsALaterBlock) {
  // k_max 2. The first block keeps two layer-2 hits (d 3), so f = 2: the
  // second block's layer-2 hits at 60 and 50 are dominated and skipped;
  // its layer-1 hits at 40 and 30 are kept, and 30 saturates layer 1 at
  // position 66 - 30 = 36.
  KSkyHarness h({{1.0, 2, 1000, 10}, {5.0, 2, 1000, 10}},
                FarExcept(130, {{120, 3.0},
                                {110, 3.0},
                                {60, 3.0},
                                {50, 3.0},
                                {40, 0.5},
                                {30, 0.5},
                                {20, 0.5}}));
  ObsCounters obs;
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{120, 110, 40, 30}));
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().candidates_examined, 64 + 37);
  EXPECT_EQ(h.stats().distances_computed, 64 + 37);
  EXPECT_EQ(obs.Get("kernel/hits"), IfObs(6));
  EXPECT_EQ(obs.Get("ksky/classified"), IfObs(4));
}

TEST(KSkyTest, FrontierCutsReadmission) {
  // k_max 3, layers r 1 / 3 / 5. The first scan keeps
  // {8 (L3), 7 (L3), 6 (L2), 4 (L2), 3 (L1), 1 (L1)}; 5 and 2 are
  // dominated three times.
  KSkyHarness h({{1.0, 3, 100, 10}, {3.0, 3, 100, 10}, {5.0, 3, 100, 10}},
                {0.5, 2, 0.5, 2, 4, 2, 4, 4});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7, 6, 4, 3, 1}));
  // Three layer-2 arrivals are counted and put f at 2: re-admission skips
  // the four entries at layers >= 2 (still counted as examined) and
  // re-keeps the two at layer 1.
  h.Rescan({2, 2, 2}, 0, &skyband);
  EXPECT_EQ(skyband.succ(), (Counts{{2, 3}}));
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{3, 1}));
  EXPECT_FALSE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().distances_computed, 3);
  EXPECT_EQ(h.stats().candidates_examined, 3 + 6);
}

TEST(KSkyTest, FrontierReachesLayer1WithoutTermination) {
  // k_max 2, one layer, every candidate at d 1. With early termination
  // off the first block's two newest hits saturate layer 1 (f = 1): the
  // rest of that block is still examined (the frontier was taken before
  // it), the later blocks classify nothing, and all 130 are consumed.
  KSky::Options options;
  options.early_termination = false;
  KSkyHarness h({{10.0, 2, 1000, 10}}, std::vector<double>(130, 1.0),
                options);
  ObsCounters obs;
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{130, 129}));
  EXPECT_FALSE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().candidates_examined, 130);
  EXPECT_EQ(h.stats().distances_computed, 130);
  EXPECT_EQ(obs.Get("kernel/hits"), IfObs(130));
  EXPECT_EQ(obs.Get("ksky/classified"), IfObs(64));
}

TEST(KSkyTest, FrontierWithCondition3Off) {
  // The plain 2-skyband (k_max 3): three layer-2 hits in the first block
  // put f at 2, so 60 and 50 are skipped; layer-1 hits at 40, 30 and 20
  // are kept and 20 saturates layer 1 at position 66 - 20 = 46. (With
  // condition 3 on, 110 and 100 would be pruned: no group with k > 1
  // reaches layer 2.)
  KSky::Options options;
  options.condition3_pruning = false;
  KSkyHarness h({{1.0, 1, 1000, 10}, {5.0, 1, 1000, 10}, {1.0, 3, 1000, 10}},
                FarExcept(130, {{120, 3.0},
                                {110, 3.0},
                                {100, 3.0},
                                {60, 3.0},
                                {50, 3.0},
                                {40, 0.5},
                                {30, 0.5},
                                {20, 0.5}}),
                options);
  ObsCounters obs;
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband),
            (std::vector<Seq>{120, 110, 100, 40, 30, 20}));
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().candidates_examined, 64 + 47);
  EXPECT_EQ(h.stats().distances_computed, 64 + 47);
  EXPECT_EQ(obs.Get("kernel/hits"), IfObs(8));
  EXPECT_EQ(obs.Get("ksky/classified"), IfObs(6));
}

TEST(KSkyTest, CountingFrontierStaysAtTheSeeds) {
  // k_max 2, layers r 1 / 5, and p first, so all 130 candidates are
  // counted. The first block's layer-2 hits (120, 110) already fill the
  // counts at layer 2, but counting reads no table: the later block's
  // layer-2 hits (60, 50) are classified too, and truncation drops them
  // (ksky.h, Fact 4).
  KSkyHarness h({{1.0, 2, 1000, 10}, {5.0, 2, 1000, 10}},
                FarExcept(130, {{120, 3.0}, {110, 3.0}, {60, 3.0}, {50, 3.0}}),
                KSky::Options(), Probe::kFirst);
  LSky skyband;
  {
    ObsCounters obs;
    h.Scan(&skyband);
    EXPECT_EQ(skyband.succ(), (Counts{{2, 2}}));
    EXPECT_TRUE(skyband.entries().empty());
    EXPECT_FALSE(h.stats().terminated_early);
    EXPECT_EQ(h.stats().candidates_examined, 130);
    EXPECT_EQ(obs.Get("kernel/hits"), IfObs(4));
    EXPECT_EQ(obs.Get("ksky/classified"), IfObs(4));
  }
  // A rescan counts inside the seeds' truncation layer, 2: of three
  // arrivals within r_max, only the one at layer 1 is classified.
  {
    ObsCounters obs;
    h.Rescan({3.0, 0.5, 3.0}, 0, &skyband);
    EXPECT_EQ(skyband.succ(), (Counts{{1, 1}, {2, 1}}));
    EXPECT_EQ(h.stats().distances_computed, 3);
    EXPECT_EQ(obs.Get("kernel/hits"), IfObs(3));
    EXPECT_EQ(obs.Get("ksky/classified"), IfObs(1));
  }
}

// Candidates beyond the largest r are nobody's neighbor and never enter
// the skyband (Def. 5 condition 3).
TEST(KSkyTest, FarPointsIgnored) {
  KSkyHarness h({{2.0, 2, 100, 10}}, {100, 3, 100, 1, 100});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{4}));
}

// Time-based windows: skyband entries carry timestamps as keys, expiry and
// window counting use them, while domination order stays arrival order.
TEST(KSkyTest, TimeBasedKeysInSkyband) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(2.0, 2, 100, 10));
  WorkloadPlan plan(w);
  KSky ksky(&plan, w.MakeDistanceFn(0));
  StreamBuffer buffer(WindowType::kTime);
  // Timestamps with ties and gaps; p is seq 4 at time 31.
  buffer.Append(Point(0, 5, {0.5}));
  buffer.Append(Point(1, 20, {1.5}));
  buffer.Append(Point(2, 20, {9.0}));  // too far: not a neighbor
  buffer.Append(Point(3, 31, {1.0}));
  buffer.Append(Point(4, 31, {0.0}));
  LSky skyband;
  ksky.EvaluatePoint(buffer.At(4), buffer, buffer.next_seq(), 0, true,
                     &skyband);
  // k_max = 2: the two newest neighbors saturate layer 1 and terminate.
  EXPECT_TRUE(skyband.succ().empty());
  ASSERT_EQ(skyband.size(), 2u);
  EXPECT_EQ(skyband.entries()[0].seq, 3);
  EXPECT_EQ(skyband.entries()[0].key, 31);  // timestamp, not seq
  EXPECT_EQ(skyband.entries()[1].seq, 1);
  EXPECT_EQ(skyband.entries()[1].key, 20);
  // Window [25, 35): only the time-31 neighbor counts.
  EXPECT_EQ(CountWithin(skyband, 1, 25, 10), 1);
  // Expiry by timestamp.
  EXPECT_EQ(skyband.ExpireBefore(21), 1u);
  EXPECT_EQ(skyband.entries()[0].seq, 3);
}

// Safe-For-All: p (seq 0, earliest) with k succeeding neighbors within
// every group's min layer is safe; with too few, it is not.
TEST(KSkyTest, SafeForAllDetection) {
  KSkyHarness safe({{1.0, 2, 100, 10}, {3.0, 3, 100, 10}},
                   /*distances=*/{1, 1, 2, 3}, KSky::Options(),
                   Probe::kFirst);
  LSky skyband;
  EXPECT_TRUE(safe.Scan(&skyband));
  // Requirements (layer 1, k 2) and (layer 2, k 3): two at layer 1, and
  // layer 2's two capped to one at k_max = 3.
  EXPECT_EQ(skyband.succ(), (Counts{{1, 2}, {2, 1}}));

  // Only one succeeding neighbor within r=1: group k=2 unsatisfied.
  KSkyHarness unsafe({{1.0, 2, 100, 10}, {3.0, 3, 100, 10}},
                     /*distances=*/{1, 2, 2, 3}, KSky::Options(),
                     Probe::kFirst);
  EXPECT_FALSE(unsafe.Scan(&skyband));
  EXPECT_EQ(skyband.succ(), (Counts{{1, 1}, {2, 2}}));
}

// A point with enough neighbors that nonetheless *precede* it must not be
// declared safe (they expire before it does).
TEST(KSkyTest, PrecedingNeighborsDoNotMakeSafe) {
  // Evaluate the NEWEST point: p at seq 0 is replaced by evaluating seq 4.
  Workload w = KSkyHarness::MakeWorkload({{1.0, 2, 100, 10}});
  WorkloadPlan plan(w);
  KSky ksky(&plan, w.MakeDistanceFn(0));
  StreamBuffer buffer(WindowType::kCount);
  for (Seq s = 0; s < 5; ++s) buffer.Append(Point(s, s, {0.0}));
  LSky skyband;
  // The newest point has 4 preceding neighbors at distance 0, no
  // succeeding ones.
  EXPECT_FALSE(ksky.EvaluatePoint(buffer.At(4), buffer, buffer.next_seq(), 0,
                                  true, &skyband));
  // An older point with >= 2 succeeding neighbors is safe.
  EXPECT_TRUE(ksky.EvaluatePoint(buffer.At(1), buffer, buffer.next_seq(), 0,
                                 true, &skyband));
}

// Least examination: the incremental rescan touches only new arrivals and
// previous preceding entries, and recomputes distances only for the
// former. When no new arrival is counted, the previous entries are not
// even re-examined (their admission decisions replay unchanged).
TEST(KSkyTest, LeastExaminationScanCosts) {
  KSkyHarness h({{5.0, 2, 100, 10}}, {1, 2, 3, 4, 1, 2, 3, 4});
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8, 7}));
  const auto skyband_before = skyband.entries();
  // Two new arrivals, far away: distances computed, nothing counted,
  // re-admission of old entries skipped.
  h.Rescan({50, 50}, 0, &skyband);
  EXPECT_EQ(h.stats().distances_computed, 2);  // the new arrivals only
  EXPECT_EQ(h.stats().candidates_examined, 2);
  EXPECT_EQ(skyband.entries(), skyband_before);  // unchanged
  EXPECT_TRUE(skyband.succ().empty());
  // Two arrivals, one nearby: it is counted, so old entries are
  // re-examined — until layer-1 saturation terminates the scan after the
  // first of the two old entries (k_max = 2 reached).
  h.Rescan({1, 50}, 0, &skyband);
  EXPECT_EQ(h.stats().distances_computed, 2);
  EXPECT_EQ(h.stats().candidates_examined, 3);
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(skyband.succ(), (Counts{{1, 1}}));
  EXPECT_EQ(h.SkybandSeqs(skyband), (std::vector<Seq>{8}));
}

// Succeeding counts saturating layer 1 end an incremental scan before
// its first arrival (with safe-inlier pruning off, such a point is still
// rescanned).
TEST(KSkyTest, SaturatedCountsEndTheRescan) {
  KSkyHarness h({{10.0, 2, 1000, 10}}, {1, 1}, KSky::Options(),
                Probe::kFirst);
  LSky skyband;
  EXPECT_TRUE(h.Scan(&skyband));
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(skyband.succ(), (Counts{{1, 2}}));
  EXPECT_TRUE(h.Rescan({1, 1, 1}, 0, &skyband));
  EXPECT_TRUE(h.stats().terminated_early);
  EXPECT_EQ(h.stats().candidates_examined, 0);
  EXPECT_EQ(h.stats().distances_computed, 0);
  EXPECT_EQ(skyband.succ(), (Counts{{1, 2}}));
}

// Merging the counts (ksky.h): arrivals fold into the previous pairs in
// ascending layer order across bitmap words, and the sum stops at k_max
// with the last pair capped. 200 layers (r = 1..200), k 10.
TEST(KSkyTest, CountsMergeAcrossBitmapWords) {
  std::vector<OutlierQuery> queries;
  for (int r = 1; r <= 200; ++r) queries.emplace_back(r, 10, 1000, 10);
  KSkyHarness h(queries, {3, 70, 150}, KSky::Options(), Probe::kFirst);
  LSky skyband;
  h.Scan(&skyband);
  EXPECT_EQ(skyband.succ(), (Counts{{3, 1}, {70, 1}, {150, 1}}));
  h.Rescan({5, 70, 190, 130.5}, 0, &skyband);
  EXPECT_EQ(skyband.succ(), (Counts{{3, 1},
                                    {5, 1},
                                    {70, 2},
                                    {131, 1},
                                    {150, 1},
                                    {190, 1}}));
  h.Rescan(std::vector<double>(10, 100.0), 0, &skyband);
  EXPECT_EQ(skyband.succ(), (Counts{{3, 1}, {5, 1}, {70, 2}, {100, 6}}));
  EXPECT_TRUE(skyband.entries().empty());
  // A fresh scan of the same buffer counts the same.
  KSky fresh(&h.plan(), h.plan().workload().MakeDistanceFn(0));
  LSky fresh_band;
  fresh.EvaluatePoint(h.buffer().At(0), h.buffer(), h.buffer().next_seq(), 0,
                      /*from_scratch=*/true, &fresh_band);
  EXPECT_EQ(fresh_band.succ(), skyband.succ());
}

// Layer-table reset (ksky.h, "Resetting the table"). One KSky reused
// across every point must build the evidence a fresh KSky builds, and
// report exactly the points whose evidence count misses k in each
// emission group. Two groups: the whole buffer and its newer half. The
// stream is scanned from scratch over its first `n1` points (uniform in
// [0, 20)), then incrementally after the rest arrive (uniform in [0, 40),
// so some points count none: those keep their entries and re-add them to
// the table for the emission).
struct ResetCase {
  std::vector<double> radii;
  int64_t k;
  KSky::Emission emission;  // group starts filled in by the test
};

// Whether the reset rule clears (rather than undoes) a table of `layers`
// layers that holds `updates` updates (seeded pairs, counted layers and
// entries).
bool ClearsTable(int layers, size_t updates) {
  const unsigned l = static_cast<unsigned>(layers);
  return l + 1 < updates * std::bit_width(l);
}

// Scans whose table the rule clears. `sure` counts points outside the
// newer half, whose table holds all their entries at reset, and at least
// one update per succeeding pair. `possible` bounds every scan's updates
// from above: the pairs it was seeded with, its neighbours among the
// candidates it counted, and its entries.
struct Clears {
  int64_t sure = 0;
  int64_t possible = 0;
};

Clears ExpectReuseMatchesFresh(ResetCase c, Seq n1, Seq n) {
  Workload w(WindowType::kCount);
  for (const double r : c.radii) w.AddQuery(OutlierQuery(r, c.k, 1000, 10));
  WorkloadPlan plan(w);
  KSky reused(&plan, w.MakeDistanceFn(0));
  c.emission.groups[0].start = 0;
  c.emission.groups[1].start = n / 2;
  const size_t slots = c.emission.layers.size();

  Rng rng(3);
  StreamBuffer buffer(WindowType::kCount);
  std::vector<double> values;
  auto append = [&](Seq end, double hi) {
    for (Seq s = buffer.next_seq(); s < end; ++s) {
      values.push_back(rng.UniformDouble(0, hi));
      buffer.Append(Point(s, s, {values.back()}));
    }
  };
  std::vector<LSky> fresh_bands(static_cast<size_t>(n1));
  std::vector<LSky> reused_bands(static_cast<size_t>(n1));
  Clears clears;
  int64_t kept = 0;  // incremental scans that kept their entries
  auto scan_all = [&](bool from_scratch, Seq batch_first) {
    for (Seq s = 0; s < n1; ++s) {
      const size_t i = static_cast<size_t>(s);
      const std::vector<SkybandEntry> before = reused_bands[i].entries();
      const size_t seeds = from_scratch ? 0 : reused_bands[i].succ().size();
      std::vector<std::vector<Seq>> outliers(slots);
      reused.EvaluatePoint(buffer.At(s), buffer, batch_first, 0, from_scratch,
                           &reused_bands[i], &c.emission, &outliers);
      KSky fresh(&plan, w.MakeDistanceFn(0));
      fresh.EvaluatePoint(buffer.At(s), buffer, batch_first, 0, from_scratch,
                          &fresh_bands[i]);
      const LSky& band = fresh_bands[i];
      ASSERT_EQ(reused_bands[i].entries(), band.entries()) << "seq " << s;
      ASSERT_EQ(reused_bands[i].succ(), band.succ()) << "seq " << s;
      if (!from_scratch && band.entries() == before) ++kept;
      size_t slot = 0;
      for (const KSky::Emission::Group& g : c.emission.groups) {
        for (; slot < g.slot_end; ++slot) {
          const int layer = c.emission.layers[slot];
          const bool outlier =
              s >= g.start && CountWithin(band, layer, g.start, g.k) < g.k;
          EXPECT_EQ(outliers[slot], outlier ? std::vector<Seq>{s}
                                            : std::vector<Seq>{})
              << "seq " << s << " layer " << layer << " start " << g.start;
        }
      }
      size_t neighbours = 0;
      for (Seq t = from_scratch ? s + 1 : batch_first; t < buffer.next_seq();
           ++t) {
        neighbours += std::abs(values[static_cast<size_t>(t)] - values[i]) <=
                              plan.r_max()
                          ? 1
                          : 0;
      }
      if (ClearsTable(plan.num_layers(), seeds + neighbours + band.size())) {
        ++clears.possible;
      }
      if (s < n / 2 && ClearsTable(plan.num_layers(),
                                   band.succ().size() + band.size())) {
        ++clears.sure;
      }
    }
  };
  append(n1, 20.0);
  scan_all(/*from_scratch=*/true, n1);
  append(n, 40.0);
  scan_all(/*from_scratch=*/false, n1);
  EXPECT_GT(kept, 0) << "no incremental scan kept its entries";
  return clears;
}

TEST(KSkyTest, ReusedTableMatchesFreshWhenCleared) {
  // Three layers, k 40 on a dense stream: dozens of entries per point.
  ResetCase c;
  c.radii = {0.05, 0.2, 1.0};
  c.k = 40;
  c.emission.groups = {{0, 40, 3}, {0, 10, 5}};
  c.emission.layers = {1, 2, 3, 1, 3};
  EXPECT_GT(ExpectReuseMatchesFresh(c, 300, 320).sure, 200);
}

TEST(KSkyTest, ReusedTableMatchesFreshWhenUndone) {
  // 4096 layers, k 2: a few pairs and entries per point, and a few dozen
  // counted neighbours at most, far below the (L + 1) / log2(L) = 315
  // updates a clear would need.
  ResetCase c;
  for (int i = 1; i <= 4096; ++i) c.radii.push_back(0.0005 * i);
  c.k = 2;
  c.emission.groups = {{0, 2, 5}, {0, 1, 9}};
  c.emission.layers = {1, 10, 100, 1000, 4096, 5, 50, 500, 4000};
  EXPECT_EQ(ExpectReuseMatchesFresh(c, 300, 320).possible, 0);
}

}  // namespace
}  // namespace sop
