// Brute-force checks of SopDetector's evidence after every batch.
//
// A checking wrapper drives a SopDetector through the engine and, after
// each batch, compares every alive point against brute force over a
// mirror of the detector's window:
//   * a non-safe point's succeeding counts equal the per-layer counts of
//     all its newer neighbours within r_max, truncated at k_max in layer
//     order (lsky.h);
//   * its preceding entries and counts equal those of a fresh
//     from-scratch K-SKY scan of the current window;
//   * its safe flag equals the Safe-For-All staircase over all its newer
//     neighbours;
//   * every due verdict equals the brute-force neighbour count;
//   * the detector's running evidence total equals a full walk.
// Streams run at 1 and 4 point lanes, over count and time windows (with
// timestamp ties and gaps), with Def. 6 condition 3 and early termination
// each switched off in turn.

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/ksky.h"
#include "sop/core/sop_detector.h"
#include "sop/stream/stream_buffer.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CollectResults;

// One neighbour within r_max of some point.
struct Neighbour {
  Seq seq;
  int layer;
};

// Wraps a SopDetector and checks its evidence after every batch.
class EvidenceChecker : public OutlierDetector {
 public:
  EvidenceChecker(SopDetector* inner, const Workload& workload,
                  const std::vector<Point>& points, KSky::Options options,
                  std::string label)
      : inner_(inner),
        workload_(workload),
        points_(points),
        options_(options),
        label_(std::move(label)),
        mirror_(workload.window_type()) {
    // Every point's neighbours within r_max over the whole stream, with
    // their reference layers (Def. 4), ascending by seq.
    const WorkloadPlan& plan = inner_->plan();
    const DistanceFn dist = workload.MakeDistanceFn(0);
    neighbours_.resize(points.size());
    for (size_t s = 0; s < points.size(); ++s) {
      for (size_t t = s + 1; t < points.size(); ++t) {
        const double d = dist(points[s], points[t]);
        if (!(d <= plan.r_max())) continue;
        const int layer = plan.basis().LayerOfDistance(d);
        neighbours_[s].push_back({static_cast<Seq>(t), layer});
        neighbours_[t].push_back({static_cast<Seq>(s), layer});
      }
    }
    for (auto& list : neighbours_) {
      std::sort(list.begin(), list.end(),
                [](const Neighbour& a, const Neighbour& b) {
                  return a.seq < b.seq;
                });
    }
  }

  const char* name() const override { return inner_->name(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }

  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override {
    for (const Point& p : batch) mirror_.Append(p);
    const int64_t swift_start =
        WindowStart(boundary, inner_->plan().win_max());
    mirror_.ExpireBefore(swift_start);
    const int64_t scans_before = inner_->stats().ksky_scans;
    std::vector<QueryResult> results =
        inner_->Advance(std::move(batch), boundary);
    max_scan_bound_ =
        std::max(max_scan_bound_, (inner_->stats().ksky_scans - scans_before) *
                                      static_cast<int64_t>(mirror_.size()));
    Check(boundary, swift_start, results);
    ++batches_;
    return results;
  }

  int64_t batches() const { return batches_; }
  // The largest scan bound a batch computed its lane count from (see
  // SopDetector::kLaneScanBound).
  int64_t max_scan_bound() const { return max_scan_bound_; }
  int64_t nonsafe_checks() const { return nonsafe_checks_; }
  int64_t safe_checks() const { return safe_checks_; }

 private:
  int64_t KeyOf(Seq s) const {
    return workload_.window_type() == WindowType::kCount
               ? s
               : points_[static_cast<size_t>(s)].time;
  }

  // All newer neighbours of `s` that have arrived (they are alive while s
  // is), per layer, truncated at k_max.
  std::vector<LayerCount> BruteCounts(Seq s) const {
    const WorkloadPlan& plan = inner_->plan();
    std::vector<int64_t> per_layer(
        static_cast<size_t>(plan.num_layers()) + 1, 0);
    for (const Neighbour& n : neighbours_[static_cast<size_t>(s)]) {
      if (n.seq > s && n.seq < mirror_.next_seq()) {
        ++per_layer[static_cast<size_t>(n.layer)];
      }
    }
    std::vector<LayerCount> counts;
    int64_t sum = 0;
    for (int l = 1; l <= plan.num_layers() && sum < plan.k_max(); ++l) {
      const int64_t c = std::min(per_layer[static_cast<size_t>(l)],
                                 plan.k_max() - sum);
      if (c == 0) continue;
      counts.push_back({l, static_cast<int32_t>(c)});
      sum += c;
    }
    return counts;
  }

  bool BruteSafe(Seq s) const {
    for (const auto& req : inner_->plan().safety_requirements()) {
      int64_t count = 0;
      for (const Neighbour& n : neighbours_[static_cast<size_t>(s)]) {
        count += n.seq > s && n.seq < mirror_.next_seq() &&
                         n.layer <= req.layer
                     ? 1
                     : 0;
      }
      if (count < req.k) return false;
    }
    return true;
  }

  void Check(int64_t boundary, int64_t swift_start,
             const std::vector<QueryResult>& results) {
    const WorkloadPlan& plan = inner_->plan();
    const std::string at = label_ + " boundary " + std::to_string(boundary);
    KSky fresh(&plan, workload_.MakeDistanceFn(0), options_);
    for (Seq s = mirror_.first_seq(); s < mirror_.next_seq(); ++s) {
      ASSERT_TRUE(inner_->IsAliveForTesting(s)) << at << " seq " << s;
      const bool safe = inner_->IsSafeForTesting(s);
      ASSERT_EQ(safe, BruteSafe(s)) << at << " seq " << s;
      if (safe) {
        ++safe_checks_;
        continue;
      }
      ++nonsafe_checks_;
      const LSky& sky = inner_->SkybandForTesting(s);
      ASSERT_EQ(sky.succ(), BruteCounts(s)) << at << " seq " << s;
      LSky band;
      fresh.EvaluatePoint(mirror_.At(s), mirror_, mirror_.next_seq(),
                          swift_start, /*from_scratch=*/true, &band);
      ASSERT_EQ(sky.entries(), band.entries()) << at << " seq " << s;
      ASSERT_EQ(sky.succ(), band.succ()) << at << " seq " << s;
    }
    for (const QueryResult& r : results) {
      const OutlierQuery& q = workload_.query(r.query_index);
      const int64_t start = WindowStart(boundary, q.win);
      const int layer = plan.layer_of_query(r.query_index);
      std::vector<Seq> expected;
      for (Seq s = mirror_.first_seq(); s < mirror_.next_seq(); ++s) {
        if (KeyOf(s) < start) continue;
        int64_t count = 0;
        for (const Neighbour& n : neighbours_[static_cast<size_t>(s)]) {
          count += mirror_.Contains(n.seq) && KeyOf(n.seq) >= start &&
                           n.layer <= layer
                       ? 1
                       : 0;
        }
        if (count < q.k) expected.push_back(s);
      }
      ASSERT_EQ(r.outliers, expected)
          << at << " query " << q.ToString();
    }
    ASSERT_EQ(inner_->MemoryBytes(), inner_->WalkMemoryBytesForTesting())
        << at;
  }

  SopDetector* inner_;
  const Workload& workload_;
  const std::vector<Point>& points_;
  KSky::Options options_;
  std::string label_;
  StreamBuffer mirror_;  // the detector's alive points
  std::vector<std::vector<Neighbour>> neighbours_;  // per seq
  int64_t batches_ = 0;
  int64_t max_scan_bound_ = 0;
  int64_t nonsafe_checks_ = 0;
  int64_t safe_checks_ = 0;
};

// A 2-d stream: uniform noise over [0, 1000)^2 with a few tight clusters,
// so some points turn Safe-For-All and most stay non-safe. Time windows
// get ties (seq 3j+1 shares its predecessor's time) and gaps (no point has
// time 3j+1).
std::vector<Point> MixedStream(Seq n, WindowType type, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    std::vector<double> v;
    if (rng.Bernoulli(0.15)) {
      const double c = 200.0 + 300.0 * static_cast<double>(rng.NextBelow(3));
      v = {rng.Normal(c, 15.0), rng.Normal(c, 15.0)};
    } else {
      v = {rng.UniformDouble(0, 1000), rng.UniformDouble(0, 1000)};
    }
    const Timestamp t = type == WindowType::kCount || s % 3 != 1 ? s : s - 1;
    points.emplace_back(s, t, std::move(v));
  }
  return points;
}

// The largest k pairs with the smallest r, so Def. 6 condition 3 prunes
// far candidates once a few dominate them.
Workload MixedWorkload(WindowType type) {
  Workload w(type);
  w.AddQuery(OutlierQuery(25.0, 20, 1800, 450));
  w.AddQuery(OutlierQuery(90.0, 3, 600, 300));
  w.AddQuery(OutlierQuery(60.0, 5, 900, 150));
  w.AddQuery(OutlierQuery(40.0, 12, 1200, 150));
  w.AddQuery(OutlierQuery(60.0, 8, 1800, 300));
  return w;
}

struct Variant {
  const char* name;
  bool condition3_pruning;
  bool early_termination;
  int lanes;
};

TEST(EvidenceTest, EveryBatchMatchesBruteForce) {
  constexpr Seq kPoints = 2100;
  // The default options at both lane counts; each ablation at one of them
  // (the sanitizer passes bound how many runs fit).
  const Variant variants[] = {
      {"default", true, true, 1},
      {"default", true, true, 4},
      {"no-condition3", false, true, 4},
      {"no-termination", true, false, 1},
  };
  for (const WindowType type : {WindowType::kCount, WindowType::kTime}) {
    const Workload w = MixedWorkload(type);
    const std::vector<Point> points = MixedStream(kPoints, type, 17);
    const std::string kind = type == WindowType::kCount ? "count" : "time";
    for (const Variant& v : variants) {
      const std::string label = kind + " " + v.name + " at " +
                                std::to_string(v.lanes) + " lanes";
      SopDetector::Options options;
      options.ksky.condition3_pruning = v.condition3_pruning;
      options.ksky.early_termination = v.early_termination;
      SetScanLanesForTest(v.lanes);
      SopDetector detector(w, options);
      EvidenceChecker checker(&detector, w, points, options.ksky, label);
      CollectResults(w, points, &checker);
      SetScanLanesForTest(0);
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_GT(checker.batches(), 10) << label;
      EXPECT_GT(checker.nonsafe_checks(), 0) << label;
      EXPECT_GT(checker.safe_checks(), 0) << label << ": nothing safe";
      if (v.lanes > 1) {
        EXPECT_GT(checker.max_scan_bound(), SopDetector::kLaneScanBound)
            << label << ": no batch fanned out";
      }
    }
  }
}

}  // namespace
}  // namespace sop
