// Tests for SopDetector checkpoint save/restore.

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/sop_detector.h"
#include "sop/gen/synthetic.h"
#include "sop/gen/workload_gen.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ExpectSameResults;
using testing::ResultToString;

Workload TestWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.5, 4, 24, 8));
  w.AddQuery(OutlierQuery(1.5, 3, 8, 4));
  return w;
}

std::vector<Point> TestStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    const double v = rng.Bernoulli(0.2) ? rng.UniformDouble(0, 30)
                                        : rng.Normal(10, 0.8);
    points.emplace_back(s, s, std::vector<double>{v});
  }
  return points;
}

// Advances `detector` over batches [from_batch, to_batch) of `points`
// (batch span = slide gcd), appending emissions to `out`.
void Drive(SopDetector* detector, const std::vector<Point>& points,
           int64_t batch_span, int64_t from_batch, int64_t to_batch,
           std::vector<QueryResult>* out) {
  for (int64_t b = from_batch; b < to_batch; ++b) {
    std::vector<Point> batch(
        points.begin() + static_cast<size_t>(b * batch_span),
        points.begin() + static_cast<size_t>((b + 1) * batch_span));
    std::vector<QueryResult> results =
        detector->Advance(std::move(batch), (b + 1) * batch_span);
    if (out != nullptr) {
      out->insert(out->end(), results.begin(), results.end());
    }
  }
}

TEST(CheckpointTest, RestoredDetectorContinuesIdentically) {
  const Workload w = TestWorkload();
  const int64_t span = w.SlideGcd();
  const std::vector<Point> points = TestStream(96, 11);
  const int64_t total_batches = static_cast<int64_t>(points.size()) / span;
  const int64_t half = total_batches / 2;

  // Reference: one detector over the whole stream.
  SopDetector reference(w);
  std::vector<QueryResult> expected;
  Drive(&reference, points, span, 0, total_batches, &expected);

  // Checkpointed: run half, save, restore into a new detector, finish.
  SopDetector first_half(w);
  std::vector<QueryResult> actual;
  Drive(&first_half, points, span, 0, half, &actual);
  const std::string blob = first_half.SaveState();

  SopDetector second_half(w);
  ASSERT_TRUE(second_half.LoadState(blob));
  Drive(&second_half, points, span, half, total_batches, &actual);

  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].query_index, actual[i].query_index);
    EXPECT_EQ(expected[i].boundary, actual[i].boundary);
    EXPECT_EQ(expected[i].outliers, actual[i].outliers)
        << ResultToString(expected[i]) << " vs " << ResultToString(actual[i]);
  }
  // Internal state carried over: safety flags and counters.
  EXPECT_EQ(second_half.stats().ksky_scans, reference.stats().ksky_scans);
  EXPECT_EQ(second_half.stats().safe_points_discovered,
            reference.stats().safe_points_discovered);
}

TEST(CheckpointTest, RoundTripPreservesEvidence) {
  const Workload w = TestWorkload();
  const int64_t span = w.SlideGcd();
  const std::vector<Point> points = TestStream(48, 3);
  SopDetector original(w);
  Drive(&original, points, span, 0,
        static_cast<int64_t>(points.size()) / span, nullptr);

  SopDetector restored(w);
  ASSERT_TRUE(restored.LoadState(original.SaveState()));
  for (Seq s = 0; s < static_cast<Seq>(points.size()); ++s) {
    ASSERT_EQ(original.IsAliveForTesting(s), restored.IsAliveForTesting(s));
    if (!original.IsAliveForTesting(s)) continue;
    EXPECT_EQ(original.IsSafeForTesting(s), restored.IsSafeForTesting(s));
    EXPECT_EQ(original.SkybandForTesting(s).entries(),
              restored.SkybandForTesting(s).entries());
  }
  // A restored detector's own checkpoint is byte-identical.
  EXPECT_EQ(original.SaveState(), restored.SaveState());
}

// Restoring into a detector compiled without the saver's headroom adopts
// the saved, wider basis: the plan's layer lookup and every lane's layer
// tables must follow it. Saver and restorer then both continue in step
// with the saver's uninterrupted run, at one lane and at four.
TEST(CheckpointTest, RestoreAdoptsADifferentBasis) {
  gen::WorkloadGenOptions o;
  o.r_lo = 200.0;
  o.r_hi = 800.0;
  o.k_fixed = 30;
  o.win_fixed = 3000;
  o.slide_fixed = 500;
  o.seed = 5;
  const Workload w =
      gen::GenerateWorkload(gen::WorkloadCase::kA, 10, WindowType::kCount, o);
  SopDetector::Options headroom;
  headroom.headroom.r_values = {150.0, 950.0};
  headroom.headroom.k_slack = 4;
  gen::SyntheticOptions stream;
  stream.seed = 9;
  std::vector<Point> points = gen::GenerateSynthetic(6000, stream);
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].seq = static_cast<Seq>(i);
  }
  const int64_t span = w.SlideGcd();
  const int64_t total = static_cast<int64_t>(points.size()) / span;
  const int64_t half = total / 2;

  for (const int lanes : {1, 4}) {
    SetScanLanesForTest(lanes);
    const std::string at = std::to_string(lanes) + " lanes";
    SopDetector reference(w, headroom);
    std::vector<QueryResult> expected;
    Drive(&reference, points, span, 0, half, nullptr);
    // The largest batch scan bound (scans x alive points) after the save
    // point: it must clear the fan-out bound for lanes to matter.
    int64_t max_bound = 0;
    for (int64_t b = half; b < total; ++b) {
      const int64_t scans = reference.stats().ksky_scans;
      Drive(&reference, points, span, b, b + 1, &expected);
      int64_t alive = 0;
      for (Seq s = 0; s < static_cast<Seq>(points.size()); ++s) {
        alive += reference.IsAliveForTesting(s) ? 1 : 0;
      }
      max_bound = std::max(max_bound,
                           (reference.stats().ksky_scans - scans) * alive);
    }
    EXPECT_GT(max_bound, SopDetector::kLaneScanBound) << at;

    SopDetector saver(w, headroom);
    Drive(&saver, points, span, 0, half, nullptr);
    const std::string blob = saver.SaveState();
    SopDetector restorer(w);
    ASSERT_NE(restorer.plan().basis(), saver.plan().basis()) << at;
    ASSERT_TRUE(restorer.LoadState(blob)) << at;
    EXPECT_EQ(restorer.plan().basis(), saver.plan().basis()) << at;

    for (SopDetector* d : {&saver, &restorer}) {
      const std::string who = at + (d == &saver ? ", saver" : ", restorer");
      std::vector<QueryResult> actual;
      Drive(d, points, span, half, total, &actual);
      ExpectSameResults(expected, actual, who);
      for (Seq s = 0; s < static_cast<Seq>(points.size()); ++s) {
        ASSERT_EQ(reference.IsAliveForTesting(s), d->IsAliveForTesting(s));
        if (!reference.IsAliveForTesting(s)) continue;
        EXPECT_EQ(reference.IsSafeForTesting(s), d->IsSafeForTesting(s))
            << who << ", seq " << s;
        EXPECT_EQ(reference.SkybandForTesting(s).entries(),
                  d->SkybandForTesting(s).entries())
            << who << ", seq " << s;
      }
      const SopDetector::Stats& want = reference.stats();
      const SopDetector::Stats& got = d->stats();
      EXPECT_EQ(want.ksky_scans, got.ksky_scans) << who;
      EXPECT_EQ(want.distances_computed, got.distances_computed) << who;
      EXPECT_EQ(want.candidates_examined, got.candidates_examined) << who;
      EXPECT_EQ(want.early_terminations, got.early_terminations) << who;
      EXPECT_EQ(want.safe_points_discovered, got.safe_points_discovered)
          << who;
      EXPECT_EQ(want.overlay_swaps, got.overlay_swaps) << who;
    }
    SetScanLanesForTest(0);
  }
}

TEST(CheckpointTest, RejectsCorruptedBlobs) {
  const Workload w = TestWorkload();
  SopDetector original(w);
  Drive(&original, TestStream(48, 5), w.SlideGcd(), 0, 12, nullptr);
  const std::string blob = original.SaveState();

  {
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(""));
  }
  {
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(std::string_view(blob).substr(0, 16)));
  }
  {
    std::string truncated = blob.substr(0, blob.size() - 3);
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(truncated));
  }
  {
    std::string extra = blob + "x";
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(extra));
  }
  {
    std::string bad_magic = blob;
    bad_magic[0] = static_cast<char>(~bad_magic[0]);
    SopDetector d(w);
    EXPECT_FALSE(d.LoadState(bad_magic));
  }
}

TEST(CheckpointTest, RejectsDifferentWorkload) {
  const Workload w = TestWorkload();
  SopDetector original(w);
  Drive(&original, TestStream(48, 7), w.SlideGcd(), 0, 12, nullptr);
  const std::string blob = original.SaveState();

  Workload other = TestWorkload();
  other.AddQuery(OutlierQuery(3.0, 5, 16, 4));
  SopDetector d(other);
  EXPECT_FALSE(d.LoadState(blob));
}

TEST(CheckpointTest, FingerprintDistinguishesWorkloads) {
  const Workload a = TestWorkload();
  Workload b = TestWorkload();
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  b.AddQuery(OutlierQuery(9.0, 2, 8, 4));
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  Workload c(WindowType::kTime);
  c.AddQuery(a.query(0));
  c.AddQuery(a.query(1));
  c.AddQuery(a.query(2));
  EXPECT_NE(a.Fingerprint(), c.Fingerprint());
}

}  // namespace
}  // namespace sop
