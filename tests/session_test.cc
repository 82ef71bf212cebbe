// Tests for SopSession: dynamic query registration/removal over a live
// stream with history replay.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/frame.h"
#include "sop/common/random.h"
#include "sop/common/serialize.h"
#include "sop/core/session.h"
#include "sop/detector/factory.h"
#include "test_util.h"

namespace sop {
namespace {

std::vector<Point> SessionStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  for (Seq s = 0; s < n; ++s) {
    const double v = rng.Bernoulli(0.15) ? rng.UniformDouble(0, 40)
                                         : rng.Normal(12, 1.0);
    points.emplace_back(s, s, std::vector<double>{v});
  }
  return points;
}

// Drives a session over batches of `span` points; collects results per
// query id.
std::map<QueryId, std::vector<SessionResult>> Drive(
    SopSession* session, const std::vector<Point>& points, int64_t span,
    int64_t from_batch, int64_t to_batch) {
  std::map<QueryId, std::vector<SessionResult>> out;
  for (int64_t b = from_batch; b < to_batch; ++b) {
    std::vector<Point> batch(
        points.begin() + static_cast<size_t>(b * span),
        points.begin() + static_cast<size_t>((b + 1) * span));
    for (SessionResult& r : session->Advance(std::move(batch),
                                             (b + 1) * span)) {
      out[r.query_id].push_back(std::move(r));
    }
  }
  return out;
}

TEST(SopSessionTest, StaticWorkloadMatchesOracle) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  w.AddQuery(OutlierQuery(3.0, 4, 24, 8));
  const std::vector<Point> points = SessionStream(96, 5);

  SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
  const QueryId q0 = session.AddQuery(w.query(0));
  const QueryId q1 = session.AddQuery(w.query(1));
  auto by_id = Drive(&session, points, 4, 0, 24);

  const std::vector<QueryResult> expected =
      testing::ExpectedResults(w, points);
  std::map<QueryId, std::vector<const QueryResult*>> expected_by_id;
  for (const QueryResult& r : expected) {
    expected_by_id[r.query_index == 0 ? q0 : q1].push_back(&r);
  }
  for (const auto& [id, results] : by_id) {
    const auto& exp = expected_by_id[id];
    ASSERT_EQ(results.size(), exp.size());
    for (size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].boundary, exp[i]->boundary);
      EXPECT_EQ(results[i].outliers, exp[i]->outliers);
    }
  }
}

TEST(SopSessionTest, AddedQuerySeesReplayedHistory) {
  // Register q1 only after half the stream; thanks to replay its first
  // emission must equal what a from-the-start run would produce.
  const std::vector<Point> points = SessionStream(96, 7);
  const OutlierQuery q_initial(1.5, 2, 16, 4);
  const OutlierQuery q_late(2.5, 3, 32, 8);

  SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
  session.AddQuery(q_initial);
  Drive(&session, points, 4, 0, 12);  // first 48 points
  const QueryId late_id = session.AddQuery(q_late);
  auto by_id = Drive(&session, points, 4, 12, 24);

  Workload full(WindowType::kCount);
  full.AddQuery(q_initial);
  full.AddQuery(q_late);
  const std::vector<QueryResult> expected =
      testing::ExpectedResults(full, points);
  std::vector<const QueryResult*> late_expected;
  for (const QueryResult& r : expected) {
    if (r.query_index == 1 && r.boundary > 48) late_expected.push_back(&r);
  }
  const auto& late_results = by_id[late_id];
  ASSERT_EQ(late_results.size(), late_expected.size());
  for (size_t i = 0; i < late_results.size(); ++i) {
    EXPECT_EQ(late_results[i].boundary, late_expected[i]->boundary);
    EXPECT_EQ(late_results[i].outliers, late_expected[i]->outliers)
        << "late query emission " << i;
  }
}

TEST(SopSessionTest, RemovedQueryStopsEmitting) {
  const std::vector<Point> points = SessionStream(64, 9);
  SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
  const QueryId keep = session.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  const QueryId gone = session.AddQuery(OutlierQuery(2.0, 3, 16, 4));
  auto first = Drive(&session, points, 4, 0, 8);
  EXPECT_TRUE(first.count(gone));
  ASSERT_TRUE(session.RemoveQuery(gone));
  EXPECT_FALSE(session.RemoveQuery(gone));  // already removed
  auto second = Drive(&session, points, 4, 8, 16);
  EXPECT_FALSE(second.count(gone));
  EXPECT_TRUE(second.count(keep));
  EXPECT_EQ(session.num_queries(), 1u);
}

TEST(SopSessionTest, EmptySessionEmitsNothingButRetainsHistory) {
  const std::vector<Point> points = SessionStream(64, 11);
  SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
  // No queries for the first half.
  auto early = Drive(&session, points, 4, 0, 8);
  EXPECT_TRUE(early.empty());
  // A query added now still sees the retained history.
  const QueryId id = session.AddQuery(OutlierQuery(1.5, 2, 24, 4));
  auto late = Drive(&session, points, 4, 8, 9);
  ASSERT_EQ(late[id].size(), 1u);
  // Compare to the from-the-start run.
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.5, 2, 24, 4));
  for (const QueryResult& r : testing::ExpectedResults(w, points)) {
    if (r.boundary == 36) {
      EXPECT_EQ(late[id][0].outliers, r.outliers);
    }
  }
}

TEST(SopSessionTest, RebuildAfterHistoryTrimStartsMidStream) {
  // Regression: once history has been trimmed, a rebuild replays batches
  // whose first point has a non-zero sequence number; the fresh detector
  // must re-base its buffer instead of rejecting the batch.
  const std::vector<Point> points = SessionStream(400, 17);
  SopSession session(WindowType::kCount, Metric::kEuclidean,
                     /*history_window=*/32);
  session.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  Drive(&session, points, 4, 0, 50);  // trims well past seq 0
  // Workload change forces a rebuild from trimmed history.
  const QueryId late = session.AddQuery(OutlierQuery(2.5, 3, 24, 8));
  auto results = Drive(&session, points, 4, 50, 100);
  EXPECT_TRUE(results.count(late));
  // The late query's emissions match a from-scratch run (its window of 24
  // is inside the 32-key retained history).
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.5, 3, 24, 8));
  const std::vector<QueryResult> all_expected =
      testing::ExpectedResults(w, points);
  std::map<int64_t, const QueryResult*> expected;
  for (const QueryResult& r : all_expected) {
    if (r.query_index == 1 && r.boundary > 200) expected[r.boundary] = &r;
  }
  for (const SessionResult& r : results[late]) {
    ASSERT_TRUE(expected.count(r.boundary));
    EXPECT_EQ(r.outliers, expected[r.boundary]->outliers)
        << "boundary " << r.boundary;
  }
}

TEST(SopSessionTest, HistoryTrimmingBoundsMemory) {
  SopSession session(WindowType::kCount, Metric::kEuclidean, 32);
  session.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  const std::vector<Point> points = SessionStream(400, 13);
  Drive(&session, points, 4, 0, 50);
  const size_t mid = session.MemoryBytes();
  Drive(&session, points, 4, 50, 100);
  const size_t end = session.MemoryBytes();
  // Memory stays in the same ballpark instead of growing with the stream.
  EXPECT_LT(end, mid * 3);
}

TEST(SopSessionTest, SinkOverloadMatchesVectorOverload) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.5, 2, 16, 4));
  w.AddQuery(OutlierQuery(3.0, 4, 24, 8));
  const std::vector<Point> points = SessionStream(96, 5);

  SopSession vector_session(WindowType::kCount, Metric::kEuclidean, 64);
  vector_session.AddQuery(w.query(0));
  vector_session.AddQuery(w.query(1));
  SopSession sink_session(WindowType::kCount, Metric::kEuclidean, 64);
  sink_session.AddQuery(w.query(0));
  sink_session.AddQuery(w.query(1));

  for (int64_t b = 0; b < 24; ++b) {
    std::vector<Point> batch(points.begin() + static_cast<size_t>(b * 4),
                             points.begin() + static_cast<size_t>((b + 1) * 4));
    const std::vector<SessionResult> expected =
        vector_session.Advance(batch, (b + 1) * 4);
    std::vector<SessionResult> sunk;
    sink_session.Advance(std::move(batch), (b + 1) * 4,
                         [&](const SessionResult& r) { sunk.push_back(r); });
    ASSERT_EQ(sunk.size(), expected.size()) << "batch " << b;
    for (size_t i = 0; i < sunk.size(); ++i) {
      EXPECT_EQ(sunk[i].query_id, expected[i].query_id);
      EXPECT_EQ(sunk[i].boundary, expected[i].boundary);
      EXPECT_EQ(sunk[i].outliers, expected[i].outliers);
    }
  }
}

// The contract of the overlay path: on the default SopDetector, adding a
// query whose r is an existing layer (k within the envelope) and removing
// any query are overlay swaps — change_stats().replayed_points must not
// move.
TEST(SopSessionTest, OverlayChangesNeverReplayHistory) {
  const std::vector<Point> points = SessionStream(128, 21);
  SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
  const QueryId base = session.AddQuery(OutlierQuery(1.5, 3, 16, 4));
  Drive(&session, points, 4, 0, 12);
  EXPECT_EQ(session.change_stats().rebuilds, 1u);  // the initial compile

  const uint64_t replayed_stat_before =
      session.change_stats().replayed_points;

  // Add at the existing layer with k inside the envelope: overlay-only.
  const QueryId same_layer = session.AddQuery(OutlierQuery(1.5, 2, 8, 4));
  auto mid = Drive(&session, points, 4, 12, 20);
  EXPECT_TRUE(mid.count(same_layer));
  EXPECT_EQ(session.change_stats().replayed_points, replayed_stat_before);
  EXPECT_EQ(session.change_stats().overlay_changes, 1u);

  // Any removal: overlay-only.
  ASSERT_TRUE(session.RemoveQuery(same_layer));
  auto late = Drive(&session, points, 4, 20, 28);
  EXPECT_FALSE(late.count(same_layer));
  EXPECT_TRUE(late.count(base));
  EXPECT_EQ(session.change_stats().replayed_points, replayed_stat_before);
  EXPECT_EQ(session.change_stats().overlay_changes, 2u);
  EXPECT_EQ(session.change_stats().rebuilds, 1u);  // still just the compile
}

// A new r layer (or k beyond the envelope) is NOT overlay-safe — skyband
// pruning may already have discarded the evidence the new layer needs — so
// those adds must be realized as rebuilds, and counted.
TEST(SopSessionTest, BasisGrowthForcesRebuildAndIsCounted) {
  const std::vector<Point> points = SessionStream(128, 23);
  SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
  session.AddQuery(OutlierQuery(1.5, 3, 16, 4));
  Drive(&session, points, 4, 0, 8);
  EXPECT_EQ(session.change_stats().rebuilds, 1u);  // the initial compile

  // New radius: new layer.
  session.AddQuery(OutlierQuery(2.5, 2, 16, 4));
  Drive(&session, points, 4, 8, 16);
  EXPECT_EQ(session.change_stats().rebuilds, 2u);

  // Existing radius but k above the compiled envelope.
  session.AddQuery(OutlierQuery(1.5, 7, 16, 4));
  Drive(&session, points, 4, 16, 24);
  EXPECT_EQ(session.change_stats().rebuilds, 3u);
  EXPECT_GT(session.change_stats().replayed_points, 0u);
  EXPECT_EQ(session.change_stats().overlay_changes, 0u);
}

// Regression for the old Rebuild() boundary dance: an AddQuery landing
// exactly on an emission boundary must not double-advance the in-flight
// batch. Emissions after the change must be bit-identical to a
// from-the-start run — on the default SopDetector path (overlay swap) and
// on a DetectorBuilder hook (rebuild-and-replay) alike.
TEST(SopSessionTest, AddOnEmissionBoundaryEmitsExactlyOnce) {
  const std::vector<Point> points = SessionStream(96, 31);
  const OutlierQuery q_initial(1.5, 3, 16, 4);
  const OutlierQuery q_late(1.5, 2, 16, 4);  // same layer: overlay path

  Workload full(WindowType::kCount);
  full.AddQuery(q_initial);
  full.AddQuery(q_late);
  const std::vector<QueryResult> expected =
      testing::ExpectedResults(full, points);

  for (const bool use_builder : {false, true}) {
    SCOPED_TRACE(use_builder ? "builder (rebuild-and-replay)"
                             : "default (overlay)");
    SopSession session(WindowType::kCount, Metric::kEuclidean, 64);
    if (use_builder) {
      session.SetDetectorBuilder([](const Workload& w) {
        return CreateDetector("naive", w);
      });
    }
    const QueryId initial_id = session.AddQuery(q_initial);
    Drive(&session, points, 4, 0, 12);
    // Boundary 48 is an emission boundary of both queries (win 16, slide
    // 4): the change lands exactly where the old code's replay-to-previous
    // -boundary dance was most suspect.
    const QueryId late_id = session.AddQuery(q_late);
    auto after = Drive(&session, points, 4, 12, 24);

    std::map<int64_t, const QueryResult*> expected_late, expected_initial;
    for (const QueryResult& r : expected) {
      if (r.boundary <= 48) continue;
      (r.query_index == 0 ? expected_initial : expected_late)[r.boundary] =
          &r;
    }
    ASSERT_EQ(after[late_id].size(), expected_late.size());
    for (const SessionResult& r : after[late_id]) {
      ASSERT_TRUE(expected_late.count(r.boundary)) << r.boundary;
      EXPECT_EQ(r.outliers, expected_late[r.boundary]->outliers)
          << "late @ " << r.boundary;
    }
    ASSERT_EQ(after[initial_id].size(), expected_initial.size());
    for (const SessionResult& r : after[initial_id]) {
      ASSERT_TRUE(expected_initial.count(r.boundary)) << r.boundary;
      EXPECT_EQ(r.outliers, expected_initial[r.boundary]->outliers)
          << "initial @ " << r.boundary;
    }
  }
}

// A restored session rebuilds on the elastic basis of its restored
// queries, so a same-layer add within their envelopes is an overlay swap
// after the restart too.
TEST(SopSessionTest, RestoredSessionKeepsOverlayCoverage) {
  const std::vector<Point> points = SessionStream(128, 37);
  SopSession saved(WindowType::kCount, Metric::kEuclidean, 64);
  saved.AddQuery(OutlierQuery(1.5, 3, 16, 4));
  Drive(&saved, points, 4, 0, 12);
  const std::string blob = saved.SaveState();

  SopSession restored(WindowType::kCount, Metric::kEuclidean, 64);
  std::string error;
  ASSERT_TRUE(restored.LoadState(blob, &error)) << error;
  // First batch after restore: the lazy rebuild (+ history replay).
  Drive(&restored, points, 4, 12, 13);
  EXPECT_EQ(restored.change_stats().rebuilds, 1u);
  const uint64_t replayed = restored.change_stats().replayed_points;
  EXPECT_GT(replayed, 0u);

  // Same layer, k inside the restored envelope: still an overlay swap.
  const QueryId added = restored.AddQuery(OutlierQuery(1.5, 2, 8, 4));
  auto results = Drive(&restored, points, 4, 13, 20);
  EXPECT_TRUE(results.count(added));
  EXPECT_EQ(restored.change_stats().overlay_changes, 1u);
  EXPECT_EQ(restored.change_stats().rebuilds, 1u);
  EXPECT_EQ(restored.change_stats().replayed_points, replayed);
}

// The first accepted point fixes the dimensionality, with no query
// registered too, time windows refuse a time regression (ties pass), a
// point below the previous boundary and one at or past its batch's
// boundary, and boundaries must increase. A restored session takes the
// point rules from its retained history and its last boundary.
TEST(SopSessionTest, CheckBatchRulesSurviveRestoreFromHistory) {
  auto at = [](Timestamp t, std::vector<double> v) {
    return Point(0, t, std::move(v));
  };
  auto refusal = [](const SopSession& s, const std::vector<Point>& batch,
                    int64_t boundary, const std::string& reason) {
    return s.CheckBatch(batch, boundary).find(reason) != std::string::npos;
  };
  SopSession session(WindowType::kTime, Metric::kEuclidean, 10);
  EXPECT_TRUE(refusal(session, {at(5, {1.0}), at(5, {1.0, 2.0})}, 10,
                      "dimensions"));
  EXPECT_TRUE(refusal(session, {at(5, {1.0}), at(4, {1.0})}, 10, "below"));
  EXPECT_TRUE(refusal(session, {at(50, {1.0})}, 10, "past its batch's"));
  EXPECT_TRUE(refusal(session, {at(9, {1.0}), at(10, {1.0})}, 10, "past"));
  session.Advance({at(3, {1.0, 1.0}), at(4, {2.0, 2.0})}, 10);
  EXPECT_TRUE(refusal(session, {at(12, {1.0})}, 20, "dimensions"));
  EXPECT_TRUE(refusal(session, {at(3, {1.0, 1.0})}, 20, "below"));
  EXPECT_TRUE(refusal(session, {at(12, {1.0, 1.0})}, 10, "does not advance"));
  EXPECT_TRUE(refusal(session, {at(4, {1.0, 1.0})}, 20,
                      "below the previous boundary 10"));
  EXPECT_EQ(session.CheckBatch({at(10, {1.0, 1.0})}, 20), "");
  EXPECT_DEATH(session.Advance({at(12, {1.0})}, 20), "dimensions");

  // History now holds only the batch ending at 20.
  session.Advance({at(15, {1.0, 1.0})}, 20);
  SopSession restored(WindowType::kTime, Metric::kEuclidean, 10);
  ASSERT_TRUE(restored.LoadState(session.SaveState()));
  EXPECT_EQ(restored.last_boundary(), 20);
  EXPECT_EQ(restored.next_seq(), 3);
  EXPECT_TRUE(refusal(restored, {at(16, {1.0})}, 30, "dimensions"));
  EXPECT_TRUE(refusal(restored, {at(14, {1.0, 1.0})}, 30, "below"));
  EXPECT_TRUE(refusal(restored, {at(15, {1.0, 1.0})}, 20, "does not advance"));
  EXPECT_TRUE(refusal(restored, {at(30, {1.0, 1.0})}, 30, "past"));
  EXPECT_TRUE(refusal(restored, {at(15, {1.0, 1.0})}, 30,
                      "below the previous boundary 20"));
  EXPECT_EQ(restored.CheckBatch({at(20, {1.0, 1.0})}, 30), "");

  // History trimmed to an empty batch: the restored stream starts fresh.
  session.Advance({}, 40);
  SopSession fresh(WindowType::kTime, Metric::kEuclidean, 10);
  ASSERT_TRUE(fresh.LoadState(session.SaveState()));
  EXPECT_EQ(fresh.CheckBatch({at(40, {1.0})}, 50), "");
  EXPECT_TRUE(refusal(fresh, {at(1, {1.0})}, 50,
                      "below the previous boundary 40"));
}

// Only the current state version loads: complete v2 and v3 blobs (an
// empty session: no queries, no headroom, no basis coverage, no history)
// are refused.
TEST(SopSessionTest, RefusesOtherStateVersions) {
  auto header = [](BinaryWriter* w, uint32_t version) {
    w->WriteU32(version);
    w->WriteU32(static_cast<uint32_t>(WindowType::kCount));
    w->WriteU32(static_cast<uint32_t>(Metric::kEuclidean));
    w->WriteI64(32);  // history window
    w->WriteI64(1);   // next query id
  };
  auto headroom_and_coverage = [](BinaryWriter* w) {
    w->WriteBool(false);  // headroom: not elastic,
    w->WriteU64(0);       // no radii,
    w->WriteI64(0);       // no k slack,
    w->WriteI64(0);       // no window floor
    w->WriteU64(0);       // basis snapshot: no layers,
    w->WriteI64(0);       // no k envelope,
    w->WriteI64(0);       // no window
  };
  BinaryWriter v2;
  header(&v2, 2);
  v2.WriteI64(0);          // next seq
  v2.WriteI64(INT64_MIN);  // last boundary
  v2.WriteU64(0);          // queries
  headroom_and_coverage(&v2);
  v2.WriteU64(0);  // history batches
  BinaryWriter v3;
  header(&v3, 3);
  v3.WriteU64(0);  // queries
  headroom_and_coverage(&v3);
  v3.WriteI64(0);          // tail: next seq,
  v3.WriteI64(INT64_MIN);  // last boundary,
  v3.WriteU64(0);          // no batches
  for (const BinaryWriter* blob : {&v2, &v3}) {
    SopSession session(WindowType::kCount, Metric::kEuclidean, 32);
    std::string error;
    EXPECT_FALSE(session.LoadState(WrapFrame(blob->bytes()), &error));
    EXPECT_NE(error.find("unsupported version"), std::string::npos) << error;
  }
}

TEST(SopSessionTest, RejectsInvalidQueries) {
  SopSession session(WindowType::kCount, Metric::kEuclidean, 32);
  EXPECT_DEATH(session.AddQuery(OutlierQuery(0.0, 2, 16, 4)), "r must");
  EXPECT_DEATH(session.AddQuery(OutlierQuery(1.0, 2, 16, 4, /*attrs=*/1)),
               "full attribute space");
}

}  // namespace
}  // namespace sop
