// Crash-recovery tests for the engine-level run checkpoints
// (detector/run_checkpoint.h): interrupt/restore emission equivalence for
// every registered detector under both window types (an empty replay tail
// included), one replay tail for every detector, the crafted-tail matrix
// every consumer of a stream tail must refuse (run checkpoints, session
// state, server checkpoint files and standby snapshots), the corruption
// matrix every framed checkpoint must reject (crafted counts included),
// and a seed-logged randomized corruption fuzz loop.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/fault.h"
#include "sop/common/frame.h"
#include "sop/common/random.h"
#include "sop/common/serialize.h"
#include "sop/core/session.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/detector/run_checkpoint.h"
#include "sop/io/file_util.h"
#include "sop/net/protocol.h"
#include "sop/net/server.h"
#include "sop/net/socket.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::ExpectSameResults;

Workload CountWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.5, 4, 24, 8));
  w.AddQuery(OutlierQuery(1.5, 3, 8, 4));
  return w;
}

Workload TimeWorkload() {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(1.0, 2, 16, 4));
  w.AddQuery(OutlierQuery(2.5, 4, 24, 8));
  return w;
}

// A stream with a mix of dense inliers and sparse far-out values. For the
// time workload the timestamps advance irregularly (including a burst gap
// that produces empty batch spans).
std::vector<Point> TestStream(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  Timestamp t = 0;
  for (Seq s = 0; s < n; ++s) {
    const double v = rng.Bernoulli(0.2) ? rng.UniformDouble(0, 30)
                                        : rng.Normal(10, 0.8);
    t += rng.Bernoulli(0.05) ? 13 : 1;  // occasional gap spanning batches
    points.emplace_back(s, t, std::vector<double>{v});
  }
  return points;
}

std::vector<QueryResult> RunAll(ExecutionEngine* engine, const Workload& w,
                                const std::vector<Point>& points,
                                OutlierDetector* detector) {
  std::vector<QueryResult> out;
  engine->Run(w, points, detector,
              [&out](const QueryResult& r) { out.push_back(r); });
  return out;
}

// Interrupts a checkpointed run (by truncating the stream mid-batch),
// resumes from the written checkpoint over the full stream, and checks the
// resumed emissions equal the uninterrupted run's tail.
void CheckResumeEquivalence(const std::string& name, const Workload& w,
                            const std::vector<Point>& points,
                            const std::string& checkpoint_path) {
  SCOPED_TRACE(name);
  ExecutionEngine plain;
  std::unique_ptr<OutlierDetector> baseline_detector = CreateDetector(name, w);
  const std::vector<QueryResult> baseline =
      RunAll(&plain, w, points, baseline_detector.get());
  ASSERT_FALSE(baseline.empty());

  ExecOptions ck_options;
  ck_options.checkpoint.path = checkpoint_path;
  ck_options.checkpoint.every_batches = 7;
  ExecutionEngine ck_engine(ck_options);

  // "Crash" two thirds of the way through, mid-batch.
  std::vector<Point> truncated(points.begin(),
                               points.begin() + points.size() * 2 / 3 + 1);
  std::unique_ptr<OutlierDetector> interrupted = CreateDetector(name, w);
  RunAll(&ck_engine, w, truncated, interrupted.get());

  RunCheckpoint cp;
  std::string error;
  ASSERT_TRUE(LoadRunCheckpoint(checkpoint_path, &cp, &error)) << error;
  ASSERT_GT(cp.batches_advanced, 0);

  std::unique_ptr<OutlierDetector> resumed_detector = CreateDetector(name, w);
  VectorSource source(points);
  RunMetrics metrics;
  std::vector<QueryResult> resumed;
  ExecutionEngine resume_engine;
  ASSERT_TRUE(resume_engine.RunResumed(
      w, &source, resumed_detector.get(), cp, &metrics, &error,
      [&resumed](const QueryResult& r) { resumed.push_back(r); }))
      << error;

  std::vector<QueryResult> expected_tail;
  for (const QueryResult& r : baseline) {
    if (r.boundary > cp.tail.last_boundary()) expected_tail.push_back(r);
  }
  ASSERT_FALSE(expected_tail.empty())
      << "checkpoint too late to exercise resume";
  ExpectSameResults(expected_tail, resumed, name + " resume tail");
}

TEST(RecoveryTest, EveryDetectorResumesIdenticallyCountBased) {
  const Workload w = CountWorkload();
  const std::vector<Point> points = TestStream(128, 17);
  const std::string path = ::testing::TempDir() + "/recovery_count.ck";
  for (const std::string& name : KnownDetectorNames()) {
    CheckResumeEquivalence(name, w, points, path);
  }
}

TEST(RecoveryTest, EveryDetectorResumesIdenticallyTimeBased) {
  const Workload w = TimeWorkload();
  const std::vector<Point> points = TestStream(128, 29);
  const std::string path = ::testing::TempDir() + "/recovery_time.ck";
  for (const std::string& name : KnownDetectorNames()) {
    CheckResumeEquivalence(name, w, points, path);
  }
}

// A workload whose largest window is below the slide gcd never reaches
// back past the next boundary: its checkpoints retain no batch, and every
// detector still resumes identically.
TEST(RecoveryTest, EveryDetectorResumesIdenticallyWithAnEmptyTail) {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(1.0, 2, 6, 8));
  w.AddQuery(OutlierQuery(2.5, 3, 4, 8));
  const std::vector<Point> points = TestStream(128, 23);
  const std::string path = ::testing::TempDir() + "/recovery_empty.ck";
  for (const std::string& name : KnownDetectorNames()) {
    CheckResumeEquivalence(name, w, points, path);
  }
  RunCheckpoint cp;
  std::string error;
  ASSERT_TRUE(LoadRunCheckpoint(path, &cp, &error)) << error;
  EXPECT_TRUE(cp.tail.batches().empty());
  EXPECT_EQ(cp.tail.next_seq(), cp.tail.last_boundary());
  EXPECT_GT(cp.tail.next_seq(), 0);
}

TEST(RecoveryTest, ResumeRejectsMismatchedIdentity) {
  const Workload w = CountWorkload();
  const std::vector<Point> points = TestStream(64, 3);
  const std::string path = ::testing::TempDir() + "/recovery_identity.ck";

  ExecOptions options;
  options.checkpoint.path = path;
  options.checkpoint.every_batches = 4;
  ExecutionEngine engine(options);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", w);
  RunAll(&engine, w, points, detector.get());

  RunCheckpoint cp;
  std::string error;
  ASSERT_TRUE(LoadRunCheckpoint(path, &cp, &error)) << error;

  ExecutionEngine plain;
  RunMetrics metrics;

  // Wrong detector.
  std::unique_ptr<OutlierDetector> other = CreateDetector("mcod", w);
  VectorSource s1(points);
  EXPECT_FALSE(plain.RunResumed(w, &s1, other.get(), cp, &metrics, &error));
  EXPECT_NE(error.find("detector"), std::string::npos) << error;

  // Wrong workload.
  Workload w2 = CountWorkload();
  w2.AddQuery(OutlierQuery(9.0, 1, 8, 4));
  std::unique_ptr<OutlierDetector> fresh = CreateDetector("sop", w2);
  VectorSource s2(points);
  EXPECT_FALSE(plain.RunResumed(w2, &s2, fresh.get(), cp, &metrics, &error));
  EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;

  // Stream shorter than the checkpointed position.
  std::vector<Point> shorter(points.begin(), points.begin() + 8);
  std::unique_ptr<OutlierDetector> fresh2 = CreateDetector("sop", w);
  VectorSource s3(shorter);
  EXPECT_FALSE(plain.RunResumed(w, &s3, fresh2.get(), cp, &metrics, &error));
  EXPECT_NE(error.find("source ended"), std::string::npos) << error;
}

// A time-window run resumed against another stream of the same length:
// the skipped prefix is long enough, but the first point after it lies
// below the checkpointed tail's last time. The resume refuses that batch
// with StreamTail::Check's diagnostic instead of aborting in Push.
TEST(RecoveryTest, ResumeRefusesAStreamThatBreaksTheTailsRules) {
  Workload w(WindowType::kTime);
  w.AddQuery(OutlierQuery(300, 10, 2000, 500));
  Rng rng(7);
  std::vector<Point> checkpointed;
  std::vector<Point> other;
  for (Seq i = 0; i < 4000; ++i) {
    const std::vector<double> v{rng.UniformDouble(0, 5000)};
    checkpointed.emplace_back(i, i, v);
    other.emplace_back(i, i / 4, v);
  }
  const std::string path = ::testing::TempDir() + "/recovery_other.ck";
  ExecOptions options;
  options.checkpoint.path = path;
  options.checkpoint.every_batches = 3;
  ExecutionEngine engine(options);
  std::unique_ptr<OutlierDetector> detector = CreateDetector("sop", w);
  RunAll(&engine, w, checkpointed, detector.get());

  RunCheckpoint cp;
  std::string error;
  ASSERT_TRUE(LoadRunCheckpoint(path, &cp, &error)) << error;
  ASSERT_EQ(cp.tail.last_boundary(), 3000);

  ExecutionEngine plain;
  RunMetrics metrics;
  std::unique_ptr<OutlierDetector> fresh = CreateDetector("sop", w);
  VectorSource source(other);
  EXPECT_FALSE(plain.RunResumed(w, &source, fresh.get(), cp, &metrics, &error));
  EXPECT_EQ(error, "resume: point time 750 is below the previous point's 2999");
  EXPECT_EQ(metrics.num_batches, 0);
}

// Every detector's checkpoint is the same replay tail: at one stream
// position a `sop` run and a `naive` run write identical checkpoints,
// apart from the detector's name. The tail holds the W/G - 1 batches a
// window at the next boundary can reach: 24 / 4 - 1 = 5 on CountWorkload.
TEST(RecoveryTest, EveryDetectorCheckpointsTheSameHistory) {
  const Workload w = CountWorkload();
  const std::vector<Point> points = TestStream(100, 41);
  auto checkpoint_of = [&](const std::string& name) {
    const std::string path =
        ::testing::TempDir() + "/recovery_history_" + name + ".ck";
    ExecOptions options;
    options.checkpoint.path = path;
    options.checkpoint.every_batches = 6;
    ExecutionEngine engine(options);
    std::unique_ptr<OutlierDetector> detector = CreateDetector(name, w);
    RunAll(&engine, w, points, detector.get());
    RunCheckpoint cp;
    std::string error;
    EXPECT_TRUE(LoadRunCheckpoint(path, &cp, &error)) << error;
    return cp;
  };
  RunCheckpoint sop_cp = checkpoint_of("sop");
  const RunCheckpoint naive_cp = checkpoint_of("naive");
  EXPECT_EQ(sop_cp.detector_name, "sop");
  EXPECT_EQ(naive_cp.detector_name, "naive");
  EXPECT_EQ(sop_cp.batches_advanced, 24);
  EXPECT_EQ(sop_cp.tail.next_seq(), 96);
  EXPECT_EQ(sop_cp.tail.last_boundary(), 96);
  ASSERT_EQ(sop_cp.tail.batches().size(), 5u);
  EXPECT_EQ(sop_cp.tail.batches().front().boundary, 80);
  EXPECT_EQ(sop_cp.tail.batches().front().points.front().seq, 76);
  sop_cp.detector_name = naive_cp.detector_name;
  EXPECT_EQ(SerializeRunCheckpoint(sop_cp), SerializeRunCheckpoint(naive_cp));
}

// A count-window tail after `batches` batches of 4 two-dimensional points,
// retaining the batches within `reach`.
StreamTail PushedTail(int64_t batches, int64_t reach) {
  StreamTail tail(WindowType::kCount);
  for (int64_t i = 0; i < batches; ++i) {
    std::vector<Point> batch;
    for (int j = 0; j < 4; ++j) {
      batch.emplace_back(0, i * 4 + j, std::vector<double>{1.5, -2.5});
    }
    tail.Push(&batch, (i + 1) * 4, reach);
  }
  return tail;
}

// Builds one valid serialized checkpoint for the corruption drills.
std::string ValidCheckpointBytes() {
  RunCheckpoint cp;
  cp.workload_fingerprint = 0x1234'5678'9abc'def0ULL;
  cp.detector_name = "mcod";
  cp.batch_span = 4;
  cp.batches_advanced = 6;
  cp.tail = PushedTail(6, 4);  // keeps the batch at 24
  return SerializeRunCheckpoint(cp);
}

// A CRC-valid checkpoint whose tail claims 2^61 batches, or one batch of
// 2^61 points, is refused with a diagnostic: nothing is sized from a
// decoded count, so the decoder runs out of bytes instead of memory.
TEST(RecoveryTest, CraftedHistoryCountsAreRefused) {
  RunCheckpoint cp;
  cp.detector_name = "sop";
  cp.batch_span = 4;
  cp.tail = PushedTail(1, 4);
  std::string_view payload;
  std::string error;
  const std::string bytes = SerializeRunCheckpoint(cp);
  ASSERT_TRUE(UnwrapFrame(bytes, &payload, &error)) << error;

  // The header ahead of the tail: magic, version, fingerprint, the
  // length-prefixed name, window type, batch span and batches advanced.
  // Then the tail's next seq, last boundary and batch count, the first
  // batch's boundary and its point count.
  const size_t num_batches_at =
      4 + 4 + 8 + 8 + cp.detector_name.size() + 4 + 8 + 8 + 8 + 8;
  const size_t num_points_at = num_batches_at + 8 + 8;
  auto u64_at = [&payload](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, payload.data() + at, sizeof(v));
    return v;
  };
  ASSERT_EQ(u64_at(num_batches_at), 1u);
  ASSERT_EQ(u64_at(num_batches_at + 8), 4u);
  ASSERT_EQ(u64_at(num_points_at), 4u);

  const uint64_t huge = uint64_t{1} << 61;
  for (const size_t at : {num_batches_at, num_points_at}) {
    std::string patched(payload);
    std::memcpy(patched.data() + at, &huge, sizeof(huge));
    const std::string crafted = WrapFrame(patched);
    RunCheckpoint out;
    error.clear();
    bool accepted = true;
    EXPECT_NO_THROW(accepted = DeserializeRunCheckpoint(crafted, &out, &error))
        << "count at payload offset " << at;
    EXPECT_FALSE(accepted) << "count at payload offset " << at;
    EXPECT_NE(error.find("truncated tail"), std::string::npos) << error;
  }
}

// --- crafted tails -------------------------------------------------------
//
// Each tail below has a valid CRC and breaks one rule of a stream's
// position. Every consumer that decodes a tail refuses it with a
// diagnostic instead of replaying it into a detector's CHECKs: a run
// checkpoint (DeserializeRunCheckpoint, or RunResumed for the rows only the
// engine's batch schedule rules out), session state (LoadState), a
// server's checkpoint file (Start falls back a generation) and a standby's
// kReplSnapshot (a NAK, the session untouched).

struct CraftedTail {
  std::string row;
  WindowType type = WindowType::kCount;
  Seq next_seq = 0;
  int64_t last_boundary = 0;
  std::vector<HistoryBatch> batches;
  // Within the stream rules, so only the engine's batch schedule refuses
  // it.
  bool engine_only = false;
};

// `n` points of `dims` values at times `t0`, `t0` + 1, ...
std::vector<Point> Points(int n, int dims, Timestamp t0) {
  std::vector<Point> points;
  for (int i = 0; i < n; ++i) {
    points.emplace_back(0, t0 + i, std::vector<double>(dims, 1.0));
  }
  return points;
}

std::vector<CraftedTail> CraftedTails() {
  const WindowType count = WindowType::kCount;
  const WindowType time = WindowType::kTime;
  return {
      {"a repeated boundary", count, 8, 8,
       {{8, Points(4, 1, 0)}, {8, Points(4, 1, 4)}}},
      {"two dimensionalities", count, 8, 8,
       {{4, Points(4, 1, 0)}, {8, Points(4, 2, 4)}}},
      {"a time regression", time, 2, 4,
       {{4, {Point(0, 3, {1.0}), Point(0, 2, {1.0})}}}},
      {"a time past its batch's boundary", time, 1, 4,
       {{4, {Point(0, 100, {1.0})}}}},
      {"a time below the previous boundary", time, 2, 8,
       {{4, {Point(0, 1, {1.0})}}, {8, {Point(0, 3, {1.0})}}}},
      {"more points than the next seq", time, 4, 8,
       {{4, Points(4, 1, 0)}, {8, Points(4, 1, 4)}}},
      {"a negative next seq", count, -4, 8, {}},
      {"a batch after the last boundary", time, 8, 4,
       {{4, Points(4, 1, 0)}, {8, Points(4, 1, 4)}}},
      {"a count boundary off the cumulative count", count, 8, 8,
       {{4, Points(4, 1, 0)}, {8, Points(3, 1, 4)}}},
      {"a count tail starting below seq 0", count, 4, 4,
       {{4, Points(6, 1, 0)}}},
      {"a count tail whose last batch ends short of its next seq", count, 8,
       8, {{4, Points(4, 1, 0)}}},
      {"a count-window boundary past the points advanced", count, 8, 100,
       {{96, Points(4, 1, 0)}, {100, Points(4, 1, 4)}}},
      {"a time-window boundary off the span", time, 2, 6,
       {{6, Points(2, 1, 4)}}, /*engine_only=*/true},
      {"a time-window boundary with no next one", time, 0, INT64_MAX - 3, {},
       /*engine_only=*/true},
  };
}

// `t` in StreamTail::Write's layout.
std::string TailBytes(const CraftedTail& t) {
  BinaryWriter w;
  w.WriteI64(t.next_seq);
  w.WriteI64(t.last_boundary);
  w.WriteU64(t.batches.size());
  for (const HistoryBatch& b : t.batches) {
    w.WriteI64(b.boundary);
    w.WriteU64(b.points.size());
    for (const Point& p : b.points) WritePoint(&w, p);
  }
  return w.TakeBytes();
}

// `framed`, whose payload ends in an empty tail, with `t` in its place.
std::string WithTail(const std::string& framed, const CraftedTail& t) {
  const size_t kEmptyTailBytes = 8 + 8 + 8;
  std::string_view payload;
  std::string error;
  EXPECT_TRUE(UnwrapFrame(framed, &payload, &error)) << error;
  EXPECT_GE(payload.size(), kEmptyTailBytes);
  return WrapFrame(std::string(payload.substr(
                       0, payload.size() - kEmptyTailBytes)) +
                   TailBytes(t));
}

const int64_t kHistoryWindow = net::ServerOptions().history_window;

std::string SessionStateWith(const CraftedTail& t) {
  return WithTail(
      SopSession(t.type, Metric::kEuclidean, kHistoryWindow).SaveState(), t);
}

// A session of `type` that has accepted four 1-d points at boundary 4.
std::unique_ptr<SopSession> AdvancedSession(WindowType type) {
  auto session =
      std::make_unique<SopSession>(type, Metric::kEuclidean, kHistoryWindow);
  session->Advance(Points(4, 1, 0), 4);
  return session;
}

TEST(RecoveryTest, CraftedTailsAreRefusedByRunCheckpoints) {
  for (const CraftedTail& t : CraftedTails()) {
    SCOPED_TRACE(t.row);
    const Workload w =
        t.type == WindowType::kCount ? CountWorkload() : TimeWorkload();
    ASSERT_EQ(w.SlideGcd(), 4);
    RunCheckpoint valid;
    valid.workload_fingerprint = w.Fingerprint();
    valid.batch_span = 4;
    valid.batches_advanced = 2;
    valid.tail = StreamTail(t.type);
    const std::string bytes = WithTail(SerializeRunCheckpoint(valid), t);
    RunCheckpoint cp;
    std::string error;
    const bool decoded = DeserializeRunCheckpoint(bytes, &cp, &error);
    EXPECT_EQ(decoded, t.engine_only) << error;
    if (!decoded) {
      EXPECT_NE(error.find("tail"), std::string::npos) << error;
      continue;
    }
    for (const std::string& name : KnownDetectorNames()) {
      cp.detector_name = name;
      std::unique_ptr<OutlierDetector> detector = CreateDetector(name, w);
      VectorSource source(TestStream(128, 5));
      ExecutionEngine engine;
      RunMetrics metrics;
      size_t emitted = 0;
      error.clear();
      EXPECT_FALSE(engine.RunResumed(w, &source, detector.get(), cp,
                                     &metrics, &error,
                                     [&emitted](const QueryResult&) {
                                       ++emitted;
                                     }))
          << name;
      EXPECT_NE(error.find("schedule"), std::string::npos) << name << error;
      EXPECT_EQ(emitted, 0u) << name;
    }
  }
}

TEST(RecoveryTest, CraftedTailsAreRefusedBySessionState) {
  for (const CraftedTail& t : CraftedTails()) {
    if (t.engine_only) continue;
    SCOPED_TRACE(t.row);
    std::unique_ptr<SopSession> session = AdvancedSession(t.type);
    session->AddQuery(OutlierQuery(1.0, 2, 8, 4));
    std::string error;
    EXPECT_FALSE(session->LoadState(SessionStateWith(t), &error));
    EXPECT_NE(error.find("session state: "), std::string::npos) << error;
    EXPECT_NE(error.find("tail"), std::string::npos) << error;
    // Untouched: the stream goes on where it was.
    EXPECT_EQ(session->last_boundary(), 4);
    EXPECT_EQ(session->next_seq(), 4);
    EXPECT_EQ(session->num_queries(), 1u);
    EXPECT_EQ(session->Advance(Points(4, 1, 4), 8).size(), 1u);
  }
}

// A restored tail may sit at any next seq: a batch whose seqs would pass
// the largest one is refused instead of wrapping.
TEST(RecoveryTest, ATailNearTheLastSeqRefusesABatchThatOverflowsIt) {
  const CraftedTail t{"near the last seq", WindowType::kCount,
                      INT64_MAX - 2, INT64_MAX - 2, {}};
  SopSession session(t.type, Metric::kEuclidean, kHistoryWindow);
  std::string error;
  ASSERT_TRUE(session.LoadState(SessionStateWith(t), &error)) << error;
  EXPECT_NE(session.CheckBatch(Points(4, 1, 0), INT64_MAX).find("overflows"),
            std::string::npos);
  EXPECT_EQ(session.CheckBatch(Points(2, 1, 0), INT64_MAX), "");
}

TEST(RecoveryTest, CraftedTailsAreRefusedByServerCheckpointFiles) {
  const std::string path = ::testing::TempDir() + "/recovery_server.ck";
  for (const CraftedTail& t : CraftedTails()) {
    if (t.engine_only) continue;
    SCOPED_TRACE(t.row);
    net::ReplSnapshotMsg older;
    older.state = AdvancedSession(t.type)->SaveState();
    net::ReplSnapshotMsg newest;
    newest.state = SessionStateWith(t);
    std::string error;
    ASSERT_TRUE(io::WriteFileAtomic(io::GenerationPath(path, 1),
                                    net::Encode(older), &error));
    ASSERT_TRUE(
        io::WriteFileAtomic(path, net::Encode(newest), &error));

    net::ServerOptions options;
    options.window_type = t.type;
    options.checkpoint_path = path;
    options.checkpoint_generations = 2;
    net::SopServer server(options);
    ASSERT_TRUE(server.Start(&error)) << error;
    EXPECT_TRUE(server.stats().resumed);
    EXPECT_EQ(server.stats().last_boundary, 4);
    server.Kill();
  }
  std::remove(path.c_str());
  std::remove(io::GenerationPath(path, 1).c_str());
}

// Sends `frame` on `sock` and reads the reply frame's payload.
bool Exchange(const net::Socket& sock, const std::string& frame,
              std::string* reply) {
  std::string error;
  if (!net::SendAll(sock, frame, &error)) return false;
  net::FrameDecoder decoder;
  char buf[4096];
  while (decoder.Next(reply, &error) == net::FrameDecoder::Status::kNeedMore) {
    const int64_t n = net::RecvSome(sock, buf, sizeof buf, &error);
    if (n <= 0) return false;
    decoder.Append(buf, static_cast<size_t>(n));
  }
  return !reply->empty();
}

TEST(RecoveryTest, CraftedTailsAreRefusedByStandbySnapshots) {
  for (const CraftedTail& t : CraftedTails()) {
    if (t.engine_only) continue;
    SCOPED_TRACE(t.row);
    net::ServerOptions options;
    options.window_type = t.type;
    options.standby = true;
    net::SopServer standby(options);
    std::string error;
    ASSERT_TRUE(standby.Start(&error)) << error;
    net::Socket sock = net::ConnectTcp("127.0.0.1", standby.port(), &error);
    ASSERT_TRUE(sock.valid()) << error;

    net::ReplSnapshotMsg snapshot;
    snapshot.state = AdvancedSession(t.type)->SaveState();
    std::string reply;
    net::ReplAckMsg ack;
    ASSERT_TRUE(Exchange(sock, net::Encode(snapshot), &reply));
    ASSERT_TRUE(net::Decode(reply, &ack, &error)) << error;
    EXPECT_FALSE(ack.need_snapshot);
    EXPECT_EQ(ack.boundary, 4);

    snapshot.state = SessionStateWith(t);
    ASSERT_TRUE(Exchange(sock, net::Encode(snapshot), &reply));
    ASSERT_TRUE(net::Decode(reply, &ack, &error)) << error;
    EXPECT_TRUE(ack.need_snapshot);
    EXPECT_EQ(ack.boundary, 4);
    const net::ServerStats stats = standby.stats();
    EXPECT_EQ(stats.repl_snapshots_applied, 1u);
    EXPECT_EQ(stats.protocol_errors, 1u);
    EXPECT_EQ(stats.last_boundary, 4);
    standby.Stop();
  }
}

TEST(RecoveryTest, CorruptionMatrixEveryTruncationRejected) {
  const std::string bytes = ValidCheckpointBytes();
  RunCheckpoint cp;
  std::string error;
  ASSERT_TRUE(DeserializeRunCheckpoint(bytes, &cp, &error)) << error;
  EXPECT_EQ(cp.detector_name, "mcod");
  ASSERT_EQ(cp.tail.batches().size(), 1u);
  EXPECT_EQ(cp.tail.batches()[0].points.size(), 4u);
  EXPECT_EQ(cp.tail.batches()[0].points[0].seq, 20);

  for (size_t len = 0; len < bytes.size(); ++len) {
    error.clear();
    EXPECT_FALSE(
        DeserializeRunCheckpoint(bytes.substr(0, len), &cp, &error))
        << "truncation to " << len << " bytes accepted";
    EXPECT_FALSE(error.empty()) << "no diagnostic at length " << len;
  }
}

TEST(RecoveryTest, CorruptionMatrixEveryBitFlipRejected) {
  const std::string bytes = ValidCheckpointBytes();
  RunCheckpoint cp;
  std::string error;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] ^= static_cast<char>(1 << bit);
      EXPECT_FALSE(DeserializeRunCheckpoint(mutated, &cp, &error))
          << "flip of byte " << byte << " bit " << bit << " accepted";
    }
  }
}

TEST(RecoveryTest, CorruptionMatrixTrailingBytesAndVersionBumpRejected) {
  const std::string bytes = ValidCheckpointBytes();
  RunCheckpoint cp;
  std::string error;
  EXPECT_FALSE(DeserializeRunCheckpoint(bytes + "x", &cp, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;

  // A frame-version bump must be refused even with a consistent CRC: the
  // easiest forgery is re-framing the valid payload with a bad version.
  std::string_view payload;
  ASSERT_TRUE(UnwrapFrame(bytes, &payload, &error)) << error;
  std::string reframed = WrapFrame(payload);
  reframed[4] = static_cast<char>(reframed[4] + 1);  // frame version field
  EXPECT_FALSE(DeserializeRunCheckpoint(reframed, &cp, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(RecoveryTest, InjectedWriteFailureLeavesPreviousCheckpoint) {
  const std::string path = ::testing::TempDir() + "/recovery_inject.ck";
  RunCheckpoint cp;
  cp.detector_name = "first";
  cp.batch_span = 4;
  std::string error;
  ASSERT_TRUE(SaveRunCheckpoint(path, cp, &error)) << error;

  FaultInjector injector(7);
  injector.SetRate(FaultSite::kCheckpointWrite, 1.0);
  ScopedFaultInjection armed(&injector);
  cp.detector_name = "second";
  EXPECT_FALSE(SaveRunCheckpoint(path, cp, &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;

  RunCheckpoint reloaded;
  // Reads also consult the injector; only writes were armed.
  ASSERT_TRUE(LoadRunCheckpoint(path, &reloaded, &error)) << error;
  EXPECT_EQ(reloaded.detector_name, "first");
}

TEST(RecoveryTest, InjectedByteCorruptionIsCaughtOnLoad) {
  const std::string path = ::testing::TempDir() + "/recovery_corrupt.ck";
  RunCheckpoint cp;
  cp.detector_name = "sop";
  cp.batch_span = 4;
  std::string error;

  FaultInjector injector(11);
  injector.SetRate(FaultSite::kCheckpointBytes, 1.0);
  {
    ScopedFaultInjection armed(&injector);
    ASSERT_TRUE(SaveRunCheckpoint(path, cp, &error)) << error;
  }
  RunCheckpoint reloaded;
  EXPECT_FALSE(LoadRunCheckpoint(path, &reloaded, &error));
  EXPECT_FALSE(error.empty());

  FaultInjector read_injector(13);
  read_injector.SetRate(FaultSite::kCheckpointRead, 1.0);
  ScopedFaultInjection armed(&read_injector);
  EXPECT_FALSE(LoadRunCheckpoint(path, &reloaded, &error));
  EXPECT_NE(error.find("injected"), std::string::npos) << error;
}

// Generation retention: with generations > 1 every save rotates the
// previous files one slot older, and restore walks newest-to-oldest past
// anything the corruption matrix can do to the newer generations.
TEST(RecoveryTest, GenerationFallbackSurvivesCorruptNewest) {
  const std::string path = ::testing::TempDir() + "/recovery_gen.ck";
  for (int g = 0; g < 4; ++g) {
    std::remove(io::GenerationPath(path, g).c_str());
  }

  RunCheckpoint cp;
  cp.batch_span = 4;
  std::string error;
  cp.detector_name = "gen-a";
  ASSERT_TRUE(SaveRunCheckpoint(path, cp, &error, 3)) << error;
  cp.detector_name = "gen-b";
  ASSERT_TRUE(SaveRunCheckpoint(path, cp, &error, 3)) << error;
  cp.detector_name = "gen-c";
  ASSERT_TRUE(SaveRunCheckpoint(path, cp, &error, 3)) << error;

  RunCheckpoint out;
  int gen = -1;
  ASSERT_TRUE(LoadRunCheckpoint(path, &out, &error, 3, &gen)) << error;
  EXPECT_EQ(gen, 0);
  EXPECT_EQ(out.detector_name, "gen-c");

  std::string newest;
  ASSERT_TRUE(io::ReadFileToString(path, &newest, &error)) << error;

  // Truncation/bit-flip matrix on the newest generation (the recovery_test
  // corruption drill, now against fallback): every mutant must be rejected
  // AND restore must land on generation 1, never fail outright.
  for (size_t len = 0; len < newest.size(); len += 7) {
    ASSERT_TRUE(io::WriteFileAtomic(path, newest.substr(0, len), &error));
    int g = -1;
    ASSERT_TRUE(LoadRunCheckpoint(path, &out, &error, 3, &g))
        << "truncation to " << len << ": " << error;
    EXPECT_EQ(g, 1) << "truncation to " << len;
    EXPECT_EQ(out.detector_name, "gen-b");
  }
  for (size_t bit = 0; bit < newest.size() * 8; bit += 11) {
    std::string mutated = newest;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    ASSERT_TRUE(io::WriteFileAtomic(path, mutated, &error));
    int g = -1;
    ASSERT_TRUE(LoadRunCheckpoint(path, &out, &error, 3, &g))
        << "bit flip " << bit << ": " << error;
    EXPECT_EQ(g, 1) << "bit flip " << bit;
    EXPECT_EQ(out.detector_name, "gen-b");
  }

  // Crash between rotation and publish: the newest slot is simply missing.
  ASSERT_EQ(std::remove(path.c_str()), 0);
  gen = -1;
  ASSERT_TRUE(LoadRunCheckpoint(path, &out, &error, 3, &gen)) << error;
  EXPECT_EQ(gen, 1);
  EXPECT_EQ(out.detector_name, "gen-b");

  // An injected read failure on the newest slot behaves like corruption:
  // the next generation answers (bounded to one failure so it does).
  ASSERT_TRUE(io::WriteFileAtomic(path, newest, &error)) << error;
  {
    FaultInjector injector(5);
    injector.SetRate(FaultSite::kCheckpointRead, 1.0);
    injector.SetMaxFailures(FaultSite::kCheckpointRead, 1);
    ScopedFaultInjection armed(&injector);
    int g = -1;
    ASSERT_TRUE(LoadRunCheckpoint(path, &out, &error, 3, &g)) << error;
    EXPECT_EQ(g, 1);
    EXPECT_EQ(out.detector_name, "gen-b");
  }

  // Two corrupt generations fall through to the third...
  ASSERT_TRUE(io::WriteFileAtomic(path, "garbage", &error));
  ASSERT_TRUE(
      io::WriteFileAtomic(io::GenerationPath(path, 1), "junk", &error));
  gen = -1;
  ASSERT_TRUE(LoadRunCheckpoint(path, &out, &error, 3, &gen)) << error;
  EXPECT_EQ(gen, 2);
  EXPECT_EQ(out.detector_name, "gen-a");

  // ...and with every generation gone, restore fails with one diagnostic
  // per slot tried.
  ASSERT_TRUE(
      io::WriteFileAtomic(io::GenerationPath(path, 2), "zip", &error));
  EXPECT_FALSE(LoadRunCheckpoint(path, &out, &error, 3));
  EXPECT_NE(error.find(path + ":"), std::string::npos) << error;
  EXPECT_NE(error.find(path + ".1:"), std::string::npos) << error;
  EXPECT_NE(error.find(path + ".2:"), std::string::npos) << error;
}

// Randomized corruption fuzz: mutate a valid checkpoint (bit flips,
// truncations, splices) and feed pure garbage; the deserializer must
// reject everything without crashing. Time-bounded; the seed is logged so
// any failure replays exactly. SOP_FUZZ_MS extends the budget (check.sh
// runs ~2s); SOP_FUZZ_SEED pins the seed.
TEST(RecoveryTest, CorruptionFuzzNeverCrashesOrAccepts) {
  const testing::FuzzParams fuzz =
      testing::AnnouncedFuzzParams("checkpoint corruption", 200);
  const uint64_t seed = fuzz.seed;
  const int64_t budget_ms = fuzz.budget_ms;

  const std::string valid = ValidCheckpointBytes();
  Rng rng(seed);
  RunCheckpoint cp;
  std::string error;
  uint64_t iterations = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int burst = 0; burst < 64; ++burst, ++iterations) {
      std::string mutated;
      const uint64_t kind = rng.NextBelow(4);
      if (kind == 0) {
        // Bit flips (1..8) over the valid bytes.
        mutated = valid;
        const uint64_t flips = 1 + rng.NextBelow(8);
        for (uint64_t f = 0; f < flips; ++f) {
          const uint64_t bit = rng.NextBelow(mutated.size() * 8);
          mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
        }
      } else if (kind == 1) {
        mutated = valid.substr(0, rng.NextBelow(valid.size()));
      } else if (kind == 2) {
        // Splice a random chunk of garbage into the middle.
        mutated = valid;
        const uint64_t at = rng.NextBelow(mutated.size());
        const uint64_t len = 1 + rng.NextBelow(32);
        for (uint64_t j = 0; j < len; ++j) {
          mutated.insert(mutated.begin() + static_cast<int64_t>(at),
                         static_cast<char>(rng.NextBelow(256)));
        }
      } else {
        // Pure garbage of arbitrary size.
        const uint64_t len = rng.NextBelow(valid.size() * 2 + 1);
        mutated.resize(len);
        for (char& c : mutated) c = static_cast<char>(rng.NextBelow(256));
      }
      // Flips can cancel (same bit twice); only genuine mutants must fail.
      if (mutated == valid) continue;
      error.clear();
      ASSERT_FALSE(DeserializeRunCheckpoint(mutated, &cp, &error))
          << "accepted a mutated checkpoint (seed " << seed << ", iteration "
          << iterations << ")";
      ASSERT_FALSE(error.empty());
    }
  }
  std::fprintf(stderr, "[ fuzz ] %llu corrupt inputs rejected\n",
               static_cast<unsigned long long>(iterations));
}

}  // namespace
}  // namespace sop
