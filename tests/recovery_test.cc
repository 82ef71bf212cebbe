// Crash-recovery tests for the engine-level run checkpoints
// (detector/run_checkpoint.h): interrupt/restore emission equivalence for
// every registered detector under both window types, one replay tail for
// every detector, the corruption matrix every framed checkpoint must
// reject (crafted counts included), and a seed-logged randomized
// corruption fuzz loop.

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
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/detector/run_checkpoint.h"
#include "sop/io/file_util.h"
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
    if (r.boundary > cp.last_boundary) expected_tail.push_back(r);
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

// Every detector's checkpoint is the same replay tail: at one stream
// position a `sop` run and a `naive` run write identical checkpoints,
// apart from the detector's name.
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
  ASSERT_FALSE(sop_cp.history.empty());
  sop_cp.detector_name = naive_cp.detector_name;
  EXPECT_EQ(SerializeRunCheckpoint(sop_cp), SerializeRunCheckpoint(naive_cp));
}

// Builds one valid serialized checkpoint for the corruption drills.
std::string ValidCheckpointBytes() {
  RunCheckpoint cp;
  cp.workload_fingerprint = 0x1234'5678'9abc'def0ULL;
  cp.detector_name = "mcod";
  cp.window_type = WindowType::kCount;
  cp.batch_span = 4;
  cp.points_advanced = 24;
  cp.batches_advanced = 6;
  cp.last_boundary = 24;
  HistoryBatch b;
  b.boundary = 24;
  for (Seq s = 20; s < 24; ++s) {
    b.points.emplace_back(s, s, std::vector<double>{1.5, -2.5});
  }
  cp.history.push_back(b);
  return SerializeRunCheckpoint(cp);
}

// A CRC-valid checkpoint whose history claims 2^61 batches, or one batch
// of 2^61 points, is refused with a diagnostic: nothing is sized from a
// decoded count, so the decoder runs out of bytes instead of memory.
TEST(RecoveryTest, CraftedHistoryCountsAreRefused) {
  RunCheckpoint cp;
  cp.detector_name = "sop";
  cp.batch_span = 4;
  cp.history.push_back(HistoryBatch{4, {Point(3, 3, {1.0})}});
  std::string_view payload;
  std::string error;
  const std::string bytes = SerializeRunCheckpoint(cp);
  ASSERT_TRUE(UnwrapFrame(bytes, &payload, &error)) << error;

  // The header ahead of the history: magic, version, fingerprint, the
  // length-prefixed name, window type, batch span, three stream-position
  // words, the have_boundary byte and next_boundary. Then the batch count,
  // the first batch's boundary and its point count.
  const size_t num_batches_at =
      4 + 4 + 8 + 8 + cp.detector_name.size() + 4 + 4 * 8 + 1 + 8;
  const size_t num_points_at = num_batches_at + 8 + 8;
  auto u64_at = [&payload](size_t at) {
    uint64_t v = 0;
    std::memcpy(&v, payload.data() + at, sizeof(v));
    return v;
  };
  ASSERT_EQ(u64_at(num_batches_at), 1u);
  ASSERT_EQ(u64_at(num_batches_at + 8), 4u);
  ASSERT_EQ(u64_at(num_points_at), 1u);

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
    EXPECT_NE(error.find("history"), std::string::npos) << error;
  }
}

TEST(RecoveryTest, CorruptionMatrixEveryTruncationRejected) {
  const std::string bytes = ValidCheckpointBytes();
  RunCheckpoint cp;
  std::string error;
  ASSERT_TRUE(DeserializeRunCheckpoint(bytes, &cp, &error)) << error;
  EXPECT_EQ(cp.detector_name, "mcod");
  EXPECT_EQ(cp.history.size(), 1u);
  EXPECT_EQ(cp.history[0].points.size(), 4u);

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
