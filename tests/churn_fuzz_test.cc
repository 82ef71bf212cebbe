// Workload-churn fuzz: randomized AddQuery/RemoveQuery/Advance
// interleavings through SopSession, for every factory detector and both
// window types. After every batch the session's emissions must be
// identical to those of a fresh detector compiled from the then-current
// workload and replayed over the full stream — i.e. no workload change may
// leave any trace in the answers, whether the session realized it as an
// overlay swap or as rebuild-and-replay.
//
// Time-bounded; the seed is logged so any failure replays exactly.
// SOP_FUZZ_MS extends the budget (check.sh runs ~2s); SOP_FUZZ_SEED pins
// the seed.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/random.h"
#include "sop/core/session.h"
#include "sop/detector/factory.h"
#include "test_util.h"

namespace sop {
namespace {

// One emission in a form comparable across the session (query ids) and a
// plain detector (workload indices mapped back to ids).
struct Emission {
  QueryId id;
  int64_t boundary;
  std::vector<Seq> outliers;

  bool operator==(const Emission& other) const {
    return id == other.id && boundary == other.boundary &&
           outliers == other.outliers;
  }
};

std::string EmissionToString(const Emission& e) {
  std::string s = "id " + std::to_string(e.id) + " @ " +
                  std::to_string(e.boundary) + ":";
  for (const Seq seq : e.outliers) s += " " + std::to_string(seq);
  return s;
}

// All slides are multiples of kQuantum and every batch advances the
// boundary by exactly kQuantum, so boundaries stay aligned for any mix of
// registered slides (and, for count windows, equal the cumulative count).
constexpr int64_t kQuantum = 8;

OutlierQuery RandomQuery(Rng* rng) {
  static const double kRadii[] = {0.5, 0.8, 1.2, 2.0, 3.0};
  static const int64_t kKs[] = {2, 3, 5, 8};
  OutlierQuery q;
  q.r = kRadii[rng->NextBelow(5)];
  q.k = kKs[rng->NextBelow(4)];
  q.slide = kQuantum * static_cast<int64_t>(1 + rng->NextBelow(2));  // Q, 2Q
  q.win = q.slide * static_cast<int64_t>(2 + rng->NextBelow(3));     // 2..4x
  q.attribute_set = 0;
  return q;
}

// Runs one randomized churn scenario for `name` over `window_type` until
// `deadline`. The oracle is a detector built fresh from the current
// workload at every workload change and replayed over the entire stream so
// far; the session's history window is large enough that its own rebuilds
// replay the same stream, making bit-identical emissions the correct
// expectation for every change path.
void FuzzOne(const std::string& name, WindowType window_type, Rng* rng,
             std::chrono::steady_clock::time_point deadline,
             uint64_t seed) {
  const std::string label =
      name + (window_type == WindowType::kCount ? "/count" : "/time");
  SCOPED_TRACE("detector " + label + " seed " + std::to_string(seed));

  SopSession session(window_type, Metric::kEuclidean,
                     /*history_window=*/1 << 20);
  if (name != "sop") {
    session.SetDetectorBuilder([name](const Workload& w) {
      return CreateDetector(name, w);
    });
  }

  std::map<QueryId, OutlierQuery> registered;  // mirrors the session's view
  struct Batch {
    std::vector<Point> points;
    int64_t boundary;
  };
  std::vector<Batch> stream;  // every batch advanced so far, seqs assigned
  std::unique_ptr<OutlierDetector> oracle;
  std::vector<QueryId> oracle_ids;  // oracle workload index -> query id
  bool oracle_stale = true;
  int64_t boundary = 0;
  Seq next_seq = 0;

  auto current_workload = [&]() {
    Workload w(window_type);
    for (const auto& [id, q] : registered) w.AddQuery(q);
    return w;
  };

  auto rebuild_oracle = [&]() {
    oracle.reset();
    oracle_ids.clear();
    if (registered.empty()) return;
    const Workload w = current_workload();
    oracle = CreateDetector(name, w);
    for (const auto& [id, q] : registered) oracle_ids.push_back(id);
    for (const Batch& b : stream) {
      oracle->Advance(b.points, b.boundary);  // discard pre-live emissions
    }
  };

  while (std::chrono::steady_clock::now() < deadline) {
    const uint64_t op = rng->NextBelow(4);
    if (op == 0 && registered.size() < 6) {
      const OutlierQuery q = RandomQuery(rng);
      const QueryId id = session.AddQuery(q);
      registered.emplace(id, q);
      oracle_stale = true;
    } else if (op == 1 && !registered.empty()) {
      auto it = registered.begin();
      std::advance(it, static_cast<int64_t>(rng->NextBelow(
                           registered.size())));
      ASSERT_TRUE(session.RemoveQuery(it->first));
      registered.erase(it);
      oracle_stale = true;
    } else {
      // Advance one batch. Count windows need exactly kQuantum points per
      // quantum (boundary = cumulative count); time windows take any size,
      // empty included.
      const size_t n = window_type == WindowType::kCount
                           ? static_cast<size_t>(kQuantum)
                           : static_cast<size_t>(rng->NextBelow(12));
      boundary += kQuantum;
      std::vector<Point> batch;
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Timestamp t = boundary - kQuantum +
                            static_cast<Timestamp>(rng->NextBelow(
                                static_cast<uint64_t>(kQuantum)));
        batch.emplace_back(0, t,
                           std::vector<double>{rng->UniformDouble(0.0, 8.0)});
      }
      if (window_type == WindowType::kTime) {
        std::sort(batch.begin(), batch.end(),
                  [](const Point& a, const Point& b) {
                    return a.time < b.time;
                  });
      }
      // Arrival order fixes the seqs (the session assigns the same values).
      for (Point& p : batch) p.seq = next_seq++;

      const std::vector<SessionResult> actual_raw =
          session.Advance(batch, boundary);

      if (oracle_stale) {
        rebuild_oracle();
        oracle_stale = false;
      }
      std::vector<Emission> expected;
      if (oracle != nullptr) {
        for (const QueryResult& r : oracle->Advance(batch, boundary)) {
          expected.push_back(
              {oracle_ids[r.query_index], r.boundary, r.outliers});
        }
      }
      stream.push_back({std::move(batch), boundary});

      std::vector<Emission> actual;
      for (const SessionResult& r : actual_raw) {
        actual.push_back({r.query_id, r.boundary, r.outliers});
      }
      ASSERT_EQ(expected.size(), actual.size())
          << label << ": emission count @ " << boundary;
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(expected[i], actual[i])
            << label << " emission " << i << "\n  expected "
            << EmissionToString(expected[i]) << "\n  actual   "
            << EmissionToString(actual[i]);
      }
    }
  }
}

TEST(ChurnFuzzTest, SessionMatchesFreshDetectorUnderChurn) {
  const testing::FuzzParams fuzz =
      testing::AnnouncedFuzzParams("session churn", 400);
  const uint64_t seed = fuzz.seed;
  const int64_t budget_ms = fuzz.budget_ms;

  const std::vector<std::string>& names = KnownDetectorNames();
  const WindowType window_types[] = {WindowType::kCount, WindowType::kTime};
  const int64_t slice_ms =
      std::max<int64_t>(1, budget_ms / (static_cast<int64_t>(names.size()) *
                                        2));
  Rng rng(seed);
  for (const std::string& name : names) {
    for (const WindowType window_type : window_types) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(slice_ms);
      FuzzOne(name, window_type, &rng, deadline, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sop
