// Shared helpers for the libsop test suite.
//
// The centerpiece is ExpectedResults(): an independent reimplementation of
// the normative window/emission semantics (DESIGN.md Sec. 2) plus brute-
// force neighbor counting, used as the oracle every detector — including
// NaiveDetector — is checked against.

#ifndef SOP_TESTS_TEST_UTIL_H_
#define SOP_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/point.h"
#include "sop/core/lsky.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/detector.h"
#include "sop/detector/engine.h"
#include "sop/query/workload.h"
#include "sop/stream/window.h"

namespace sop {
namespace testing {

/// Builds a 1-D point list from values; timestamps default to 0,1,2,...
inline std::vector<Point> Points1D(const std::vector<double>& values) {
  std::vector<Point> points;
  points.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    points.emplace_back(static_cast<Seq>(i), static_cast<Timestamp>(i),
                        std::vector<double>{values[i]});
  }
  return points;
}

/// Builds a 1-D point list with explicit timestamps.
inline std::vector<Point> Points1D(const std::vector<Timestamp>& times,
                                   const std::vector<double>& values) {
  std::vector<Point> points;
  points.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    points.emplace_back(static_cast<Seq>(i), times[i],
                        std::vector<double>{values[i]});
  }
  return points;
}

/// Counts p's known neighbours within layer `max_layer` inside the window
/// starting at `min_key`, read off p's evidence `sky`: every succeeding
/// count (they lie in every window that holds p) plus the preceding
/// entries with key >= min_key. Stops counting at `stop_at` (pass the
/// query's k). Valid only for a window that holds p. This is the
/// generalized Lemma-3 status test; see core/ksky.h for why it is exact.
inline int64_t CountWithin(const LSky& sky, int32_t max_layer,
                           int64_t min_key, int64_t stop_at) {
  int64_t count = 0;
  for (const LayerCount& c : sky.succ()) {
    if (c.layer > max_layer) break;
    count += c.count;
  }
  for (const SkybandEntry& e : sky.entries()) {
    if (count >= stop_at) break;
    if (e.key < min_key) break;  // older than the window: prefix ends
    if (e.layer <= max_layer) ++count;
  }
  return std::min(count, stop_at);
}

/// One-line rendering of a QueryResult for failure messages.
inline std::string ResultToString(const QueryResult& r) {
  std::ostringstream out;
  out << "q" << r.query_index << "@" << r.boundary << ":{";
  for (size_t i = 0; i < r.outliers.size(); ++i) {
    if (i > 0) out << ",";
    out << r.outliers[i];
  }
  out << "}";
  return out.str();
}

/// Independent oracle: replays the normative batching/emission schedule
/// over `points` (seqs are reassigned 0..n-1) and computes each emission's
/// outliers by brute force.
std::vector<QueryResult> ExpectedResults(const Workload& workload,
                                         std::vector<Point> points);

/// Asserts two result lists are identical (order, boundaries, outliers).
inline void ExpectSameResults(const std::vector<QueryResult>& expected,
                              const std::vector<QueryResult>& actual,
                              const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label << ": emission count";
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].query_index, actual[i].query_index)
        << label << " emission " << i;
    EXPECT_EQ(expected[i].boundary, actual[i].boundary)
        << label << " emission " << i;
    EXPECT_EQ(expected[i].outliers, actual[i].outliers)
        << label << " emission " << i << "\n  expected "
        << ResultToString(expected[i]) << "\n  actual   "
        << ResultToString(actual[i]);
  }
}

/// Parameters for a seeded fuzz/sweep loop. Every randomized suite in the
/// repo draws its seed and time budget through AnnouncedFuzzParams so the
/// replay contract is uniform: the seed is printed unconditionally (pass
/// or fail), SOP_FUZZ_SEED pins it for replay, SOP_FUZZ_MS stretches the
/// budget (soak runs).
struct FuzzParams {
  uint64_t seed = 0;
  int64_t budget_ms = 0;
};

inline FuzzParams AnnouncedFuzzParams(const char* label,
                                      int64_t default_budget_ms) {
  FuzzParams params;
  const char* seed_env = std::getenv("SOP_FUZZ_SEED");
  params.seed = seed_env != nullptr
                    ? std::strtoull(seed_env, nullptr, 10)
                    : (static_cast<uint64_t>(std::random_device{}()) << 32) ^
                          std::random_device{}();
  const char* ms_env = std::getenv("SOP_FUZZ_MS");
  params.budget_ms =
      ms_env != nullptr ? std::atoll(ms_env) : default_budget_ms;
  std::fprintf(stderr,
               "[ fuzz ] %s seed=%llu budget=%lldms "
               "(replay with SOP_FUZZ_SEED=%llu)\n",
               label, static_cast<unsigned long long>(params.seed),
               static_cast<long long>(params.budget_ms),
               static_cast<unsigned long long>(params.seed));
  return params;
}

/// Runs `detector` over `points` with a fresh engine and collects every
/// result.
inline std::vector<QueryResult> CollectResults(const Workload& workload,
                                               std::vector<Point> points,
                                               OutlierDetector* detector) {
  std::vector<QueryResult> all;
  ExecutionEngine().Run(workload, std::move(points), detector,
                        [&all](const QueryResult& r) { all.push_back(r); });
  return all;
}

/// Runs `detector` over `points` and checks it against the oracle.
inline void ExpectMatchesOracle(const Workload& workload,
                                const std::vector<Point>& points,
                                OutlierDetector* detector,
                                const std::string& label) {
  std::vector<QueryResult> expected = ExpectedResults(workload, points);
  std::vector<QueryResult> actual =
      CollectResults(workload, points, detector);
  ExpectSameResults(expected, actual, label);
}

/// Passes batches through to a SopDetector (not owned) and records the
/// largest scan bound (scans x alive points, over seqs [0, num_points))
/// a batch computed its lane count from.
class ScanBoundProbe : public OutlierDetector {
 public:
  ScanBoundProbe(SopDetector* inner, Seq num_points)
      : inner_(inner), num_points_(num_points) {}

  const char* name() const override { return inner_->name(); }
  size_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  std::vector<QueryResult> Advance(std::vector<Point> batch,
                                   int64_t boundary) override {
    const int64_t scans_before = inner_->stats().ksky_scans;
    std::vector<QueryResult> results =
        inner_->Advance(std::move(batch), boundary);
    int64_t alive = 0;
    for (Seq s = 0; s < num_points_; ++s) {
      alive += inner_->IsAliveForTesting(s) ? 1 : 0;
    }
    max_bound_ = std::max(
        max_bound_, (inner_->stats().ksky_scans - scans_before) * alive);
    return results;
  }

  int64_t max_bound() const { return max_bound_; }

 private:
  SopDetector* inner_;
  Seq num_points_;
  int64_t max_bound_ = 0;
};

}  // namespace testing

// Readable gtest failure messages for evidence (found by ADL).
inline void PrintTo(const LayerCount& c, std::ostream* os) {
  *os << "(layer " << c.layer << ", count " << c.count << ")";
}
inline void PrintTo(const SkybandEntry& e, std::ostream* os) {
  *os << "(seq " << e.seq << ", key " << e.key << ", layer " << e.layer << ")";
}

}  // namespace sop

#endif  // SOP_TESTS_TEST_UTIL_H_
