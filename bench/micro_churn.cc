// micro_churn: subscribe/unsubscribe cost under the session's two
// workload-change paths — overlay swap vs rebuild-and-replay.
//
// Both configurations run the identical stream, base workload and churn
// schedule (one query removed + re-registered every few batches) through
// SopSession; the only difference is how changes are realized:
//
//   overlay   the default in-process SopDetector path: on the session's
//             elastic basis every churn is an in-place overlay swap — no
//             detector rebuild, no history replay;
//   rebuild   a DetectorBuilder hook around the same SOP algorithm: every
//             churn recompiles the detector and replays the retained
//             history.
//
// Both configurations assign the same query ids, and every emission (query
// id, boundary and outlier seqs) is asserted equal, so the latency columns
// compare the same answers; the bench exits nonzero otherwise. Output: a
// table, RESULT lines, and BENCH_churn.json.
//
//   RESULT bench=micro_churn config=... churns=... churn_mean_ms=...
//          churn_max_ms=... steady_mean_ms=... replayed_points=...

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "figure.h"
#include "sop/core/session.h"
#include "sop/detector/factory.h"
#include "sop/gen/synthetic.h"

namespace sop {
namespace {

constexpr int64_t kBatch = 400;

Workload BaseWorkload() {
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(400.0, 10, 4000, kBatch));
  w.AddQuery(OutlierQuery(700.0, 20, 3200, kBatch));
  w.AddQuery(OutlierQuery(900.0, 30, 2400, kBatch * 2));
  return w;
}

struct Outcome {
  uint64_t batches = 0;
  std::vector<SessionResult> emissions;
  uint64_t churns = 0;
  double steady_mean_ms = 0.0;
  double churn_mean_ms = 0.0;
  double churn_max_ms = 0.0;
  uint64_t overlay_changes = 0;
  uint64_t rebuilds = 0;
  uint64_t replayed_points = 0;
};

Outcome RunConfig(const std::string& config,
                  const std::vector<Point>& points, int64_t churn_every) {
  using Clock = std::chrono::steady_clock;
  const Workload base = BaseWorkload();

  SopSession session(WindowType::kCount, Metric::kEuclidean,
                     base.MaxWindow());
  if (config == "rebuild") {
    // An opaque builder, so every change rebuilds and replays.
    session.SetDetectorBuilder([](const Workload& w) {
      return CreateDetector("sop", w);
    });
  }
  std::vector<QueryId> ids;
  for (const OutlierQuery& q : base.queries()) {
    ids.push_back(session.AddQuery(q));
  }

  Outcome out;
  double steady_ms = 0.0, churn_ms = 0.0;
  uint64_t steady_batches = 0, churn_batches = 0;
  bool churn_pending = false;
  int64_t boundary = 0;
  for (size_t start = 0; start + static_cast<size_t>(kBatch) <= points.size();
       start += static_cast<size_t>(kBatch)) {
    boundary += kBatch;
    std::vector<Point> batch(
        points.begin() + static_cast<ptrdiff_t>(start),
        points.begin() + static_cast<ptrdiff_t>(start) +
            static_cast<ptrdiff_t>(kBatch));
    const auto t0 = Clock::now();
    std::vector<SessionResult> results =
        session.Advance(std::move(batch), boundary);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (churn_pending) {
      churn_ms += ms;
      out.churn_max_ms = std::max(out.churn_max_ms, ms);
      ++churn_batches;
      churn_pending = false;
    } else {
      steady_ms += ms;
      ++steady_batches;
    }
    ++out.batches;
    for (SessionResult& r : results) out.emissions.push_back(std::move(r));
    if (out.batches % static_cast<uint64_t>(churn_every) == 0) {
      const size_t j = static_cast<size_t>(out.churns % ids.size());
      session.RemoveQuery(ids[j]);
      ids[j] = session.AddQuery(base.query(j));
      ++out.churns;
      churn_pending = true;  // realized by the next Advance
    }
  }
  out.steady_mean_ms = steady_batches > 0 ? steady_ms / steady_batches : 0.0;
  out.churn_mean_ms = churn_batches > 0 ? churn_ms / churn_batches : 0.0;
  out.overlay_changes = session.change_stats().overlay_changes;
  out.rebuilds = session.change_stats().rebuilds;
  out.replayed_points = session.change_stats().replayed_points;
  return out;
}

// Index of the first emission where `a` and `b` differ in query id,
// boundary or outlier seqs, or the shorter length when one is a prefix of
// the other; -1 when they are equal.
int64_t FirstDifference(const std::vector<SessionResult>& a,
                        const std::vector<SessionResult>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i].query_id != b[i].query_id || a[i].boundary != b[i].boundary ||
        a[i].outliers != b[i].outliers) {
      return static_cast<int64_t>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<int64_t>(n);
}

}  // namespace
}  // namespace sop

int main() {
  using namespace sop;

  const int64_t n = bench::FastMode() ? 8000 : 40000;
  const int64_t churn_every = 5;
  gen::SyntheticOptions options;
  options.seed = 20160626;
  const std::vector<Point> points = gen::GenerateSynthetic(n, options);

  std::printf("micro_churn: workload churn, overlay swap vs "
              "rebuild-and-replay (%lld points, churn every %lld batches)\n",
              static_cast<long long>(n),
              static_cast<long long>(churn_every));
  std::printf("%-8s %8s %10s %14s %13s %12s %10s\n", "config", "churns",
              "steady_ms", "churn_mean_ms", "churn_max_ms", "replayed_pts",
              "emissions");

  std::string json = "{\n  \"bench\": \"micro_churn\",\n  \"configs\": [\n";
  std::vector<SessionResult> emissions[2];
  const char* configs[2] = {"overlay", "rebuild"};
  for (int c = 0; c < 2; ++c) {
    Outcome out = RunConfig(configs[c], points, churn_every);
    std::printf("%-8s %8llu %10.3f %14.3f %13.3f %12llu %10llu\n",
                configs[c], static_cast<unsigned long long>(out.churns),
                out.steady_mean_ms, out.churn_mean_ms, out.churn_max_ms,
                static_cast<unsigned long long>(out.replayed_points),
                static_cast<unsigned long long>(out.emissions.size()));
    std::printf("RESULT bench=micro_churn config=%s churns=%llu "
                "churn_mean_ms=%.3f churn_max_ms=%.3f steady_mean_ms=%.3f "
                "overlay_changes=%llu rebuilds=%llu replayed_points=%llu\n",
                configs[c], static_cast<unsigned long long>(out.churns),
                out.churn_mean_ms, out.churn_max_ms, out.steady_mean_ms,
                static_cast<unsigned long long>(out.overlay_changes),
                static_cast<unsigned long long>(out.rebuilds),
                static_cast<unsigned long long>(out.replayed_points));
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"config\": \"%s\", \"churns\": %llu, "
                  "\"churn_mean_ms\": %.3f, \"churn_max_ms\": %.3f, "
                  "\"steady_mean_ms\": %.3f, \"overlay_changes\": %llu, "
                  "\"rebuilds\": %llu, \"replayed_points\": %llu, "
                  "\"emissions\": %llu}%s\n",
                  configs[c], static_cast<unsigned long long>(out.churns),
                  out.churn_mean_ms, out.churn_max_ms, out.steady_mean_ms,
                  static_cast<unsigned long long>(out.overlay_changes),
                  static_cast<unsigned long long>(out.rebuilds),
                  static_cast<unsigned long long>(out.replayed_points),
                  static_cast<unsigned long long>(out.emissions.size()),
                  c == 0 ? "," : "");
    json += buf;
    emissions[c] = std::move(out.emissions);
  }
  json += "  ]\n}\n";

  const int64_t diff = FirstDifference(emissions[0], emissions[1]);
  if (diff >= 0) {
    std::fprintf(stderr,
                 "FAIL: emission %lld differs (overlay %zu emissions, "
                 "rebuild %zu) — the two paths must answer identically\n",
                 static_cast<long long>(diff), emissions[0].size(),
                 emissions[1].size());
    return 1;
  }

  std::ofstream out("BENCH_churn.json", std::ios::binary);
  if (!out || !(out << json) || !out.flush()) {
    std::fprintf(stderr, "cannot write BENCH_churn.json\n");
    return 1;
  }
  std::fprintf(stderr, "wrote BENCH_churn.json\n");
  return 0;
}
