// sop_cli: run a multi-query outlier workload over a stream from the
// command line.
//
// Usage:
//   sop_cli --workload spec.txt (--data points.csv | --synthetic N | --stt N)
//           [--detector NAME[,NAME...]] [--threads N] [--metrics-out PATH]
//           [--print-outliers] [--aggregate] [--max-print N] [--seed S]
//           [--on-bad-record fail|skip|clamp] [--quarantine PATH]
//           [--checkpoint PATH] [--checkpoint-every N] [--resume-from PATH]
//           [--queue N] [--overload block|drop-oldest]
//           [--churn-every N] [--kernel scalar|avx2|auto]
//           [--fault-rate SITE=RATE[,...]] [--fault-seed S] [--fault-max N]
//
// The workload spec format is documented in sop/io/workload_parser.h and
// detector names in sop/detector/factory.h. --detector takes a
// comma-separated list; every named detector runs over the identical
// stream in turn (the stream is materialized once), which is how
// side-by-side counter comparisons are made. Prints run metrics (the
// paper's CPU/MEM measures plus per-batch latency percentiles) and,
// optionally, every emission's outliers. --threads N > 1 fans partitioned
// detectors (multi-attribute workloads, grouped-sop) out across a worker
// pool; 0 means one thread per hardware core.
//
// --metrics-out PATH enables the observability layer and writes one JSON
// document containing, per detector run, the RunMetrics plus the full
// registry snapshot (per-subsystem and per-query counters). The registry
// is reset between runs so each snapshot is attributable to one detector.
//
// Resilience (DESIGN.md Sec. 12):
//   --on-bad-record selects the CSV ingest policy (stream/record_policy.h);
//     `skip` spools rejected raw lines to --quarantine when given. A load
//     whose surviving point set is empty exits nonzero rather than running
//     an empty stream.
//   --checkpoint PATH writes a crash-consistent run checkpoint every
//     --checkpoint-every batches; --resume-from PATH resumes one detector
//     (exactly one --detector) from such a file, producing the same
//     emissions the uninterrupted run would have.
//   --queue N pipelines ingest and detection through an N-batch queue;
//     --overload picks what a full queue does (block = backpressure,
//     drop-oldest = shed + flag degraded emissions).
//   --fault-rate arms the deterministic fault injector (common/fault.h),
//     e.g. --fault-rate batch-stall=0.01,checkpoint-bytes=1; --fault-seed
//     makes the failure schedule reproducible and --fault-max caps the
//     number of injected failures per site.
//
// Workload churn (DESIGN.md Sec. 14):
//   --churn-every N runs the workload through a dynamic SopSession instead
//     of the batch engine: after every N batches one query (round-robin) is
//     removed and re-registered. With 'sop' those churns ride the
//     session's overlay-swap path (no history replay); other detectors
//     rebuild-and-replay. Prints per-churn latency and the session's
//     change statistics, so the two regimes are directly comparable.
//     Incompatible with --resume-from/--checkpoint/--queue (engine-only).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "flags.h"
#include "sop/common/fault.h"
#include "sop/core/session.h"
#include "sop/detector/engine.h"
#include "sop/detector/factory.h"
#include "sop/detector/run_checkpoint.h"
#include "sop/gen/stt.h"
#include "sop/gen/synthetic.h"
#include "sop/io/csv.h"
#include "sop/io/workload_parser.h"
#include "sop/obs/export.h"
#include "sop/obs/metrics.h"
#include "sop/report/aggregate.h"
#include "sop/stream/window.h"

namespace {

// Session-mode run for --churn-every: streams `points` through a dynamic
// SopSession hosting `name`, removing + re-registering one query
// (round-robin) every `churn_every` batches. The change is realized by the
// next Advance, so that batch's latency is tracked separately from steady
// batches — it carries the overlay swap (sop) or the
// rebuild-and-replay (everything else).
int RunSessionChurn(const std::string& name, const sop::Workload& workload,
                    const std::vector<sop::Point>& points, int64_t churn_every,
                    bool print_outliers, int64_t max_print) {
  using namespace sop;
  using Clock = std::chrono::steady_clock;

  SopSession session(workload.window_type(), workload.metric(),
                     workload.MaxWindow());
  if (name == "sop") {
    session.UseSopDetector(SopDetector::Options());
  } else {
    session.SetDetectorBuilder([name](const Workload& w) {
      return CreateDetector(name, w);
    });
  }
  std::vector<QueryId> ids;
  for (const OutlierQuery& query : workload.queries()) {
    ids.push_back(session.AddQuery(query));
  }

  std::fprintf(stderr,
               "churning %zu queries through a '%s' session "
               "(one remove+re-add every %lld batches)...\n",
               workload.num_queries(), name.c_str(),
               static_cast<long long>(churn_every));

  uint64_t batches = 0;
  uint64_t emissions = 0;
  uint64_t churns = 0;
  int64_t printed = 0;
  bool churn_pending = false;
  double steady_ms = 0.0, steady_ms_max = 0.0;
  double churn_ms = 0.0, churn_ms_max = 0.0;
  uint64_t steady_batches = 0, churn_batches = 0;

  auto ship = [&](std::vector<Point> chunk, int64_t boundary) {
    const auto t0 = Clock::now();
    const std::vector<SessionResult> results =
        session.Advance(std::move(chunk), boundary);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (churn_pending) {
      ++churn_batches;
      churn_ms += ms;
      churn_ms_max = std::max(churn_ms_max, ms);
      churn_pending = false;
    } else {
      ++steady_batches;
      steady_ms += ms;
      steady_ms_max = std::max(steady_ms_max, ms);
    }
    ++batches;
    for (const SessionResult& r : results) {
      if (r.outliers.empty()) continue;
      ++emissions;
      if (!print_outliers || printed >= max_print) continue;
      ++printed;
      std::printf("query %lld @ %lld:",
                  static_cast<long long>(r.query_id),
                  static_cast<long long>(r.boundary));
      size_t shown = 0;
      for (Seq s : r.outliers) {
        if (++shown > 16) {
          std::printf(" ... (%zu total)", r.outliers.size());
          break;
        }
        std::printf(" %lld", static_cast<long long>(s));
      }
      std::printf("\n");
    }
    if (batches % static_cast<uint64_t>(churn_every) == 0) {
      const size_t j = static_cast<size_t>(churns % ids.size());
      session.RemoveQuery(ids[j]);
      ids[j] = session.AddQuery(workload.query(j));
      ++churns;
      churn_pending = true;  // realized by the next Advance
    }
  };

  const int64_t span = workload.SlideGcd();
  if (workload.window_type() == WindowType::kCount) {
    // Count windows: boundary = cumulative point count, a multiple of the
    // slide gcd; a trailing partial batch cannot form a boundary.
    size_t start = 0;
    for (; start + static_cast<size_t>(span) <= points.size();
         start += static_cast<size_t>(span)) {
      ship(std::vector<Point>(
               points.begin() + static_cast<ptrdiff_t>(start),
               points.begin() + static_cast<ptrdiff_t>(start) +
                   static_cast<ptrdiff_t>(span)),
           static_cast<int64_t>(start) + span);
    }
    if (start < points.size()) {
      std::fprintf(stderr, "dropped %zu trailing points (< one slide gcd)\n",
                   points.size() - start);
    }
  } else {
    // Time windows: cut at multiples of the slide gcd, advancing through
    // empty spans, exactly like the engine.
    int64_t boundary = FirstBoundaryAtOrAfter(points.front().time + 1, span);
    std::vector<Point> chunk;
    for (const Point& p : points) {
      while (p.time >= boundary) {
        ship(std::move(chunk), boundary);
        chunk.clear();
        boundary += span;
      }
      chunk.push_back(p);
    }
    if (!chunk.empty()) ship(std::move(chunk), boundary);
  }

  const SessionChangeStats& change = session.change_stats();
  std::printf("[%s] churn: %llu batches, %llu non-empty emissions, "
              "%llu churns\n",
              name.c_str(), static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(emissions),
              static_cast<unsigned long long>(churns));
  std::printf("[%s] churn: steady batch mean %.3f ms max %.3f ms; "
              "change-realizing batch mean %.3f ms max %.3f ms\n",
              name.c_str(),
              steady_batches > 0 ? steady_ms / steady_batches : 0.0,
              steady_ms_max,
              churn_batches > 0 ? churn_ms / churn_batches : 0.0,
              churn_ms_max);
  std::printf("[%s] churn: %llu overlay swaps, %llu rebuilds "
              "(%llu basis extends), replayed %llu batches / %llu points\n",
              name.c_str(),
              static_cast<unsigned long long>(change.overlay_changes),
              static_cast<unsigned long long>(change.rebuilds),
              static_cast<unsigned long long>(change.basis_extends),
              static_cast<unsigned long long>(change.replayed_batches),
              static_cast<unsigned long long>(change.replayed_points));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sop;

  std::string workload_path;
  std::string data_path;
  std::string metrics_out;
  int64_t synthetic_n = 0;
  int64_t stt_n = 0;
  std::vector<std::string> detectors = {"sop"};
  bool print_outliers = false;
  bool aggregate = false;
  int64_t max_print = 20;
  uint64_t seed = 42;
  int num_threads = 1;
  io::CsvReadOptions csv_options;
  std::string checkpoint_path;
  int64_t checkpoint_every = 64;
  std::string resume_path;
  size_t queue_batches = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  int64_t churn_every = 0;
  std::vector<std::string> fault_specs;
  uint64_t fault_seed = 1;
  int64_t fault_max = -1;

  cli::FlagSet flags(
      "Run a multi-query outlier workload over a stream. The workload spec\n"
      "format is documented in sop/io/workload_parser.h, detector names in\n"
      "sop/detector/factory.h; resilience and churn modes in DESIGN.md\n"
      "Sec. 12/14. Requires --workload plus one data source (--data,\n"
      "--synthetic or --stt).");
  flags.Str("--workload", &workload_path, "spec.txt", "workload spec file");
  flags.Str("--data", &data_path, "points.csv", "stream points CSV");
  flags.I64("--synthetic", &synthetic_n, "N",
            "generate N synthetic points instead of reading --data", 0);
  flags.I64("--stt", &stt_n, "N",
            "generate N STT points instead of reading --data", 0);
  flags.Flag("--detector", "NAME[,NAME...]",
             "detectors to run over the identical stream, in turn "
             "(default sop)",
             [&detectors](const std::string& v, std::string* error) {
               detectors = cli::SplitCommas(v);
               for (const std::string& name : detectors) {
                 if (!IsKnownDetector(name)) {
                   *error = UnknownDetectorMessage(name);
                   return false;
                 }
               }
               return true;
             });
  flags.Int("--threads", &num_threads, "N",
            "worker threads for partitioned detectors (0 = one per core)", 0);
  flags.Str("--metrics-out", &metrics_out, "PATH",
            "enable observability and write run metrics + counters JSON");
  flags.Bool("--print-outliers", &print_outliers,
             "print each emission's outliers");
  flags.Bool("--aggregate", &aggregate,
             "print the per-point outlier pivot of the last boundaries");
  flags.I64("--max-print", &max_print, "N", "emission print cap", 0);
  flags.U64("--seed", &seed, "S", "generator seed for --synthetic/--stt");
  flags.Flag("--on-bad-record", "fail|skip|clamp",
             "CSV ingest policy for malformed records",
             [&csv_options](const std::string& v, std::string* error) {
               if (!ParseRecordPolicy(v, &csv_options.policy)) {
                 *error = "unknown policy";
                 return false;
               }
               return true;
             });
  flags.Str("--quarantine", &csv_options.quarantine_path, "PATH",
            "spool records rejected by --on-bad-record skip here");
  flags.Str("--checkpoint", &checkpoint_path, "PATH",
            "write crash-consistent run checkpoints here");
  flags.I64("--checkpoint-every", &checkpoint_every, "N",
            "checkpoint every N batches", 1);
  flags.Str("--resume-from", &resume_path, "PATH",
            "resume one detector from a checkpoint file");
  flags.Size("--queue", &queue_batches, "N",
             "pipeline ingest/detection through an N-batch queue");
  flags.Flag("--overload", "block|drop-oldest",
             "full-queue policy (backpressure, or shed + flag degraded)",
             [&overload_policy](const std::string& v, std::string* error) {
               if (v == "block") {
                 overload_policy = OverloadPolicy::kBlock;
               } else if (v == "drop-oldest") {
                 overload_policy = OverloadPolicy::kDropOldest;
               } else {
                 *error = "unknown policy";
                 return false;
               }
               return true;
             });
  flags.I64("--churn-every", &churn_every, "N",
            "dynamic-session mode: remove + re-add one query every N "
            "batches",
            1);
  flags.StrList("--fault-rate", &fault_specs, "SITE=RATE[,...]",
                "arm the deterministic fault injector (common/fault.h)");
  flags.U64("--fault-seed", &fault_seed, "S", "fault schedule seed");
  flags.I64("--fault-max", &fault_max, "N",
            "cap injected failures per site (-1 = unlimited)", -1);
  cli::AddKernelFlag(&flags);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;

  if (workload_path.empty() || detectors.empty()) {
    flags.UsageError("--workload and at least one --detector are required");
    return 2;
  }
  Workload workload;
  std::string error;
  if (!io::LoadWorkloadSpec(workload_path, &workload, &error)) {
    std::fprintf(stderr, "workload error: %s\n", error.c_str());
    return 1;
  }

  // Materialize the stream once so every detector sees identical points.
  std::vector<Point> points;
  if (!data_path.empty()) {
    io::CsvReadStats stats;
    if (!io::LoadPointsCsv(data_path, csv_options, &points, &stats, &error)) {
      std::fprintf(stderr, "data error: %s\n", error.c_str());
      return 1;
    }
    if (stats.quarantined > 0 || stats.repaired > 0) {
      std::fprintf(stderr,
                   "ingest: accepted %llu, quarantined %llu, repaired %llu "
                   "record%s (policy %s)\n",
                   static_cast<unsigned long long>(stats.accepted),
                   static_cast<unsigned long long>(stats.quarantined),
                   static_cast<unsigned long long>(stats.repaired),
                   stats.repaired == 1 ? "" : "s",
                   RecordPolicyName(csv_options.policy));
    }
    if (points.empty()) {
      // A run over zero points would "succeed" vacuously; refuse instead.
      std::fprintf(stderr, "data error: %s yielded no usable points\n",
                   data_path.c_str());
      return 1;
    }
  } else if (synthetic_n > 0) {
    gen::SyntheticOptions options;
    options.seed = seed;
    gen::SyntheticSource source(synthetic_n, options);
    Point p;
    while (source.Next(&p)) points.push_back(std::move(p));
  } else if (stt_n > 0) {
    gen::SttOptions options;
    options.seed = seed;
    gen::SttSource source(stt_n, options);
    Point p;
    while (source.Next(&p)) points.push_back(std::move(p));
  } else {
    flags.UsageError("no data source given (--data, --synthetic or --stt)");
    return 2;
  }

  const bool want_metrics = !metrics_out.empty();
  if (want_metrics) {
    if (!obs::kCompiledIn) {
      std::fprintf(stderr,
                   "--metrics-out: observability compiled out (SOP_NO_OBS); "
                   "counters will be empty\n");
    }
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
  }

  ExecOptions exec_options;
  exec_options.num_threads = num_threads;
  exec_options.checkpoint.path = checkpoint_path;
  exec_options.checkpoint.every_batches = checkpoint_every;
  exec_options.overload.max_queue_batches = queue_batches;
  exec_options.overload.policy = overload_policy;
  ExecutionEngine engine(exec_options);

  RunCheckpoint resume_cp;
  if (!resume_path.empty()) {
    if (detectors.size() != 1) {
      std::fprintf(stderr,
                   "--resume-from requires exactly one --detector (a "
                   "checkpoint belongs to one detector run)\n");
      return 2;
    }
    if (!LoadRunCheckpoint(resume_path, &resume_cp, &error)) {
      std::fprintf(stderr, "checkpoint error: %s\n", error.c_str());
      return 1;
    }
  }

  FaultInjector injector(fault_seed);
  bool inject = false;
  for (const std::string& spec : fault_specs) {
    if (!cli::ParseFaultRate(spec, &injector)) {
      std::fprintf(stderr, "--fault-rate: bad site=rate spec '%s'\n",
                   spec.c_str());
      return 2;
    }
    inject = true;
  }
  if (inject) {
    if (fault_max >= 0) {
      for (int i = 0; i < kNumFaultSites; ++i) {
        injector.SetMaxFailures(static_cast<FaultSite>(i), fault_max);
      }
    }
    std::fprintf(stderr, "fault injection armed (seed %llu)\n",
                 static_cast<unsigned long long>(fault_seed));
    FaultInjector::Arm(&injector);
  }

  if (churn_every > 0) {
    if (!resume_path.empty() || !checkpoint_path.empty() ||
        queue_batches > 0) {
      std::fprintf(stderr,
                   "--churn-every runs a dynamic session; drop "
                   "--resume-from/--checkpoint/--queue\n");
      if (inject) FaultInjector::Disarm();
      return 2;
    }
    if (want_metrics) {
      std::fprintf(stderr, "--metrics-out is ignored with --churn-every\n");
    }
    int rc = 0;
    for (const std::string& name : detectors) {
      rc = RunSessionChurn(name, workload, points, churn_every,
                           print_outliers, max_print);
      if (rc != 0) break;
    }
    if (inject) FaultInjector::Disarm();
    return rc;
  }

  std::string runs_json;
  for (const std::string& name : detectors) {
    std::unique_ptr<OutlierDetector> detector = CreateDetector(name, workload);
    std::fprintf(stderr,
                 "running %zu queries with detector '%s' (%d thread%s)...\n",
                 workload.num_queries(), detector->name(),
                 engine.pool() != nullptr ? engine.pool()->num_threads() : 1,
                 engine.pool() != nullptr && engine.pool()->num_threads() > 1
                     ? "s"
                     : "");

    int64_t printed = 0;
    report::OutlierAggregator aggregator;
    const ResultSink sink = [&](const QueryResult& r) {
      if (aggregate) aggregator.Add(r);
      if (!print_outliers || r.outliers.empty()) return;
      if (printed++ >= max_print) return;
      std::printf("query %zu @ %lld:%s", r.query_index,
                  static_cast<long long>(r.boundary),
                  r.degraded ? " (degraded)" : "");
      size_t shown = 0;
      for (Seq s : r.outliers) {
        if (++shown > 16) {
          std::printf(" ... (%zu total)", r.outliers.size());
          break;
        }
        std::printf(" %lld", static_cast<long long>(s));
      }
      std::printf("\n");
    };
    RunMetrics metrics;
    if (!resume_path.empty()) {
      VectorSource source(points);  // copy: the original stream from its start
      if (!engine.RunResumed(workload, &source, detector.get(), resume_cp,
                             &metrics, &error, sink)) {
        std::fprintf(stderr, "resume error: %s\n", error.c_str());
        if (inject) FaultInjector::Disarm();
        return 1;
      }
    } else {
      metrics = engine.Run(workload, points, detector.get(), sink);
    }

    if (aggregate) {
      // Per-point pivot (the paper's Alg. 3 output format) of the last few
      // boundaries.
      const std::vector<int64_t> boundaries = aggregator.Boundaries();
      const size_t show = std::min<size_t>(boundaries.size(), 3);
      for (size_t i = boundaries.size() - show; i < boundaries.size(); ++i) {
        std::printf("--- outliers at boundary %lld ---\n%s",
                    static_cast<long long>(boundaries[i]),
                    aggregator.ToString(boundaries[i]).c_str());
      }
      std::printf("flagged %zu distinct points across %zu point-windows\n",
                  aggregator.NumDistinctPoints(),
                  aggregator.NumFlaggedPointWindows());
    }
    std::printf("[%s] %s\n", name.c_str(), metrics.ToString().c_str());
    std::printf("[%s] %s\n", name.c_str(), metrics.LatencyToString().c_str());
    if (metrics.shed_batches > 0) {
      std::printf("[%s] overload shed %llu batch%s (%llu points), "
                  "%llu degraded emission%s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(metrics.shed_batches),
                  metrics.shed_batches == 1 ? "" : "es",
                  static_cast<unsigned long long>(metrics.shed_points),
                  static_cast<unsigned long long>(metrics.degraded_emissions),
                  metrics.degraded_emissions == 1 ? "" : "s");
    }

    if (want_metrics) {
      // Snapshot-and-reset attributes the registry contents to this run.
      const obs::Snapshot snap = obs::MetricsRegistry::Global().TakeSnapshot();
      obs::MetricsRegistry::Global().Reset();
      if (!runs_json.empty()) runs_json += ",\n";
      runs_json += "    {\"detector\": \"" + obs::JsonEscape(name) +
                   "\", \"run\": " + metrics.ToJson() +
                   ", \"counters\": " + obs::ToJson(snap) + "}";
    }
  }

  if (inject) {
    FaultInjector::Disarm();
    for (int i = 0; i < kNumFaultSites; ++i) {
      const auto site = static_cast<FaultSite>(i);
      if (injector.consulted(site) == 0) continue;
      std::fprintf(stderr,
                   "fault site %-16s injected %lld of %lld decisions\n",
                   FaultSiteName(site),
                   static_cast<long long>(injector.injected(site)),
                   static_cast<long long>(injector.consulted(site)));
    }
  }

  if (want_metrics) {
    std::string doc = "{\n  \"workload\": {\"path\": \"" +
                      obs::JsonEscape(workload_path) +
                      "\", \"num_queries\": " +
                      std::to_string(workload.num_queries()) +
                      ", \"window_type\": \"" +
                      (workload.window_type() == WindowType::kCount ? "count"
                                                                    : "time") +
                      "\"},\n  \"runs\": [\n" + runs_json + "\n  ]\n}\n";
    std::ofstream out(metrics_out, std::ios::binary);
    if (!out || !(out << doc) || !out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}
