#include "sop/detector/engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/stopwatch.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

// Per-run mutable state.
struct ExecutionEngine::RunContext {
  RunContext(const ExecOptions& options, const Workload& workload_in,
             OutlierDetector* detector_in)
      : workload(&workload_in),
        detector(detector_in),
        batch_span(workload_in.SlideGcd()),
        // A window at the next boundary, one span on, reaches back
        // MaxWindow() - span past the last one. Without checkpoints: none.
        reach(options.checkpoint.path.empty() ? 0
              : std::max<int64_t>(workload_in.MaxWindow() - batch_span, 0)),
        tail(workload_in.window_type()) {}

  const Workload* workload;
  OutlierDetector* detector;
  int64_t batch_span;
  int64_t reach;

  MetricsAccumulator acc;
  int64_t batches_advanced = 0;
  StreamTail tail;  // the stream position and the replay tail
  // A resumed run's source need not be the checkpointed stream, so its
  // batches are checked before the push and the first refused one ends the
  // run with `refusal` set. A fresh run's source is already ordered (the
  // CSV loader, a generator), so Push CHECKs it.
  bool resumed = false;
  std::string refusal;
};

ExecutionEngine::ExecutionEngine(ExecOptions options) : options_(options) {
  SOP_CHECK_MSG(
      options_.checkpoint.path.empty() || options_.checkpoint.every_batches >= 1,
      "checkpoint.every_batches must be >= 1");
}

void ExecutionEngine::WriteCheckpoint(RunContext* ctx) {
  RunCheckpoint cp;
  cp.workload_fingerprint = ctx->workload->Fingerprint();
  cp.detector_name = ctx->detector->name();
  cp.batch_span = ctx->batch_span;
  cp.batches_advanced = ctx->batches_advanced;
  cp.tail = ctx->tail;
  std::string error;
  if (!SaveRunCheckpoint(options_.checkpoint.path, cp, &error,
                         options_.checkpoint.generations)) {
    // Best-effort: a failed write leaves the previous checkpoint at the
    // path intact and the run continues (the fault model treats checkpoint
    // writes as non-critical; see DESIGN.md Sec. 12).
    SOP_COUNTER_ADD("resilience/checkpoint_write_failures", 1);
  }
}

bool ExecutionEngine::ApplyResume(RunContext* ctx, const RunCheckpoint& cp,
                                  StreamSource* source, std::string* error) {
  auto fail = [error](const std::string& what) {
    if (error != nullptr) *error = "resume: " + what;
    return false;
  };
  if (cp.workload_fingerprint != ctx->workload->Fingerprint()) {
    return fail("workload fingerprint mismatch");
  }
  if (cp.detector_name != ctx->detector->name()) {
    return fail("checkpoint was taken by detector '" + cp.detector_name +
                "', not '" + ctx->detector->name() + "'");
  }
  if (cp.tail.window_type() != ctx->workload->window_type()) {
    return fail("window type mismatch");
  }
  if (cp.batch_span != ctx->batch_span) {
    return fail("batch span mismatch");
  }
  // Every boundary this engine advances is a multiple of the span, and in
  // count windows it is the number of points advanced.
  const int64_t last = cp.tail.last_boundary();
  if (last == StreamTail::kNoBoundary || last % ctx->batch_span != 0 ||
      last > INT64_MAX - ctx->batch_span ||
      (ctx->workload->window_type() == WindowType::kCount &&
       last != cp.tail.next_seq())) {
    return fail("the tail ends at boundary " + std::to_string(last) +
                ", off this run's batch schedule");
  }

  // Skip the source records the checkpoint already advanced; the trailing
  // partial batch of the interrupted run is re-read.
  Point discard;
  for (Seq i = 0; i < cp.tail.next_seq(); ++i) {
    if (!source->Next(&discard)) {
      return fail("source ended before the checkpointed position "
                  "(resumed against a different stream?)");
    }
  }

  // Replay the retained window tail through the fresh detector, dropping
  // the (already delivered) emissions. Exact for every detector, since
  // each one's answers are a deterministic function of its window
  // contents.
  for (const HistoryBatch& b : cp.tail.batches()) {
    ctx->detector->Advance(b.points, b.boundary);
  }

  ctx->batches_advanced = cp.batches_advanced;
  ctx->tail = cp.tail;
  SOP_COUNTER_ADD("resilience/checkpoint_restores", 1);
  return true;
}

bool ExecutionEngine::AdvanceBatch(RunContext* ctx, std::vector<Point> batch,
                                   int64_t boundary, const ResultSink& sink) {
  if (ctx->resumed) {
    ctx->refusal = ctx->tail.Check(batch, boundary);
    if (!ctx->refusal.empty()) return false;
  }
  ctx->tail.Push(&batch, boundary, ctx->reach);
  Stopwatch wall;
  CpuStopwatch cpu;
  std::vector<QueryResult> results =
      ctx->detector->Advance(std::move(batch), boundary);
  const double cpu_ms = cpu.ElapsedMillis();
  const double wall_ms = wall.ElapsedMillis();
  uint64_t outliers = 0;
  for (const QueryResult& r : results) outliers += r.outliers.size();
  ctx->acc.RecordBatch(wall_ms, cpu_ms, ctx->detector->MemoryBytes(),
                       results.size(), outliers);
  if (obs::Enabled()) {
    SOP_HISTOGRAM_RECORD("engine/batch_ms", wall_ms);
    // Per-query attribution: names are computed, so the handles cannot be
    // cached per call site like the macros do; cache them per query index
    // instead (registry handles are lifetime-stable).
    for (const QueryResult& r : results) {
      while (query_counters_.size() <= r.query_index) {
        const std::string prefix =
            "query/" + std::to_string(query_counters_.size());
        auto& registry = obs::MetricsRegistry::Global();
        query_counters_.emplace_back(
            &registry.GetCounter(prefix + "/emissions"),
            &registry.GetCounter(prefix + "/outliers"));
      }
      query_counters_[r.query_index].first->Increment();
      query_counters_[r.query_index].second->Add(r.outliers.size());
    }
  }
  if (sink) {
    for (const QueryResult& r : results) sink(r);
  }
  ++ctx->batches_advanced;
  if (!options_.checkpoint.path.empty() &&
      ctx->batches_advanced % options_.checkpoint.every_batches == 0) {
    WriteCheckpoint(ctx);
  }
  return true;
}

RunMetrics ExecutionEngine::RunCountBased(RunContext* ctx,
                                          StreamSource* source,
                                          const ResultSink& sink) {
  std::vector<Point> batch;
  batch.reserve(static_cast<size_t>(ctx->batch_span));
  Point p;
  while (source->Next(&p)) {
    ctx->acc.RecordPoints(1);
    batch.push_back(std::move(p));
    if (static_cast<int64_t>(batch.size()) == ctx->batch_span) {
      if (!AdvanceBatch(ctx, std::move(batch),
                        ctx->tail.next_seq() + ctx->batch_span, sink)) {
        break;
      }
      batch = {};
      batch.reserve(static_cast<size_t>(ctx->batch_span));
    }
  }
  // A trailing partial batch never reaches a boundary and is dropped.
  return ctx->acc.Finish();
}

RunMetrics ExecutionEngine::RunTimeBased(RunContext* ctx, StreamSource* source,
                                         const ResultSink& sink) {
  // A resumed run goes on one span after the tail's last boundary; a
  // fresh one at the first boundary strictly after its first point's time.
  int64_t next_boundary = ctx->tail.last_boundary() + ctx->batch_span;
  std::vector<Point> batch;
  bool read_any = false;
  Point p;
  while (source->Next(&p)) {
    if (!read_any && ctx->tail.last_boundary() == StreamTail::kNoBoundary) {
      next_boundary = FirstBoundaryAtOrAfter(p.time + 1, ctx->batch_span);
    }
    read_any = true;
    while (p.time >= next_boundary) {
      if (!AdvanceBatch(ctx, std::move(batch), next_boundary, sink)) {
        return ctx->acc.Finish();
      }
      batch = {};
      next_boundary += ctx->batch_span;
    }
    ctx->acc.RecordPoints(1);
    batch.push_back(std::move(p));
  }
  // `read_any` gates the flush so that resuming a run that was already
  // complete does not re-advance its final boundary.
  if (read_any) AdvanceBatch(ctx, std::move(batch), next_boundary, sink);
  return ctx->acc.Finish();
}

RunMetrics ExecutionEngine::RunLoop(RunContext* ctx, StreamSource* source,
                                    const ResultSink& sink) {
  if (ctx->workload->window_type() == WindowType::kCount) {
    return RunCountBased(ctx, source, sink);
  }
  return RunTimeBased(ctx, source, sink);
}

RunMetrics ExecutionEngine::Run(const Workload& workload, StreamSource* source,
                                OutlierDetector* detector,
                                const ResultSink& sink) {
  SOP_CHECK(source != nullptr && detector != nullptr);
  RunContext ctx(options_, workload, detector);
  return RunLoop(&ctx, source, sink);
}

RunMetrics ExecutionEngine::Run(const Workload& workload,
                                std::vector<Point> points,
                                OutlierDetector* detector,
                                const ResultSink& sink) {
  VectorSource source(std::move(points));
  return Run(workload, &source, detector, sink);
}

bool ExecutionEngine::RunResumed(const Workload& workload,
                                 StreamSource* source,
                                 OutlierDetector* detector,
                                 const RunCheckpoint& cp, RunMetrics* metrics,
                                 std::string* error, const ResultSink& sink) {
  SOP_CHECK(source != nullptr && detector != nullptr && metrics != nullptr);
  RunContext ctx(options_, workload, detector);
  if (!ApplyResume(&ctx, cp, source, error)) return false;
  ctx.resumed = true;
  *metrics = RunLoop(&ctx, source, sink);
  if (!ctx.refusal.empty()) {
    if (error != nullptr) *error = "resume: " + ctx.refusal;
    return false;
  }
  return true;
}

}  // namespace sop
