#include "sop/detector/engine.h"

#include <deque>
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
        max_window(workload_in.MaxWindow()),
        checkpoint_enabled(!options.checkpoint.path.empty()) {}

  const Workload* workload;
  OutlierDetector* detector;
  int64_t batch_span;
  int64_t max_window;

  MetricsAccumulator acc;

  // Stream position. `next_seq` is the seq the next ingested point gets;
  // `points_advanced` counts only points inside advanced batches (a resumed
  // run re-reads the trailing partial batch).
  Seq next_seq = 0;
  int64_t points_advanced = 0;
  int64_t batches_advanced = 0;
  int64_t last_boundary = 0;
  bool have_boundary = false;  // time-based: boundary schedule established
  int64_t next_boundary = 0;   // time-based: next boundary to advance at

  // Crash-consistency. `history` is the replay tail, kept only while
  // checkpointing.
  bool checkpoint_enabled;
  std::deque<HistoryBatch> history;
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
  cp.window_type = ctx->workload->window_type();
  cp.batch_span = ctx->batch_span;
  cp.points_advanced = ctx->points_advanced;
  cp.batches_advanced = ctx->batches_advanced;
  cp.last_boundary = ctx->last_boundary;
  cp.have_boundary = ctx->have_boundary;
  cp.next_boundary = ctx->next_boundary;
  cp.history = ctx->history;
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
  if (cp.window_type != ctx->workload->window_type()) {
    return fail("window type mismatch");
  }
  if (cp.batch_span != ctx->batch_span) {
    return fail("batch span mismatch");
  }

  // Skip the source records the checkpoint already advanced; the trailing
  // partial batch of the interrupted run is re-read.
  Point discard;
  for (int64_t i = 0; i < cp.points_advanced; ++i) {
    if (!source->Next(&discard)) {
      return fail("source ended before the checkpointed position "
                  "(resumed against a different stream?)");
    }
  }

  // Replay the retained window tail through the fresh detector, dropping
  // the (already delivered) emissions. Exact for every detector, since
  // each one's answers are a deterministic function of its window
  // contents.
  for (const HistoryBatch& b : cp.history) {
    ctx->detector->Advance(b.points, b.boundary);
  }

  ctx->next_seq = cp.points_advanced;
  ctx->points_advanced = cp.points_advanced;
  ctx->batches_advanced = cp.batches_advanced;
  ctx->last_boundary = cp.last_boundary;
  ctx->have_boundary = cp.have_boundary;
  ctx->next_boundary = cp.next_boundary;
  if (ctx->checkpoint_enabled) ctx->history = cp.history;
  SOP_COUNTER_ADD("resilience/checkpoint_restores", 1);
  return true;
}

void ExecutionEngine::AdvanceBatch(RunContext* ctx, std::vector<Point> batch,
                                   int64_t boundary, const ResultSink& sink) {
  const size_t batch_points = batch.size();
  if (ctx->checkpoint_enabled) {
    // Retain the batch (before handing it to the detector) while any future
    // window can still reach into it, mirroring the detector's own expiry.
    ctx->history.push_back(HistoryBatch{boundary, batch});
    const int64_t horizon = boundary - ctx->max_window;
    while (!ctx->history.empty() && ctx->history.front().boundary <= horizon) {
      ctx->history.pop_front();
    }
  }
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
    SOP_COUNTER_ADD("engine/batches", 1);
    SOP_COUNTER_ADD("engine/points", batch_points);
    SOP_COUNTER_ADD("engine/emissions", results.size());
    SOP_COUNTER_ADD("engine/outliers", outliers);
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
  ctx->points_advanced += static_cast<int64_t>(batch_points);
  ++ctx->batches_advanced;
  ctx->last_boundary = boundary;
  if (ctx->have_boundary) ctx->next_boundary = boundary + ctx->batch_span;
  if (ctx->checkpoint_enabled &&
      ctx->batches_advanced % options_.checkpoint.every_batches == 0) {
    WriteCheckpoint(ctx);
  }
}

RunMetrics ExecutionEngine::RunCountBased(RunContext* ctx,
                                          StreamSource* source,
                                          const ResultSink& sink) {
  std::vector<Point> batch;
  batch.reserve(static_cast<size_t>(ctx->batch_span));
  Point p;
  while (source->Next(&p)) {
    p.seq = ctx->next_seq++;
    ctx->acc.RecordPoints(1);
    batch.push_back(std::move(p));
    if (static_cast<int64_t>(batch.size()) == ctx->batch_span) {
      AdvanceBatch(ctx, std::move(batch), ctx->next_seq, sink);
      batch = {};
      batch.reserve(static_cast<size_t>(ctx->batch_span));
    }
  }
  // A trailing partial batch never reaches a boundary and is dropped.
  return ctx->acc.Finish();
}

RunMetrics ExecutionEngine::RunTimeBased(RunContext* ctx, StreamSource* source,
                                         const ResultSink& sink) {
  std::vector<Point> batch;
  Timestamp last_time = 0;
  bool read_any = false;
  Point p;
  while (source->Next(&p)) {
    if (read_any) {
      SOP_CHECK_MSG(p.time >= last_time,
                    "time-based streams must have non-decreasing timestamps");
    }
    read_any = true;
    last_time = p.time;
    if (!ctx->have_boundary) {
      // The first boundary strictly after the first point's timestamp.
      ctx->next_boundary = FirstBoundaryAtOrAfter(p.time + 1, ctx->batch_span);
      ctx->have_boundary = true;
    }
    while (p.time >= ctx->next_boundary) {
      // AdvanceBatch moves next_boundary forward one span.
      AdvanceBatch(ctx, std::move(batch), ctx->next_boundary, sink);
      batch = {};
    }
    p.seq = ctx->next_seq++;
    ctx->acc.RecordPoints(1);
    batch.push_back(std::move(p));
  }
  // `read_any` (not have_boundary) gates the flush so that resuming a run
  // that was already complete does not re-advance its final boundary.
  if (ctx->have_boundary && read_any) {
    AdvanceBatch(ctx, std::move(batch), ctx->next_boundary, sink);
  }
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
  *metrics = RunLoop(&ctx, source, sink);
  return true;
}

}  // namespace sop
