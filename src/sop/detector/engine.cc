#include "sop/detector/engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/fault.h"
#include "sop/common/stopwatch.h"
#include "sop/detector/partitioned.h"
#include "sop/obs/trace.h"
#include "sop/stream/window.h"

namespace sop {

namespace {

// Attaches the engine's pool to a partition-parallel detector for the
// duration of one run, restoring the previous (normally null) pool on every
// exit path.
class ScopedPoolAttachment {
 public:
  ScopedPoolAttachment(OutlierDetector* detector, ThreadPool* pool) {
    if (pool == nullptr) return;
    partitioned_ = dynamic_cast<PartitionedDetector*>(detector);
    if (partitioned_ == nullptr) return;
    previous_ = partitioned_->thread_pool();
    partitioned_->set_thread_pool(pool);
  }
  ~ScopedPoolAttachment() {
    if (partitioned_ != nullptr) partitioned_->set_thread_pool(previous_);
  }

 private:
  PartitionedDetector* partitioned_ = nullptr;
  ThreadPool* previous_ = nullptr;
};

}  // namespace

// Per-run mutable state. In pipelined mode the context is handed to the
// worker thread for the duration of the pipeline (the ingest side touches
// only the source and the queue) and handed back at join.
struct ExecutionEngine::RunContext {
  RunContext(const ExecOptions& options, const Workload& workload_in,
             OutlierDetector* detector_in)
      : workload(&workload_in),
        detector(detector_in),
        batch_span(workload_in.SlideGcd()),
        max_window(workload_in.MaxWindow()) {
    query_windows.reserve(workload_in.num_queries());
    for (const OutlierQuery& q : workload_in.queries()) {
      query_windows.push_back(q.win);
    }
    checkpoint_enabled = !options.checkpoint.path.empty();
    use_native = checkpoint_enabled && detector_in->SupportsNativeState();
  }

  const Workload* workload;
  OutlierDetector* detector;
  int64_t batch_span;
  int64_t max_window;
  std::vector<int64_t> query_windows;

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

  // Crash-consistency. `history` is the replay tail (only maintained when
  // checkpointing without native detector state).
  bool checkpoint_enabled = false;
  bool use_native = false;
  std::deque<RunCheckpoint::Batch> history;

  // Degradation: half-open key intervals lost to overload shedding. An
  // emission whose window overlaps one is flagged degraded.
  std::vector<std::pair<int64_t, int64_t>> shed_intervals;
};

// One ingested batch waiting for the detection worker.
struct ExecutionEngine::Pending {
  std::vector<Point> points;
  int64_t boundary = 0;        // time-based only; count boundaries are
                               // assigned by the worker after shedding
  int64_t first_boundary = 0;  // time-based: the schedule origin, so the
                               // worker can fill holes even when the first
                               // batches themselves were shed
  uint32_t sheds_before = 0;   // count-based: batches shed before this one
};

// The bounded ingest->detection queue. Under kBlock a full queue exerts
// backpressure on the ingest thread; under kDropOldest it sheds the oldest
// queued batch, crediting the shed to the next batch the worker will see.
class ExecutionEngine::BatchQueue {
 public:
  BatchQueue(size_t capacity, OverloadPolicy policy)
      : capacity_(capacity), policy_(policy) {}

  void Push(Pending pending) {
    std::unique_lock<std::mutex> lock(mu_);
    if (policy_ == OverloadPolicy::kBlock) {
      can_push_.wait(lock, [this] { return queue_.size() < capacity_; });
    } else if (queue_.size() >= capacity_) {
      Pending victim = std::move(queue_.front());
      queue_.pop_front();
      ++dropped_batches_;
      dropped_points_ += victim.points.size();
      const uint32_t carried = victim.sheds_before + 1;
      if (!queue_.empty()) {
        queue_.front().sheds_before += carried;
      } else {
        pending.sheds_before += carried;
      }
    }
    queue_.push_back(std::move(pending));
    can_pop_.notify_one();
  }

  // Blocks until a batch is available or the queue is closed and drained.
  bool Pop(Pending* out) {
    std::unique_lock<std::mutex> lock(mu_);
    can_pop_.wait(lock, [this] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return false;
    *out = std::move(queue_.front());
    queue_.pop_front();
    can_push_.notify_one();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    can_pop_.notify_all();
  }

  uint64_t dropped_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_batches_;
  }
  uint64_t dropped_points() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_points_;
  }

 private:
  const size_t capacity_;
  const OverloadPolicy policy_;
  mutable std::mutex mu_;
  std::condition_variable can_push_;
  std::condition_variable can_pop_;
  std::deque<Pending> queue_;
  bool closed_ = false;
  uint64_t dropped_batches_ = 0;
  uint64_t dropped_points_ = 0;
};

ExecutionEngine::ExecutionEngine(ExecOptions options) : options_(options) {
  SOP_CHECK_MSG(options_.num_threads >= 0, "num_threads must be >= 0");
  SOP_CHECK_MSG(
      options_.checkpoint.path.empty() || options_.checkpoint.every_batches >= 1,
      "checkpoint.every_batches must be >= 1");
  if (options_.num_threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    options_.num_threads = hw == 0 ? 1 : static_cast<int>(hw);
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
}

ExecutionEngine::~ExecutionEngine() = default;

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
  if (ctx->use_native) {
    cp.native_state = ctx->detector->SaveState();
  } else {
    cp.history.assign(ctx->history.begin(), ctx->history.end());
  }
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

  if (!cp.native_state.empty()) {
    std::string inner;
    if (!ctx->detector->SupportsNativeState()) {
      return fail("checkpoint carries native state this detector cannot load");
    }
    if (!ctx->detector->LoadState(cp.native_state, &inner)) {
      return fail(inner.empty() ? "native state restore failed" : inner);
    }
  } else {
    // Replay the retained window tail through the fresh detector, dropping
    // the (already delivered) emissions. Equivalent for any detector whose
    // answers are a function of its window contents.
    for (const RunCheckpoint::Batch& b : cp.history) {
      std::vector<Point> replay = b.points;
      ctx->detector->Advance(std::move(replay), b.boundary);
    }
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

  ctx->next_seq = cp.points_advanced;
  ctx->points_advanced = cp.points_advanced;
  ctx->batches_advanced = cp.batches_advanced;
  ctx->last_boundary = cp.last_boundary;
  ctx->have_boundary = cp.have_boundary;
  ctx->next_boundary = cp.next_boundary;
  if (ctx->checkpoint_enabled && !ctx->use_native) {
    ctx->history.assign(cp.history.begin(), cp.history.end());
  }
  SOP_COUNTER_ADD("resilience/checkpoint_restores", 1);
  return true;
}

void ExecutionEngine::AdvanceBatch(RunContext* ctx, std::vector<Point> batch,
                                   int64_t boundary, const ResultSink& sink) {
  FaultInjector* injector = FaultInjector::Armed();
  if (injector != nullptr && injector->ShouldFail(FaultSite::kBatchStall)) {
    SOP_COUNTER_ADD("resilience/stalls", 1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(injector->stall_millis()));
  }
  const size_t batch_points = batch.size();
  if (ctx->checkpoint_enabled && !ctx->use_native) {
    // Retain the batch (before handing it to the detector) while any future
    // window can still reach into it, mirroring the detector's own expiry.
    ctx->history.push_back(RunCheckpoint::Batch{boundary, batch});
    const int64_t horizon = boundary - ctx->max_window;
    while (!ctx->history.empty() && ctx->history.front().boundary <= horizon) {
      ctx->history.pop_front();
    }
  }
  Stopwatch watch;
  std::vector<QueryResult> results =
      ctx->detector->Advance(std::move(batch), boundary);
  const double cpu_ms = watch.ElapsedMillis();
  if (!ctx->shed_intervals.empty()) {
    const int64_t horizon = boundary - ctx->max_window;
    ctx->shed_intervals.erase(
        std::remove_if(ctx->shed_intervals.begin(), ctx->shed_intervals.end(),
                       [horizon](const std::pair<int64_t, int64_t>& iv) {
                         return iv.second <= horizon;
                       }),
        ctx->shed_intervals.end());
    uint64_t degraded = 0;
    for (QueryResult& r : results) {
      const int64_t start = boundary - ctx->query_windows[r.query_index];
      for (const std::pair<int64_t, int64_t>& iv : ctx->shed_intervals) {
        if (iv.first < boundary && iv.second > start) {
          r.degraded = true;
          ++degraded;
          break;
        }
      }
    }
    if (degraded > 0) ctx->acc.RecordDegraded(degraded);
  }
  uint64_t outliers = 0;
  for (const QueryResult& r : results) outliers += r.outliers.size();
  ctx->acc.RecordBatch(cpu_ms, ctx->detector->MemoryBytes(), results.size(),
                       outliers);
  if (obs::Enabled()) {
    SOP_COUNTER_ADD("engine/batches", 1);
    SOP_COUNTER_ADD("engine/points", batch_points);
    SOP_COUNTER_ADD("engine/emissions", results.size());
    SOP_COUNTER_ADD("engine/outliers", outliers);
    SOP_HISTOGRAM_RECORD("engine/batch_ms", cpu_ms);
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

void ExecutionEngine::ProcessPending(RunContext* ctx, Pending pending,
                                     const ResultSink& sink) {
  if (ctx->workload->window_type() == WindowType::kCount) {
    if (pending.sheds_before > 0) {
      // Count-based shedding compacts the stream: later arrivals shift down
      // in seq space. Flag windows that cover the splice position.
      ctx->shed_intervals.emplace_back(ctx->next_seq, ctx->next_seq + 1);
    }
    for (Point& p : pending.points) p.seq = ctx->next_seq++;
    AdvanceBatch(ctx, std::move(pending.points), ctx->next_seq, sink);
    return;
  }
  if (!ctx->have_boundary) {
    ctx->have_boundary = true;
    ctx->next_boundary = pending.first_boundary;
  }
  // Shed batches leave holes in the boundary schedule; advance empty filler
  // batches there so emission cadence and expiry continue (time keys are
  // unaffected by drops), with the lost span flagged for degradation.
  while (ctx->next_boundary < pending.boundary) {
    ctx->shed_intervals.emplace_back(ctx->next_boundary - ctx->batch_span,
                                     ctx->next_boundary);
    AdvanceBatch(ctx, {}, ctx->next_boundary, sink);
  }
  for (Point& p : pending.points) p.seq = ctx->next_seq++;
  AdvanceBatch(ctx, std::move(pending.points), pending.boundary, sink);
}

RunMetrics ExecutionEngine::RunPipelined(RunContext* ctx, StreamSource* source,
                                         const ResultSink& sink) {
  BatchQueue queue(options_.overload.max_queue_batches,
                   options_.overload.policy);
  std::thread worker([this, ctx, &queue, &sink] {
    Pending pending;
    while (queue.Pop(&pending)) {
      ProcessPending(ctx, std::move(pending), sink);
      pending = Pending{};
    }
  });

  const bool count_based =
      ctx->workload->window_type() == WindowType::kCount;
  // The ingest side owns the boundary schedule (a pure function of the
  // timestamps, unaffected by drops); the worker owns everything else in
  // the context until join.
  bool have_boundary = ctx->have_boundary;
  int64_t next_boundary = ctx->next_boundary;
  int64_t origin_boundary = ctx->next_boundary;
  int64_t ingested = 0;
  Timestamp last_time = 0;
  bool read_any = false;
  Pending pending;
  Point p;
  while (source->Next(&p)) {
    ++ingested;
    if (count_based) {
      pending.points.push_back(std::move(p));
      if (static_cast<int64_t>(pending.points.size()) == ctx->batch_span) {
        queue.Push(std::move(pending));
        pending = Pending{};
      }
    } else {
      if (read_any) {
        SOP_CHECK_MSG(
            p.time >= last_time,
            "time-based streams must have non-decreasing timestamps");
      }
      last_time = p.time;
      if (!have_boundary) {
        next_boundary = FirstBoundaryAtOrAfter(p.time + 1, ctx->batch_span);
        origin_boundary = next_boundary;
        have_boundary = true;
      }
      while (p.time >= next_boundary) {
        pending.boundary = next_boundary;
        pending.first_boundary = origin_boundary;
        queue.Push(std::move(pending));
        pending = Pending{};
        next_boundary += ctx->batch_span;
      }
      pending.points.push_back(std::move(p));
    }
    read_any = true;
  }
  if (!count_based && have_boundary && read_any) {
    pending.boundary = next_boundary;
    pending.first_boundary = origin_boundary;
    queue.Push(std::move(pending));
  }
  // The count-based trailing partial batch is dropped, as in the serial
  // path.
  queue.Close();
  worker.join();
  ctx->acc.RecordPoints(ingested);
  const uint64_t shed_batches = queue.dropped_batches();
  const uint64_t shed_points = queue.dropped_points();
  if (shed_batches > 0) {
    ctx->acc.RecordShedding(shed_batches, shed_points);
    SOP_COUNTER_ADD("resilience/shed_batches", shed_batches);
    SOP_COUNTER_ADD("resilience/shed_points", shed_points);
  }
  return ctx->acc.Finish();
}

RunMetrics ExecutionEngine::RunLoop(RunContext* ctx, StreamSource* source,
                                    const ResultSink& sink) {
  ScopedPoolAttachment attachment(ctx->detector, pool_.get());
  if (options_.overload.max_queue_batches > 0) {
    return RunPipelined(ctx, source, sink);
  }
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
