// ExecutionEngine: the driver layer of the layered execution path
//
//   driver (this file)  ->  partition (PartitionedDetector)  ->  index
//
// The engine owns the batching/emission loop that used to live inside
// RunStream (detector/driver.h, now a thin wrapper): it slices the stream
// into swift-slide batches, times every Advance() call, tracks per-batch
// latency percentiles, and forwards results to the sink. It also owns a
// reusable ThreadPool; when the detector under test is a
// PartitionedDetector, the engine attaches the pool for the duration of
// the run so independent partitions advance concurrently (DESIGN.md
// Sec. 10).
//
// Resilience (DESIGN.md Sec. 12): the engine is also where failure is
// handled. With checkpointing configured the engine periodically writes a
// crash-consistent RunCheckpoint (detector/run_checkpoint.h) and can
// resume an interrupted run from one, producing emissions identical to an
// uninterrupted run. With an overload queue configured the run is
// pipelined — the calling thread ingests while a worker thread detects —
// and a full queue either blocks ingest (lossless) or sheds the oldest
// queued batch (bounded latency; shed batches are counted and the
// emissions whose windows overlap shed data are flagged `degraded`).
//
// An engine is reusable across runs and detectors; the pool is spawned
// once at construction. Not thread-safe: one engine drives one run at a
// time. In pipelined mode the sink runs on the engine's worker thread.
//
// Contract: this is the single run entry point. Every way of driving a
// detector over a stream — the RunStream convenience wrappers
// (detector/driver.h), sop_cli, the bench harness — funnels through
// ExecutionEngine::Run, so window semantics, timing methodology, and
// observability instrumentation are defined in exactly one place. When
// observability is enabled (obs/metrics.h), each run additionally records
// engine/* counters, the engine/batch_ms histogram, per-query
// query/<i>/{emissions,outliers} counters, and the resilience/* counters
// into the global registry. A serial run with default options, no armed
// injector and checkpointing off behaves bit-identically to the
// pre-resilience engine.

#ifndef SOP_DETECTOR_ENGINE_H_
#define SOP_DETECTOR_ENGINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sop/common/thread_pool.h"
#include "sop/detector/detector.h"
#include "sop/detector/metrics.h"
#include "sop/detector/run_checkpoint.h"
#include "sop/obs/metrics.h"
#include "sop/query/workload.h"
#include "sop/stream/source.h"

namespace sop {

/// Callback receiving every QueryResult as it is produced. May be null.
/// In pipelined (overload-queue) mode it is invoked from the engine's
/// worker thread.
using ResultSink = std::function<void(const QueryResult&)>;

/// Periodic crash-consistent checkpointing of the run.
struct CheckpointOptions {
  /// Checkpoint file path; empty disables checkpointing.
  std::string path;
  /// Write cadence in advanced batches (>= 1) when `path` is set.
  int64_t every_batches = 64;
  /// Complete checkpoint generations retained on disk (>= 1): each save
  /// rotates path -> path.1 -> ... so restore can fall back past a corrupt
  /// newest file to the previous one (see run_checkpoint.h).
  int generations = 1;
};

/// What to do when the overload queue is full.
enum class OverloadPolicy {
  kBlock,       // backpressure: ingest waits (lossless)
  kDropOldest,  // shed the oldest queued batch (bounded latency, lossy)
};

/// Pipelined execution with a bounded batch queue between ingest and
/// detection. Disabled (synchronous single-threaded loop) by default.
struct OverloadOptions {
  /// Queue capacity in batches; 0 keeps the engine synchronous.
  size_t max_queue_batches = 0;
  OverloadPolicy policy = OverloadPolicy::kBlock;
};

/// Execution knobs, defaulting to the serial seed behaviour.
struct ExecOptions {
  /// Worker threads for partition-parallel detectors. 1 keeps everything
  /// on the calling thread (bit-identical to the pre-engine driver); 0
  /// means hardware concurrency.
  int num_threads = 1;
  CheckpointOptions checkpoint;
  OverloadOptions overload;
};

/// Drives detectors over streams under the normative window semantics.
class ExecutionEngine {
 public:
  ExecutionEngine() : ExecutionEngine(ExecOptions{}) {}
  explicit ExecutionEngine(ExecOptions options);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Drives `detector` over `source` under `workload`'s window semantics.
  ///
  /// Batch boundaries are multiples of the workload slide gcd. For
  /// count-based workloads, one batch per gcd points; the trailing partial
  /// batch (stream length not a multiple of the gcd) is never emitted. For
  /// time-based workloads, batches cover gcd-sized time spans; empty spans
  /// still advance the windows, and the run ends at the first boundary
  /// covering the last point.
  ///
  /// Detector time is measured around Advance() only; source decoding and
  /// result sinking are excluded. It is wall-clock time across every
  /// thread the batch ran on (partition fan-out with num_threads > 1,
  /// SopDetector's point lanes), i.e. the per-batch critical path, not
  /// the CPU summed over threads.
  RunMetrics Run(const Workload& workload, StreamSource* source,
                 OutlierDetector* detector, const ResultSink& sink = {});

  /// Convenience overload over an in-memory stream.
  RunMetrics Run(const Workload& workload, std::vector<Point> points,
                 OutlierDetector* detector, const ResultSink& sink = {});

  /// Resumes an interrupted run from `cp` (see LoadRunCheckpoint).
  /// `source` must replay the original stream from its beginning (the
  /// engine skips the records the checkpoint already advanced) and
  /// `detector` must be freshly constructed for the same workload. On a
  /// checkpoint that does not match (fingerprint/detector/window/span) or
  /// whose detector state cannot be restored, returns false with a
  /// diagnostic in `*error` and runs nothing. On success the emissions of
  /// interrupted-run-then-resume equal those of one uninterrupted run.
  bool RunResumed(const Workload& workload, StreamSource* source,
                  OutlierDetector* detector, const RunCheckpoint& cp,
                  RunMetrics* metrics, std::string* error,
                  const ResultSink& sink = {});

  /// The engine's pool; null when configured serial (num_threads == 1).
  ThreadPool* pool() { return pool_.get(); }

 private:
  struct RunContext;
  struct Pending;
  class BatchQueue;

  // Times one Advance() call, records metrics, flags degraded emissions,
  // maintains replay history, and writes periodic checkpoints.
  void AdvanceBatch(RunContext* ctx, std::vector<Point> batch,
                    int64_t boundary, const ResultSink& sink);
  void WriteCheckpoint(RunContext* ctx);
  bool ApplyResume(RunContext* ctx, const RunCheckpoint& cp,
                   StreamSource* source, std::string* error);
  void ProcessPending(RunContext* ctx, Pending pending,
                      const ResultSink& sink);
  RunMetrics RunLoop(RunContext* ctx, StreamSource* source,
                     const ResultSink& sink);
  RunMetrics RunCountBased(RunContext* ctx, StreamSource* source,
                           const ResultSink& sink);
  RunMetrics RunTimeBased(RunContext* ctx, StreamSource* source,
                          const ResultSink& sink);
  RunMetrics RunPipelined(RunContext* ctx, StreamSource* source,
                          const ResultSink& sink);

  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial

  // Cached per-query counter handles, indexed by query index:
  // {query/<i>/emissions, query/<i>/outliers}. Registry handles are
  // lifetime-stable, so the cache survives Reset() and spans runs; it is
  // only populated while obs is enabled.
  std::vector<std::pair<obs::Counter*, obs::Counter*>> query_counters_;
};

}  // namespace sop

#endif  // SOP_DETECTOR_ENGINE_H_
