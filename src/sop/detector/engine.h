// ExecutionEngine: the run layer of the layered execution path
//
//   engine (this file)  ->  partition (PartitionedDetector)  ->  index
//
// The engine owns the batching/emission loop: it slices the stream into
// swift-slide batches, times every Advance() call, tracks per-batch
// latency percentiles, and forwards results to the sink. It needs nothing
// from the detector beyond Advance(): a PartitionedDetector fans its
// children out on RunLanes by itself (DESIGN.md Sec. 10).
//
// Resilience (DESIGN.md Sec. 12): a run's position is a StreamTail. With
// checkpointing configured the tail keeps the advanced batches that the
// next boundary's windows can still reach, and the engine periodically
// writes it as a crash-consistent RunCheckpoint (detector/run_checkpoint.h).
// A resumed run replays that tail through a fresh detector and continues,
// producing emissions identical to an uninterrupted run.
//
// An engine is reusable across runs and detectors. Not thread-safe: one
// engine drives one run at a time, and the sink runs on the calling
// thread.
//
// Contract: this is the single run entry point. Every way of driving a
// detector over a stream — sop_cli, the benches, the examples, the tests —
// calls ExecutionEngine::Run, so window semantics, timing methodology, and
// observability instrumentation are defined in exactly one place. A run's
// counts (batches, points, emissions, outliers) have one source, its
// RunMetrics. When observability is enabled (obs/metrics.h), each run
// also records the engine/batch_ms histogram, per-query
// query/<i>/{emissions,outliers} counters, and the resilience/checkpoint_*
// counters into the global registry. Checkpointing never changes a run's
// emissions.

#ifndef SOP_DETECTOR_ENGINE_H_
#define SOP_DETECTOR_ENGINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sop/detector/detector.h"
#include "sop/detector/metrics.h"
#include "sop/detector/run_checkpoint.h"
#include "sop/obs/metrics.h"
#include "sop/query/workload.h"
#include "sop/stream/source.h"

namespace sop {

/// Callback receiving every QueryResult as it is produced. May be null.
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

/// Execution knobs, defaulting to a run without checkpoints.
struct ExecOptions {
  CheckpointOptions checkpoint;
};

/// Drives detectors over streams under the normative window semantics.
class ExecutionEngine {
 public:
  ExecutionEngine() : ExecutionEngine(ExecOptions{}) {}
  explicit ExecutionEngine(ExecOptions options);

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Drives `detector` over `source` under `workload`'s window semantics.
  ///
  /// Batch boundaries are multiples of the workload slide gcd. For
  /// count-based workloads, one batch per gcd points; the trailing partial
  /// batch (stream length not a multiple of the gcd) is never emitted. For
  /// time-based workloads, batches cover gcd-sized time spans; empty spans
  /// still advance the windows, and the run ends at the first boundary
  /// covering the last point. A batch that breaks StreamTail::Check aborts.
  ///
  /// Detector time is measured around Advance() only; source decoding and
  /// result sinking are excluded. RunMetrics reports it twice: as process
  /// CPU time, summed over every thread the batch ran on (a partitioned
  /// detector's child lanes, SopDetector's point lanes), and as wall-clock
  /// time, the per-batch critical path.
  RunMetrics Run(const Workload& workload, StreamSource* source,
                 OutlierDetector* detector, const ResultSink& sink = {});

  /// Convenience overload over an in-memory stream.
  RunMetrics Run(const Workload& workload, std::vector<Point> points,
                 OutlierDetector* detector, const ResultSink& sink = {});

  /// Resumes an interrupted run from `cp` (see LoadRunCheckpoint).
  /// `source` must replay the original stream from its beginning (the
  /// engine skips the records the checkpoint already advanced) and
  /// `detector` must be freshly constructed for the same workload. The
  /// checkpoint's retained tail is replayed through `detector` first (its
  /// emissions were delivered before the interruption and are dropped), so
  /// the detector's own counters include the replayed work. On a
  /// checkpoint that does not match (fingerprint/detector/window/span) or
  /// whose tail ends off this run's batch schedule, or a source shorter
  /// than the checkpointed position, returns false with a diagnostic in
  /// `*error` and advances nothing. Unlike Run, a source batch that breaks
  /// StreamTail::Check (the source is not the checkpointed stream) is
  /// refused, not aborted on: the run ends before it, `*metrics` covers
  /// the batches advanced, and it returns false with "resume: <refusal>".
  /// On success the emissions of interrupted-run-then-resume equal those
  /// of one uninterrupted run.
  bool RunResumed(const Workload& workload, StreamSource* source,
                  OutlierDetector* detector, const RunCheckpoint& cp,
                  RunMetrics* metrics, std::string* error,
                  const ResultSink& sink = {});

 private:
  struct RunContext;

  // Pushes the batch onto the tail, times one Advance() call, records
  // metrics, and writes periodic checkpoints. False when a resumed run
  // refuses the batch (RunContext::refusal); nothing is advanced then.
  bool AdvanceBatch(RunContext* ctx, std::vector<Point> batch,
                    int64_t boundary, const ResultSink& sink);
  void WriteCheckpoint(RunContext* ctx);
  bool ApplyResume(RunContext* ctx, const RunCheckpoint& cp,
                   StreamSource* source, std::string* error);
  RunMetrics RunLoop(RunContext* ctx, StreamSource* source,
                     const ResultSink& sink);
  RunMetrics RunCountBased(RunContext* ctx, StreamSource* source,
                           const ResultSink& sink);
  RunMetrics RunTimeBased(RunContext* ctx, StreamSource* source,
                          const ResultSink& sink);

  ExecOptions options_;

  // Cached per-query counter handles, indexed by query index:
  // {query/<i>/emissions, query/<i>/outliers}. Registry handles are
  // lifetime-stable, so the cache survives Reset() and spans runs; it is
  // only populated while obs is enabled.
  std::vector<std::pair<obs::Counter*, obs::Counter*>> query_counters_;
};

}  // namespace sop

#endif  // SOP_DETECTOR_ENGINE_H_
