// StreamDriver: feeds a stream through a detector with the normative batch
// and emission schedule, timing each batch and tracking peak memory.
//
// This plays the role the HP CHAOS stream engine played in the paper's
// experimental setup: windowing, scheduling and measurement around the
// detection algorithm under test.
//
// These free functions are thin wrappers over a default, single-use
// ExecutionEngine (detector/engine.h), which owns the actual batching
// loop. Code that wants checkpoints or one engine over several runs
// constructs an ExecutionEngine directly.

#ifndef SOP_DETECTOR_DRIVER_H_
#define SOP_DETECTOR_DRIVER_H_

#include "sop/detector/detector.h"
#include "sop/detector/engine.h"
#include "sop/detector/metrics.h"
#include "sop/query/workload.h"
#include "sop/stream/source.h"

namespace sop {

/// Drives `detector` over `source` under `workload`'s window semantics
/// with a default, single-use engine. See ExecutionEngine::Run for the
/// batching/emission contract.
RunMetrics RunStream(const Workload& workload, StreamSource* source,
                     OutlierDetector* detector, const ResultSink& sink = {});

/// Convenience overload over an in-memory stream.
RunMetrics RunStream(const Workload& workload, std::vector<Point> points,
                     OutlierDetector* detector, const ResultSink& sink = {});

/// Runs the stream and collects every result (test helper).
std::vector<QueryResult> CollectResults(const Workload& workload,
                                        std::vector<Point> points,
                                        OutlierDetector* detector);

}  // namespace sop

#endif  // SOP_DETECTOR_DRIVER_H_
