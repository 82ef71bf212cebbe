// The detector abstraction every algorithm implements (SOP, LEAP, MCOD,
// Naive), plus the per-emission result type.
//
// A detector consumes the stream in driver-defined batches. Batch
// boundaries are aligned to multiples of the workload's slide gcd (the
// swift-query slide). At each boundary the detector returns one
// QueryResult per query whose slide divides the boundary (DESIGN.md
// Sec. 2), containing the outliers of that query's current window.

#ifndef SOP_DETECTOR_DETECTOR_H_
#define SOP_DETECTOR_DETECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sop/common/point.h"
#include "sop/query/workload.h"

namespace sop {

/// Outliers of one query's window at one emission boundary.
struct QueryResult {
  /// Index of the query in the workload.
  size_t query_index = 0;
  /// The window end key (the boundary this emission happened at).
  int64_t boundary = 0;
  /// Sequence numbers of the outlier points, ascending.
  std::vector<Seq> outliers;
  /// Reserved for a delivery path that knows this emission's window is
  /// missing input. Neither the engine nor any detector sets it;
  /// perfbench's detect workload still fails a run on a degraded emission.
  bool degraded = false;
};

/// Interface of a multi-query streaming outlier detector.
///
/// Contract: Advance() is called with strictly increasing boundaries that
/// are multiples of the workload's slide gcd; `batch` holds exactly the
/// points whose keys fall in [previous boundary, boundary), already
/// carrying their global arrival sequence numbers. Results are returned in
/// query-index order.
class OutlierDetector {
 public:
  virtual ~OutlierDetector();

  /// Short algorithm name for reports ("sop", "leap", ...).
  virtual const char* name() const = 0;

  /// Ingests a batch, advances the windows to `boundary`, and returns the
  /// results of every query emitting at `boundary`.
  virtual std::vector<QueryResult> Advance(std::vector<Point> batch,
                                           int64_t boundary) = 0;

  /// Approximate bytes of per-point evidence currently held (the paper's
  /// MEM metric; excludes the raw point buffer, which is identical across
  /// detectors — see DESIGN.md Sec. 5).
  virtual size_t MemoryBytes() const = 0;
};

}  // namespace sop

#endif  // SOP_DETECTOR_DETECTOR_H_
