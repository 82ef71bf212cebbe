// StreamTail: the one owner of a stream's position (next seq, last
// boundary), its ingest rules and its retained window tail, with one trim
// rule and one codec. ExecutionEngine and SopSession (and through the
// session SopServer) each hold one. A restart replays the retained batches
// through a fresh detector, which is exact for every detector because its
// answers are a deterministic function of its window contents (DESIGN.md
// Sec. 12). Read refuses every tail that breaks a rule, so a restored tail
// never replays into a detector's CHECKs.

#ifndef SOP_STREAM_STREAM_TAIL_H_
#define SOP_STREAM_STREAM_TAIL_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sop/common/point.h"
#include "sop/common/serialize.h"
#include "sop/stream/window.h"

namespace sop {

/// One accepted batch: the points that entered the windows at `boundary`.
struct HistoryBatch {
  int64_t boundary = 0;
  std::vector<Point> points;
};

class StreamTail {
 public:
  /// last_boundary() before the first accepted batch.
  static constexpr int64_t kNoBoundary = INT64_MIN;

  explicit StreamTail(WindowType type) : type_(type) {}

  /// Why Push must refuse `batch` at `boundary`, or "" if it may take it:
  /// the boundary must be above last_boundary(), the seqs must not pass
  /// INT64_MAX, in count windows the boundary must be the cumulative count
  /// next_seq() + batch size, every point must have the stream's
  /// dimensionality (fixed by the first accepted point), and in time
  /// windows no point's time may be below the previous one's or
  /// last_boundary(), or at or above `boundary`.
  std::string Check(const std::vector<Point>& batch, int64_t boundary) const;

  /// CHECKs Check, numbers the points from next_seq() on and moves the
  /// position. Keeps a copy of the batch only when `reach` > 0, then drops
  /// every batch at or below boundary - reach. The holder's reach is how
  /// far back a window at any later boundary can see.
  void Push(std::vector<Point>* batch, int64_t boundary, int64_t reach);

  WindowType window_type() const { return type_; }
  Seq next_seq() const { return next_seq_; }
  int64_t last_boundary() const { return last_boundary_; }
  const std::deque<HistoryBatch>& batches() const { return batches_; }
  size_t MemoryBytes() const;

  /// Next seq, last boundary, a u64 batch count, then per batch its
  /// boundary, a u64 point count and WritePoint per point. No seq is
  /// written: the retained points are the newest accepted ones.
  void Write(BinaryWriter* w) const;

  /// Replaces the position and the batches with what Write wrote: the j-th
  /// of the N retained points gets seq next_seq - N + j, and the rules go
  /// on from the retained points, the only ones a replay gives a detector.
  /// Counts are read one value at a time, never used to size anything.
  /// Returns "", or why it refuses the tail and leaves this one untouched:
  /// truncation, boundaries that do not increase or pass the last
  /// boundary, a negative next seq, more points than the next seq, a second
  /// dimensionality, a time regression, a point time below the previous
  /// batch's boundary, or one at or above its own batch's boundary. A count
  /// tail must also keep the cumulative-count rule: its first batch starts
  /// at its boundary minus its size, no lower than seq 0, and the tail ends
  /// at its next seq (its last boundary, and its last batch's, is next seq).
  std::string Read(BinaryReader* r);

 private:
  WindowType type_;
  Seq next_seq_ = 0;
  int64_t last_boundary_ = kNoBoundary;
  int64_t dims_ = -1;  // before the first point
  Timestamp last_time_ = INT64_MIN;
  std::deque<HistoryBatch> batches_;  // oldest first
};

}  // namespace sop

#endif  // SOP_STREAM_STREAM_TAIL_H_
