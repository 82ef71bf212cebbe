#include "sop/stream/stream_tail.h"

#include <utility>

#include "sop/common/check.h"
#include "sop/common/memory.h"

namespace sop {

std::string StreamTail::Check(const std::vector<Point>& batch,
                              int64_t boundary) const {
  if (boundary <= last_boundary_) {
    return "boundary " + std::to_string(boundary) +
           " does not advance the stream";
  }
  if (static_cast<int64_t>(batch.size()) > INT64_MAX - next_seq_) {
    return "batch overflows the stream's seqs";
  }
  // A count window's key is the seq (DESIGN.md Sec. 2), so its boundary
  // is the count of points up to and including the batch.
  const int64_t cumulative = next_seq_ + static_cast<int64_t>(batch.size());
  if (type_ == WindowType::kCount && boundary != cumulative) {
    return "count boundary " + std::to_string(boundary) +
           " is not the cumulative count " + std::to_string(cumulative);
  }
  int64_t dims = dims_;
  Timestamp last_time = last_time_;
  for (const Point& p : batch) {
    const auto point_dims = static_cast<int64_t>(p.values.size());
    if (dims < 0) dims = point_dims;
    if (point_dims != dims) {
      return "point has " + std::to_string(point_dims) +
             " dimensions, the stream has " + std::to_string(dims);
    }
    if (type_ == WindowType::kTime) {
      if (p.time < last_time) {
        return "point time " + std::to_string(p.time) +
               " is below the previous point's " + std::to_string(last_time);
      }
      // The window that closed at the previous boundary was emitted
      // without this point.
      if (last_boundary_ != kNoBoundary && p.time < last_boundary_) {
        return "point time " + std::to_string(p.time) +
               " is below the previous boundary " +
               std::to_string(last_boundary_);
      }
      // The window ending at `boundary` covers times below it.
      if (p.time >= boundary) {
        return "point time " + std::to_string(p.time) +
               " is at or past its batch's boundary " +
               std::to_string(boundary);
      }
    }
    last_time = p.time;
  }
  return "";
}

void StreamTail::Push(std::vector<Point>* batch, int64_t boundary,
                      int64_t reach) {
  const std::string refusal = Check(*batch, boundary);
  SOP_CHECK_MSG(refusal.empty(), refusal.c_str());
  for (Point& p : *batch) p.seq = next_seq_++;
  if (!batch->empty()) {
    dims_ = static_cast<int64_t>(batch->back().values.size());
    last_time_ = batch->back().time;
  }
  last_boundary_ = boundary;
  if (reach > 0) batches_.push_back(HistoryBatch{boundary, *batch});
  // Below INT64_MIN + reach the horizon would overflow; nothing is under it.
  while (!batches_.empty() && boundary >= INT64_MIN + reach &&
         batches_.front().boundary <= boundary - reach) {
    batches_.pop_front();
  }
}

size_t StreamTail::MemoryBytes() const {
  size_t bytes = DequeHeapBytes(batches_);
  for (const HistoryBatch& b : batches_) {
    bytes += VectorHeapBytes(b.points);
    for (const Point& p : b.points) bytes += VectorHeapBytes(p.values);
  }
  return bytes;
}

void StreamTail::Write(BinaryWriter* w) const {
  w->WriteI64(next_seq_);
  w->WriteI64(last_boundary_);
  w->WriteU64(batches_.size());
  for (const HistoryBatch& b : batches_) {
    w->WriteI64(b.boundary);
    w->WriteU64(b.points.size());
    for (const Point& p : b.points) WritePoint(w, p);
  }
}

std::string StreamTail::Read(BinaryReader* r) {
  Seq next_seq = 0;
  int64_t last_boundary = 0;
  uint64_t num_batches = 0;
  if (!r->ReadI64(&next_seq) || !r->ReadI64(&last_boundary) ||
      !r->ReadU64(&num_batches)) {
    return "truncated tail";
  }
  if (next_seq < 0) return "tail has a negative next seq";
  const bool count = type_ == WindowType::kCount;
  if (count && last_boundary != next_seq &&
      !(last_boundary == kNoBoundary && next_seq == 0)) {
    return "count tail ends at boundary " + std::to_string(last_boundary) +
           ", not at its next seq " + std::to_string(next_seq);
  }
  // The batches go through a fresh tail's rules, as when first accepted;
  // it keeps none of them (reach 0), `batches` does. A count tail's first
  // batch starts at its boundary minus its size.
  StreamTail tail(type_);
  Seq first_seq = 0;
  std::deque<HistoryBatch> batches;
  for (uint64_t i = 0; i < num_batches; ++i) {
    HistoryBatch b;
    uint64_t num_points = 0;
    if (!r->ReadI64(&b.boundary) || !r->ReadU64(&num_points)) {
      return "truncated tail";
    }
    for (uint64_t j = 0; j < num_points; ++j) {
      Point p;
      if (!ReadPoint(r, &p)) return "truncated tail";
      b.points.push_back(std::move(p));
    }
    if (count && i == 0) {
      const auto size = static_cast<int64_t>(b.points.size());
      if (b.boundary < size) return "count tail starts below seq 0";
      first_seq = b.boundary - size;
      tail.next_seq_ = first_seq;
    }
    const std::string refusal = tail.Check(b.points, b.boundary);
    if (!refusal.empty()) return "tail breaks a stream rule: " + refusal;
    tail.Push(&b.points, b.boundary, /*reach=*/0);
    batches.push_back(std::move(b));
  }
  if (tail.last_boundary_ > last_boundary) {
    return "tail holds a batch after its last boundary";
  }
  if (tail.next_seq_ - first_seq > next_seq) {
    return "tail holds more points than its next seq";
  }
  if (count && !batches.empty() && tail.next_seq_ != next_seq) {
    return "count tail's last batch ends at " +
           std::to_string(tail.next_seq_) + ", not at its next seq " +
           std::to_string(next_seq);
  }
  Seq seq = next_seq - (tail.next_seq_ - first_seq);
  for (HistoryBatch& b : batches) {
    for (Point& p : b.points) p.seq = seq++;
  }
  tail.next_seq_ = next_seq;
  tail.last_boundary_ = last_boundary;
  tail.batches_ = std::move(batches);
  *this = std::move(tail);
  return "";
}

}  // namespace sop
