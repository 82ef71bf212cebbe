#include "sop/common/serialize.h"

#include <utility>

namespace sop {

void WritePoint(BinaryWriter* w, const Point& p) {
  w->WriteI64(p.time);
  w->WriteU64(p.values.size());
  for (const double v : p.values) w->WriteDouble(v);
}

bool ReadPoint(BinaryReader* r, Point* p) {
  uint64_t dims = 0;
  if (!r->ReadI64(&p->time) || !r->ReadU64(&dims)) return false;
  for (uint64_t d = 0; d < dims; ++d) {
    double v = 0.0;
    if (!r->ReadDouble(&v)) return false;
    p->values.push_back(v);
  }
  return true;
}

void WriteHistory(BinaryWriter* w, const std::deque<HistoryBatch>& history) {
  w->WriteU64(history.size());
  for (const HistoryBatch& b : history) {
    w->WriteI64(b.boundary);
    w->WriteU64(b.points.size());
    for (const Point& p : b.points) {
      w->WriteI64(p.seq);
      WritePoint(w, p);
    }
  }
}

bool ReadHistory(BinaryReader* r, std::deque<HistoryBatch>* history) {
  uint64_t num_batches = 0;
  if (!r->ReadU64(&num_batches)) return false;
  for (uint64_t i = 0; i < num_batches; ++i) {
    HistoryBatch b;
    uint64_t num_points = 0;
    if (!r->ReadI64(&b.boundary) || !r->ReadU64(&num_points)) return false;
    for (uint64_t j = 0; j < num_points; ++j) {
      Point p;
      if (!r->ReadI64(&p.seq) || !ReadPoint(r, &p)) return false;
      b.points.push_back(std::move(p));
    }
    history->push_back(std::move(b));
  }
  return true;
}

}  // namespace sop
