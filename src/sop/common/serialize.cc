#include "sop/common/serialize.h"

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

}  // namespace sop
