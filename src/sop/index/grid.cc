#include "sop/index/grid.h"

#include <algorithm>
#include <cmath>

#include "sop/common/check.h"
#include "sop/common/memory.h"

namespace sop {

GridIndex::GridIndex(DistanceFn dist, double cell_size)
    : dist_(std::move(dist)), cell_size_(cell_size) {
  SOP_CHECK_MSG(cell_size_ > 0.0, "grid cell size must be positive");
}

const std::vector<int>& GridIndex::dims() const {
  return dist_.attributes().empty() ? full_space_dims_ : dist_.attributes();
}

bool GridIndex::CellOf(const Point& p, CellCoords* coords) const {
  // Lazily derive full-space dims from the first point seen.
  if (dist_.attributes().empty() && full_space_dims_.empty()) {
    auto* self = const_cast<GridIndex*>(this);
    for (size_t d = 0; d < p.values.size(); ++d) {
      self->full_space_dims_.push_back(static_cast<int>(d));
    }
  }
  coords->clear();
  coords->reserve(dims().size());
  for (const int d : dims()) {
    const double c = std::floor(p.values[static_cast<size_t>(d)] / cell_size_);
    if (!(std::fabs(c) <= kCellLimit)) return false;  // also NaN
    coords->push_back(static_cast<int64_t>(c));
  }
  return true;
}

uint64_t GridIndex::HashCell(const CellCoords& c) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const int64_t v : c) {
    uint64_t x = static_cast<uint64_t>(v);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    h ^= (x ^ (x >> 31)) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void GridIndex::Insert(Seq seq, const Point& p) {
  CellCoords coords;
  if (!CellOf(p, &coords)) {
    overflow_.push_back(seq);
    ++size_;
    return;
  }
  std::vector<Entry>& bucket = cells_[HashCell(coords)];
  for (Entry& e : bucket) {
    if (e.coords == coords) {
      e.seqs.push_back(seq);
      ++size_;
      return;
    }
  }
  bucket.push_back(Entry{coords, {seq}});
  ++size_;
}

void GridIndex::Remove(Seq seq, const Point& p) {
  CellCoords coords;
  if (!CellOf(p, &coords)) {
    const auto pos = std::find(overflow_.begin(), overflow_.end(), seq);
    SOP_CHECK_MSG(pos != overflow_.end(), "removing unindexed point");
    overflow_.erase(pos);
    --size_;
    return;
  }
  const auto it = cells_.find(HashCell(coords));
  SOP_CHECK_MSG(it != cells_.end(), "removing unindexed point");
  for (size_t b = 0; b < it->second.size(); ++b) {
    Entry& e = it->second[b];
    if (e.coords != coords) continue;
    const auto pos = std::find(e.seqs.begin(), e.seqs.end(), seq);
    SOP_CHECK_MSG(pos != e.seqs.end(), "removing unindexed point");
    e.seqs.erase(pos);
    --size_;
    if (e.seqs.empty()) {
      it->second.erase(it->second.begin() + static_cast<long>(b));
      if (it->second.empty()) cells_.erase(it);
    }
    return;
  }
  SOP_CHECK_MSG(false, "removing unindexed point");
}

double GridIndex::CellLowerBound(const Point& p, const CellCoords& c) const {
  // Per-dimension gap between p and the cell's coordinate slab.
  double sum = 0.0;
  const auto& ds = dims();
  for (size_t i = 0; i < ds.size(); ++i) {
    const double v = p.values[static_cast<size_t>(ds[i])];
    const double lo = static_cast<double>(c[i]) * cell_size_;
    const double hi = lo + cell_size_;
    double gap = 0.0;
    if (v < lo) {
      gap = lo - v;
    } else if (v > hi) {
      gap = v - hi;
    }
    switch (dist_.metric()) {
      case Metric::kEuclidean:
        sum += gap * gap;
        break;
      case Metric::kManhattan:
        sum += gap;
        break;
    }
  }
  return dist_.metric() == Metric::kEuclidean ? std::sqrt(sum) : sum;
}

void GridIndex::CollectCandidates(const Point& p, double r,
                                  std::vector<Seq>* out) const {
  out->clear();
  VisitCandidates(p, r, [out](Seq s) { out->push_back(s); });
}

size_t GridIndex::MemoryBytes() const {
  size_t bytes = cells_.size() * (sizeof(uint64_t) + sizeof(std::vector<Entry>) +
                                  2 * sizeof(void*)) +
                 VectorHeapBytes(overflow_);
  for (const auto& [hash, bucket] : cells_) {
    bytes += VectorHeapBytes(bucket);
    for (const Entry& e : bucket) {
      bytes += VectorHeapBytes(e.coords) + VectorHeapBytes(e.seqs);
    }
  }
  return bytes;
}

}  // namespace sop
