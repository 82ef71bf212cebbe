// Uniform grid index over alive stream points, for accelerating range
// scans.
//
// The original MCOD paper indexes the window with an M-tree; a uniform
// grid is the standard lightweight equivalent for low-dimensional numeric
// streams and is what later stream-outlier systems use. McodDetector can
// optionally route its insertion range scans through this index
// (McodDetector::Options::use_grid_index), and SopDetector can route its
// K-SKY candidate enumeration the same way
// (SopDetector::Options::use_grid_index), turning the O(|W|) linear scan
// into a visit of the cells overlapping the query ball.
//
// The grid is metric-aware: cells are laid over the distance function's
// attribute subspace, and candidate enumeration guarantees a superset of
// the true r-neighborhood for both Euclidean and Manhattan metrics (cells
// are pruned by the metric's own cell-to-point lower bound; callers always
// confirm with an exact distance).
//
// Candidate enumeration is the hottest loop of every grid-backed detector,
// so it is exposed without type erasure: VisitCandidates takes the visitor
// as a template parameter (the per-candidate call inlines into the cell
// walk — no std::function construction or indirect call per scan), and
// CollectCandidates batches the superset into a caller-owned scratch
// vector so steady-state scans are allocation-free.

#ifndef SOP_INDEX_GRID_H_
#define SOP_INDEX_GRID_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sop/common/distance.h"
#include "sop/common/point.h"
#include "sop/obs/trace.h"

namespace sop {

/// Uniform grid over the subspace of `dist`. Not thread-safe; in
/// partition-parallel execution every child detector owns its own grid.
class GridIndex {
 public:
  /// `cell_size` is the grid pitch in attribute units (> 0). A good pitch
  /// is around the smallest query radius.
  GridIndex(DistanceFn dist, double cell_size);

  /// Indexes an alive point. The point's coordinates must not change while
  /// indexed.
  void Insert(Seq seq, const Point& p);

  /// Removes a previously inserted point (typically on expiry).
  void Remove(Seq seq, const Point& p);

  size_t size() const { return size_; }

  /// Invokes `visit(seq)` for every indexed point whose distance to `p`
  /// *may* be <= r (a superset filtered by cell lower bounds); the caller
  /// must confirm with an exact distance computation. `visit` is any
  /// callable taking a Seq; it is statically dispatched, so the call
  /// inlines into the scan loop. Points without a cell (see kCellLimit)
  /// are visited by every probe; a probe without a cell, or a radius
  /// spanning more cells than the coordinates can hold, visits every
  /// indexed point.
  template <typename Visitor>
  void VisitCandidates(const Point& p, double r, Visitor&& visit) const {
    if (size_ == 0) return;
    // Per-query scan state: the cell span depends only on r (one ceil per
    // radius change, not per probe — detectors probe with a fixed r), and
    // the odometer scratch is reused across scans so the steady state
    // allocates nothing.
    if (r != scan_r_) {
      scan_r_ = r;
      const double span = std::ceil(r / cell_size_) + 1;
      scan_span_ = span <= kCellLimit ? static_cast<int64_t>(span) : -1;
    }
    // Register-local tallies; published in one gated batch below so the
    // scan itself never branches on the observability state.
    [[maybe_unused]] uint64_t obs_cells = 0;
    [[maybe_unused]] uint64_t obs_candidates = overflow_.size();
    for (const Seq s : overflow_) visit(s);
    CellCoords center;
    if (!CellOf(p, &center) || scan_span_ < 0) {
      for (const auto& [hash, bucket] : cells_) {
        for (const Entry& e : bucket) {
          ++obs_cells;
          obs_candidates += e.seqs.size();
          for (const Seq s : e.seqs) visit(s);
        }
      }
    } else {
      const int64_t span = scan_span_;
      const size_t ndims = center.size();
      scan_coords_.assign(ndims, 0);
      scan_offset_.assign(ndims, -span);
      for (;;) {
        for (size_t i = 0; i < ndims; ++i) {
          scan_coords_[i] = center[i] + scan_offset_[i];
        }
        if (CellLowerBound(p, scan_coords_) <= r) {
          const auto it = cells_.find(HashCell(scan_coords_));
          if (it != cells_.end()) {
            for (const Entry& e : it->second) {
              if (e.coords != scan_coords_) continue;
              ++obs_cells;
              obs_candidates += e.seqs.size();
              for (const Seq s : e.seqs) visit(s);
            }
          }
        }
        // Advance the odometer.
        size_t i = 0;
        for (; i < ndims; ++i) {
          if (++scan_offset_[i] <= span) break;
          scan_offset_[i] = -span;
        }
        if (i == ndims) break;
      }
    }
    SOP_COUNTER_ADD("grid/scans", 1);
    SOP_COUNTER_ADD("grid/cells_visited", obs_cells);
    SOP_COUNTER_ADD("grid/candidates_yielded", obs_candidates);
  }

  /// Batched form of VisitCandidates: clears `*out` and fills it with the
  /// candidate superset (unordered). `*out` is caller-owned scratch —
  /// reuse it across scans to keep the enumeration allocation-free.
  void CollectCandidates(const Point& p, double r, std::vector<Seq>* out) const;

  /// Approximate heap bytes held.
  size_t MemoryBytes() const;

 private:
  using CellCoords = std::vector<int64_t>;

  // Cell coordinates and scan spans stay within +-kCellLimit (2^61), so
  // center + offset never overflows int64. A point whose quantized
  // coordinate is beyond it, or not finite (NaN, +-inf), has no cell.
  static constexpr double kCellLimit = 0x1p61;

  // Quantized cell coordinates of `p` over the subspace dims into
  // `*coords`; false (no cell) when one is beyond kCellLimit or not finite.
  bool CellOf(const Point& p, CellCoords* coords) const;

  // 64-bit mix of cell coordinates.
  static uint64_t HashCell(const CellCoords& c);

  // Lower bound on the metric distance from `p` to any point inside the
  // cell with coords `c`.
  double CellLowerBound(const Point& p, const CellCoords& c) const;

  // The attribute indices the grid spans.
  const std::vector<int>& dims() const;

  DistanceFn dist_;
  std::vector<int> full_space_dims_;  // filled lazily for empty subspaces
  double cell_size_;
  size_t size_ = 0;
  // Buckets by hashed cell; collisions are resolved by exact coord match
  // inside the bucket entries.
  struct Entry {
    CellCoords coords;
    std::vector<Seq> seqs;
  };
  std::unordered_map<uint64_t, std::vector<Entry>> cells_;
  std::vector<Seq> overflow_;  // indexed points without a cell
  // VisitCandidates scan state (see there). Mutable scratch — one more
  // reason the index is not thread-safe.
  mutable CellCoords scan_coords_;
  mutable std::vector<int64_t> scan_offset_;
  mutable double scan_r_ = -1.0;
  mutable int64_t scan_span_ = 0;  // -1: the radius has no span
};

}  // namespace sop

#endif  // SOP_INDEX_GRID_H_
