// Batched distance kernel over the columnar window store.
//
// This is the single distance entry point for detector hot loops: instead
// of calling DistanceFn::operator()(Point, Point) once per candidate —
// chasing a heap-allocated attribute vector per pair — a detector resolves
// its candidate batch against the ColumnStore with one kernel call per
// probe. The kernel streams through contiguous attribute columns in tight,
// auto-vectorizable loops (Euclidean + Manhattan, full-space + attribute
// subspace) and optionally through a runtime-dispatched AVX2 path.
//
// Bit-identity contract. Every backend returns, for every candidate, a
// double bitwise identical to DistanceFn(probe, candidate): the per-pair
// accumulation order (attribute-ascending add of squared/absolute
// differences, then one sqrt for Euclidean) is preserved exactly, and the
// AVX2 path vectorizes *across candidates* (four independent accumulators
// in the vector lanes), never across attributes, using the same
// IEEE-exact multiply/add/sqrt operations. Detector emissions therefore do
// not depend on the selected backend; tests/kernel_test.cc enforces this.
//
// Keys. KeyBlock returns keys rather than distances: the key of a pair is
// its accumulator before the root, sum (a_i - b_i)^2 in attribute order for
// Euclidean (DistanceFn returns sqrt(key)), and the distance itself for
// Manhattan. The bit-identity contract extends to keys: every backend
// returns the scalar per-pair accumulation bit for bit, and sqrt(key)
// equals DistanceFn for Euclidean. It also extends to the mask KeyBlock
// returns with them, whose bit i is set iff key i <= bound: the AVX2 path
// compares in the pass that computes the keys, with an ordered compare, so
// a NaN key sets no bit on any backend. WorkloadPlan maps keys to layers
// (query/plan.h, "Keys").
//
// Backend selection is process-global (SetKernelBackend) and defaults to
// "auto": the best backend this machine supports. The AVX2 backend is
// compiled in when the toolchain supports -mavx2 and engaged only if the
// running CPU reports AVX2; kScalar is always available. Tools expose it
// as --kernel=scalar|avx2|auto.
//
// Each kernel instance owns mutable scratch (slot/distance staging), so
// instances are cheap but NOT thread-safe: give each detector its own
// kernel (DistanceFn::MakeKernel), exactly like the grid scratch buffers.

#ifndef SOP_COMMON_DIST_KERNEL_H_
#define SOP_COMMON_DIST_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sop/common/column_store.h"
#include "sop/common/distance.h"
#include "sop/common/point.h"

namespace sop {

/// Instruction-set backend the batch kernels execute with.
enum class KernelBackend {
  kScalar,  // portable tight loops; always available
  kAvx2,    // 4-wide vertical AVX2; requires compiled-in support + CPU flag
};

/// True iff `backend` can run in this build on this machine.
bool KernelBackendSupported(KernelBackend backend);

/// Parses "scalar" / "avx2" / "auto" (auto = best supported). Returns
/// false on unknown names or unsupported explicit backends.
bool ParseKernelBackend(const std::string& name, KernelBackend* out);

/// Human-readable name of `backend`.
const char* KernelBackendName(KernelBackend backend);

/// Selects the process-global backend. Returns false (and leaves the
/// selection unchanged) if `backend` is unsupported here.
bool SetKernelBackend(KernelBackend backend);

/// The currently selected backend: the best supported one ("auto",
/// resolved on the first call) unless SetKernelBackend picked another.
KernelBackend ActiveKernelBackend();

/// A distance function bound to batch execution: metric + attribute
/// subspace (empty = full space), evaluated against a ColumnStore.
/// Construct via DistanceFn::MakeKernel(). Holds reusable scratch;
/// not thread-safe.
class DistanceKernel {
 public:
  DistanceKernel() = default;
  DistanceKernel(Metric metric, std::vector<int> attributes)
      : metric_(metric), attributes_(std::move(attributes)) {}

  Metric metric() const { return metric_; }
  const std::vector<int>& attributes() const { return attributes_; }

  /// out[i] = dist(probe, point seqs[i]) for i in [0, n). Every seq must
  /// be alive in `cols`; `probe` need not be (it is typically the point
  /// under evaluation, passed by row).
  void BatchDist(const ColumnStore& cols, const Point& probe,
                 const Seq* seqs, size_t n, double* out) const;

  /// out[i] = dist(probe, point lo + i) for i in [0, n): the contiguous
  /// alive range [lo, lo + n). Unit-stride column access (at most two
  /// segments at the ring seam) — use for cursor/window scans.
  void BatchDistRange(const ColumnStore& cols, const Point& probe, Seq lo,
                      size_t n, double* out) const;

  /// Stable in-place range confirmation: compacts the hits (dist <= r) to
  /// seqs[0..h) with dists[i] their distances, preserving order, and
  /// returns h. `dists` must have room for n doubles.
  size_t PartitionWithinR(const ColumnStore& cols, const Point& probe,
                          Seq* seqs, size_t n, double r,
                          double* dists) const;

  /// Resolves `probe`'s values and the column base pointers of the bound
  /// subspace in `cols` for KeyBlock: once per scan, not once per block.
  /// Stays valid until `cols` changes or another entry point runs.
  void StageProbe(const ColumnStore& cols, const Point& probe) const;

  /// keys[i] = key(probe, point lo + i) (see "Keys") for i in [0, n),
  /// 1 <= n <= 64, against the probe last staged with StageProbe: the
  /// contiguous alive range [lo, lo + n), both ring segments included.
  /// Returns the mask whose bit i is set iff keys[i] <= bound.
  uint64_t KeyBlock(const ColumnStore& cols, Seq lo, size_t n, double bound,
                    double* keys) const;

 private:
  // Resolves seqs to int32 ring slots into the scratch array.
  void StageSlots(const ColumnStore& cols, const Seq* seqs, size_t n) const;

  Metric metric_ = Metric::kEuclidean;
  std::vector<int> attributes_;  // empty = full space

  // Scratch staged per batch or per scan (see StageProbe); mutable so the
  // batch entry points stay const like DistanceFn::operator().
  mutable std::vector<const double*> col_ptrs_;
  mutable std::vector<double> probe_vals_;
  mutable std::vector<int32_t> slot_scratch_;
  mutable std::vector<double> dist_scratch_;
};

}  // namespace sop

#endif  // SOP_COMMON_DIST_KERNEL_H_
