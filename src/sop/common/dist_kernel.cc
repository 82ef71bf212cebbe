#include "sop/common/dist_kernel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>

#include "sop/common/check.h"
#include "sop/common/dist_kernel_internal.h"

namespace sop {

namespace {

// Process-global backend selection. Written at startup (flag parsing) and
// read per batch; relaxed atomics keep reads free on the hot path while
// staying clean under tsan if a server thread flips it. Until a caller
// picks a backend it holds kUnresolved, and the first read resolves the
// default ("auto"): a namespace-scope initializer could probe the CPU
// before the compiler runtime's feature detection has run.
constexpr int kUnresolved = -1;
std::atomic<int> g_backend{kUnresolved};

KernelBackend BestBackend() {
  return KernelBackendSupported(KernelBackend::kAvx2) ? KernelBackend::kAvx2
                                                      : KernelBackend::kScalar;
}

}  // namespace

bool KernelBackendSupported(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return true;
    case KernelBackend::kAvx2:
#if defined(SOP_KERNEL_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

bool ParseKernelBackend(const std::string& name, KernelBackend* out) {
  if (name == "scalar") {
    *out = KernelBackend::kScalar;
    return true;
  }
  if (name == "avx2") {
    if (!KernelBackendSupported(KernelBackend::kAvx2)) return false;
    *out = KernelBackend::kAvx2;
    return true;
  }
  if (name == "auto") {
    *out = BestBackend();
    return true;
  }
  return false;
}

const char* KernelBackendName(KernelBackend backend) {
  switch (backend) {
    case KernelBackend::kScalar:
      return "scalar";
    case KernelBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SetKernelBackend(KernelBackend backend) {
  if (!KernelBackendSupported(backend)) return false;
  g_backend.store(static_cast<int>(backend), std::memory_order_relaxed);
  return true;
}

KernelBackend ActiveKernelBackend() {
  int backend = g_backend.load(std::memory_order_relaxed);
  if (backend == kUnresolved) {
    // A racing SetKernelBackend wins over the default.
    const int best = static_cast<int>(BestBackend());
    if (g_backend.compare_exchange_strong(backend, best,
                                          std::memory_order_relaxed)) {
      backend = best;
    }
  }
  return static_cast<KernelBackend>(backend);
}

namespace kernel_internal {

// Portable batch cores. The j-loops accumulate each candidate's terms in
// attribute-ascending order — exactly DistanceFn's per-pair order — so the
// result is bit-identical however the compiler vectorizes across j (each
// lane is an independent accumulator).

void ScalarBatchGather(Metric metric, const double* const* cols,
                       const double* probe, size_t ndims,
                       const int32_t* slots, size_t n, double* out) {
  for (size_t j = 0; j < n; ++j) out[j] = 0.0;
  switch (metric) {
    case Metric::kEuclidean:
      for (size_t i = 0; i < ndims; ++i) {
        const double pv = probe[i];
        const double* c = cols[i];
        for (size_t j = 0; j < n; ++j) {
          const double d = pv - c[static_cast<size_t>(slots[j])];
          out[j] += d * d;
        }
      }
      for (size_t j = 0; j < n; ++j) out[j] = std::sqrt(out[j]);
      break;
    case Metric::kManhattan:
      for (size_t i = 0; i < ndims; ++i) {
        const double pv = probe[i];
        const double* c = cols[i];
        for (size_t j = 0; j < n; ++j) {
          out[j] += std::fabs(pv - c[static_cast<size_t>(slots[j])]);
        }
      }
      break;
  }
}

void ScalarBatchContig(Metric metric, const double* const* cols,
                       const double* probe, size_t ndims, size_t slot0,
                       size_t n, double* out) {
  for (size_t j = 0; j < n; ++j) out[j] = 0.0;
  switch (metric) {
    case Metric::kEuclidean:
      for (size_t i = 0; i < ndims; ++i) {
        const double pv = probe[i];
        const double* c = cols[i] + slot0;
        for (size_t j = 0; j < n; ++j) {
          const double d = pv - c[j];
          out[j] += d * d;
        }
      }
      for (size_t j = 0; j < n; ++j) out[j] = std::sqrt(out[j]);
      break;
    case Metric::kManhattan:
      for (size_t i = 0; i < ndims; ++i) {
        const double pv = probe[i];
        const double* c = cols[i] + slot0;
        for (size_t j = 0; j < n; ++j) {
          out[j] += std::fabs(pv - c[j]);
        }
      }
      break;
  }
}

}  // namespace kernel_internal

namespace {

void DispatchGather(Metric metric, const double* const* cols,
                    const double* probe, size_t ndims, const int32_t* slots,
                    size_t n, double* out) {
#if defined(SOP_KERNEL_HAVE_AVX2)
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    kernel_internal::Avx2BatchGather(metric, cols, probe, ndims, slots, n,
                                     out);
    return;
  }
#endif
  kernel_internal::ScalarBatchGather(metric, cols, probe, ndims, slots, n,
                                     out);
}

void DispatchContig(Metric metric, const double* const* cols,
                    const double* probe, size_t ndims, size_t slot0, size_t n,
                    double* out) {
#if defined(SOP_KERNEL_HAVE_AVX2)
  if (ActiveKernelBackend() == KernelBackend::kAvx2) {
    kernel_internal::Avx2BatchContig(metric, cols, probe, ndims, slot0, n,
                                     out);
    return;
  }
#endif
  kernel_internal::ScalarBatchContig(metric, cols, probe, ndims, slot0, n,
                                     out);
}

}  // namespace

void DistanceKernel::Stage(const ColumnStore& cols, const Point& probe) const {
  if (attributes_.empty()) {
    const size_t nd = cols.num_dims();
    SOP_DCHECK(probe.values.size() == nd);
    col_ptrs_.resize(nd);
    probe_vals_.resize(nd);
    for (size_t d = 0; d < nd; ++d) {
      col_ptrs_[d] = cols.Column(d);
      probe_vals_[d] = probe.values[d];
    }
  } else {
    SOP_DCHECK(static_cast<size_t>(attributes_.back()) < probe.values.size());
    SOP_DCHECK(static_cast<size_t>(attributes_.back()) < cols.num_dims());
    const size_t nd = attributes_.size();
    col_ptrs_.resize(nd);
    probe_vals_.resize(nd);
    for (size_t i = 0; i < nd; ++i) {
      const size_t d = static_cast<size_t>(attributes_[i]);
      col_ptrs_[i] = cols.Column(d);
      probe_vals_[i] = probe.values[d];
    }
  }
}

void DistanceKernel::StageSlots(const ColumnStore& cols, const Seq* seqs,
                                size_t n) const {
  SOP_DCHECK(cols.capacity() <= static_cast<size_t>(INT32_MAX));
  slot_scratch_.resize(n);
  for (size_t j = 0; j < n; ++j) {
    slot_scratch_[j] = static_cast<int32_t>(cols.SlotOf(seqs[j]));
  }
}

void DistanceKernel::BatchDist(const ColumnStore& cols, const Point& probe,
                               const Seq* seqs, size_t n, double* out) const {
  if (n == 0) return;
  Stage(cols, probe);
  StageSlots(cols, seqs, n);
  DispatchGather(metric_, col_ptrs_.data(), probe_vals_.data(),
                 col_ptrs_.size(), slot_scratch_.data(), n, out);
}

void DistanceKernel::BatchDistRange(const ColumnStore& cols,
                                    const Point& probe, Seq lo, size_t n,
                                    double* out) const {
  if (n == 0) return;
  SOP_DCHECK(cols.Contains(lo));
  SOP_DCHECK(cols.Contains(lo + static_cast<Seq>(n) - 1));
  Stage(cols, probe);
  // The alive range occupies at most two contiguous slot segments (one
  // wrap at the ring seam).
  const size_t slot0 = cols.SlotOf(lo);
  const size_t seg = std::min(n, cols.capacity() - slot0);
  DispatchContig(metric_, col_ptrs_.data(), probe_vals_.data(),
                 col_ptrs_.size(), slot0, seg, out);
  if (seg < n) {
    DispatchContig(metric_, col_ptrs_.data(), probe_vals_.data(),
                   col_ptrs_.size(), 0, n - seg, out + seg);
  }
}

size_t DistanceKernel::PartitionWithinR(const ColumnStore& cols,
                                        const Point& probe, Seq* seqs,
                                        size_t n, double r,
                                        double* dists) const {
  if (n == 0) return 0;
  dist_scratch_.resize(n);
  BatchDist(cols, probe, seqs, n, dist_scratch_.data());
  size_t hits = 0;
  for (size_t j = 0; j < n; ++j) {
    if (dist_scratch_[j] <= r) {
      seqs[hits] = seqs[j];
      dists[hits] = dist_scratch_[j];
      ++hits;
    }
  }
  return hits;
}

DistanceKernel DistanceFn::MakeKernel() const {
  return DistanceKernel(metric(), attributes());
}

}  // namespace sop
