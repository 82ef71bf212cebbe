// Internal batch-loop primitives shared by the portable and AVX2 kernel
// translation units. Not part of the public API.
//
// Every form takes subspace-resolved inputs: `cols[i]` is the base pointer
// of the i-th bound attribute's column and `probe[i]` the probe's value in
// that attribute, for i in [0, ndims). The gather form reads candidate j
// at cols[i][slots[j]]; the contiguous forms at cols[i][slot0 + j]. The
// key form writes keys instead of distances (dist_kernel.h, "Keys") and
// returns the mask whose bit j is set iff keys[j] <= bound; n <= 64.

#ifndef SOP_COMMON_DIST_KERNEL_INTERNAL_H_
#define SOP_COMMON_DIST_KERNEL_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "sop/common/distance.h"

namespace sop::kernel_internal {

void ScalarBatchGather(Metric metric, const double* const* cols,
                       const double* probe, size_t ndims,
                       const int32_t* slots, size_t n, double* out);
void ScalarBatchContig(Metric metric, const double* const* cols,
                       const double* probe, size_t ndims, size_t slot0,
                       size_t n, double* out);
uint64_t ScalarKeysContig(Metric metric, const double* const* cols,
                          const double* probe, size_t ndims, size_t slot0,
                          size_t n, double bound, double* keys);

#if defined(SOP_KERNEL_HAVE_AVX2)
void Avx2BatchGather(Metric metric, const double* const* cols,
                     const double* probe, size_t ndims, const int32_t* slots,
                     size_t n, double* out);
void Avx2BatchContig(Metric metric, const double* const* cols,
                     const double* probe, size_t ndims, size_t slot0,
                     size_t n, double* out);
uint64_t Avx2KeysContig(Metric metric, const double* const* cols,
                        const double* probe, size_t ndims, size_t slot0,
                        size_t n, double bound, double* keys);
#endif  // SOP_KERNEL_HAVE_AVX2

}  // namespace sop::kernel_internal

#endif  // SOP_COMMON_DIST_KERNEL_INTERNAL_H_
