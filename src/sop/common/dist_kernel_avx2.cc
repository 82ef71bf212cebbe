// AVX2 backend of the batch distance kernel. Compiled with -mavx2 (and
// ONLY -mavx2 — never -mfma: fused multiply-add would change rounding and
// break the bit-identity contract of dist_kernel.h); entered only after a
// runtime __builtin_cpu_supports("avx2") check.
//
// Vectorization is vertical: four candidates ride in the four vector
// lanes, each lane accumulating its own attribute-ascending sum with the
// same IEEE multiply/add/sqrt operations the scalar core uses, so every
// lane's result is bit-identical to the scalar computation. The key form
// compares the four keys with the bound in the same pass (an ordered
// compare, false for NaN, like the scalar `<=`) and moves the four sign
// bits into the mask. The tail (n % 4) falls through to the scalar core.

#if defined(SOP_KERNEL_HAVE_AVX2)

#include <immintrin.h>

#include "sop/common/dist_kernel_internal.h"

namespace sop::kernel_internal {

namespace {

// |x| via clearing the sign bit — same result as std::fabs.
inline __m256d Abs(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

}  // namespace

void Avx2BatchGather(Metric metric, const double* const* cols,
                     const double* probe, size_t ndims, const int32_t* slots,
                     size_t n, double* out) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(slots + j));
    __m256d acc = _mm256_setzero_pd();
    if (metric == Metric::kEuclidean) {
      for (size_t i = 0; i < ndims; ++i) {
        const __m256d v = _mm256_i32gather_pd(cols[i], idx, 8);
        const __m256d d = _mm256_sub_pd(_mm256_set1_pd(probe[i]), v);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
      }
      _mm256_storeu_pd(out + j, _mm256_sqrt_pd(acc));
    } else {
      for (size_t i = 0; i < ndims; ++i) {
        const __m256d v = _mm256_i32gather_pd(cols[i], idx, 8);
        const __m256d d = _mm256_sub_pd(_mm256_set1_pd(probe[i]), v);
        acc = _mm256_add_pd(acc, Abs(d));
      }
      _mm256_storeu_pd(out + j, acc);
    }
  }
  if (j < n) {
    ScalarBatchGather(metric, cols, probe, ndims, slots + j, n - j, out + j);
  }
}

namespace {

// The keys of the four contiguous candidates at cols[i][at .. at + 4).
inline __m256d ContigKeys(Metric metric, const double* const* cols,
                          const double* probe, size_t ndims, size_t at) {
  __m256d acc = _mm256_setzero_pd();
  if (metric == Metric::kEuclidean) {
    for (size_t i = 0; i < ndims; ++i) {
      const __m256d v = _mm256_loadu_pd(cols[i] + at);
      const __m256d d = _mm256_sub_pd(_mm256_set1_pd(probe[i]), v);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
  } else {
    for (size_t i = 0; i < ndims; ++i) {
      const __m256d v = _mm256_loadu_pd(cols[i] + at);
      const __m256d d = _mm256_sub_pd(_mm256_set1_pd(probe[i]), v);
      acc = _mm256_add_pd(acc, Abs(d));
    }
  }
  return acc;
}

}  // namespace

void Avx2BatchContig(Metric metric, const double* const* cols,
                     const double* probe, size_t ndims, size_t slot0,
                     size_t n, double* out) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d acc = ContigKeys(metric, cols, probe, ndims, slot0 + j);
    _mm256_storeu_pd(out + j, metric == Metric::kEuclidean
                                  ? _mm256_sqrt_pd(acc)
                                  : acc);
  }
  if (j < n) {
    ScalarBatchContig(metric, cols, probe, ndims, slot0 + j, n - j, out + j);
  }
}

uint64_t Avx2KeysContig(Metric metric, const double* const* cols,
                        const double* probe, size_t ndims, size_t slot0,
                        size_t n, double bound, double* keys) {
  const __m256d b = _mm256_set1_pd(bound);
  uint64_t mask = 0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d acc = ContigKeys(metric, cols, probe, ndims, slot0 + j);
    _mm256_storeu_pd(keys + j, acc);
    const int bits = _mm256_movemask_pd(_mm256_cmp_pd(acc, b, _CMP_LE_OQ));
    mask |= static_cast<uint64_t>(bits) << j;
  }
  if (j < n) {
    mask |= ScalarKeysContig(metric, cols, probe, ndims, slot0 + j, n - j,
                             bound, keys + j)
            << j;
  }
  return mask;
}

}  // namespace sop::kernel_internal

#endif  // SOP_KERNEL_HAVE_AVX2
