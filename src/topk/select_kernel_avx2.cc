// AVX2 variant of the selection scan: 4 scores (and 4 bounds) per
// comparison, four vectors per branch.  Compiled with -mavx2 -mfma
// -mno-avx512f in its own TU so it stays a 256-bit code path whatever the
// global flags; MIPS_GEMM_NO_AVX2 is defined at configure time when the
// compiler cannot target AVX2, in which case this TU forwards to the
// portable scan (same positions by the select_kernel.h contract).

#include "topk/select_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX2)

#include <immintrin.h>

#include <cstdint>

namespace mips {
namespace {

/// Bit j set when position p + j matches (select_kernel.h).
template <bool kBounds>
inline uint32_t Hits4(const Real* scores, const Real* bounds, Index p,
                      __m256d threshold) {
  __m256d hits =
      _mm256_cmp_pd(_mm256_loadu_pd(scores + p), threshold, _CMP_GE_OQ);
  if constexpr (kBounds) {
    hits = _mm256_or_pd(hits, _mm256_cmp_pd(_mm256_loadu_pd(bounds + p),
                                            threshold, _CMP_LT_OQ));
  }
  return static_cast<uint32_t>(_mm256_movemask_pd(hits));
}

template <bool kBounds>
Index Scan(const Real* scores, const Real* bounds, Index p, Index n,
           Real threshold) {
  const __m256d t = _mm256_set1_pd(threshold);
  for (; p + 16 <= n; p += 16) {
    const uint32_t hits = Hits4<kBounds>(scores, bounds, p, t) |
                          (Hits4<kBounds>(scores, bounds, p + 4, t) << 4) |
                          (Hits4<kBounds>(scores, bounds, p + 8, t) << 8) |
                          (Hits4<kBounds>(scores, bounds, p + 12, t) << 12);
    if (hits != 0) return p + __builtin_ctz(hits);
  }
  for (; p + 4 <= n; p += 4) {
    const uint32_t hits = Hits4<kBounds>(scores, bounds, p, t);
    if (hits != 0) return p + __builtin_ctz(hits);
  }
  // The last n - p < 4 positions.
  return SelectScanPortable(scores, bounds, p, n, threshold);
}

}  // namespace

Index SelectScanAvx2(const Real* scores, const Real* bounds, Index begin,
                     Index n, Real threshold) {
  return bounds == nullptr
             ? Scan<false>(scores, bounds, begin, n, threshold)
             : Scan<true>(scores, bounds, begin, n, threshold);
}

bool SelectAvx2KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX2

namespace mips {

Index SelectScanAvx2(const Real* scores, const Real* bounds, Index begin,
                     Index n, Real threshold) {
  return SelectScanPortable(scores, bounds, begin, n, threshold);
}

bool SelectAvx2KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX2
