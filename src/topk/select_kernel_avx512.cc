// AVX-512 variant of the selection scan: 8 scores (and 8 bounds) per
// comparison, four vectors per branch.  Compiled with -mavx512f in its
// own TU; MIPS_GEMM_NO_AVX512 is defined at configure time when the
// compiler cannot target AVX-512, in which case this TU forwards to the
// portable scan (same positions by the select_kernel.h contract).

#include "topk/select_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX512)

#include <immintrin.h>

#include <cstdint>

namespace mips {
namespace {

/// Bit j set when position p + j matches (select_kernel.h).
template <bool kBounds>
inline uint32_t Hits8(const Real* scores, const Real* bounds, Index p,
                      __m512d threshold) {
  __mmask8 hits =
      _mm512_cmp_pd_mask(_mm512_loadu_pd(scores + p), threshold, _CMP_GE_OQ);
  if constexpr (kBounds) {
    hits |= _mm512_cmp_pd_mask(_mm512_loadu_pd(bounds + p), threshold,
                               _CMP_LT_OQ);
  }
  return hits;
}

template <bool kBounds>
Index Scan(const Real* scores, const Real* bounds, Index p, Index n,
           Real threshold) {
  const __m512d t = _mm512_set1_pd(threshold);
  for (; p + 32 <= n; p += 32) {
    const uint32_t hits = Hits8<kBounds>(scores, bounds, p, t) |
                          (Hits8<kBounds>(scores, bounds, p + 8, t) << 8) |
                          (Hits8<kBounds>(scores, bounds, p + 16, t) << 16) |
                          (Hits8<kBounds>(scores, bounds, p + 24, t) << 24);
    if (hits != 0) return p + __builtin_ctz(hits);
  }
  for (; p + 8 <= n; p += 8) {
    const uint32_t hits = Hits8<kBounds>(scores, bounds, p, t);
    if (hits != 0) return p + __builtin_ctz(hits);
  }
  // The last n - p < 8 positions.
  return SelectScanPortable(scores, bounds, p, n, threshold);
}

}  // namespace

Index SelectScanAvx512(const Real* scores, const Real* bounds, Index begin,
                       Index n, Real threshold) {
  return bounds == nullptr
             ? Scan<false>(scores, bounds, begin, n, threshold)
             : Scan<true>(scores, bounds, begin, n, threshold);
}

bool SelectAvx512KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX512

namespace mips {

Index SelectScanAvx512(const Real* scores, const Real* bounds, Index begin,
                       Index n, Real threshold) {
  return SelectScanPortable(scores, bounds, begin, n, threshold);
}

bool SelectAvx512KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX512
