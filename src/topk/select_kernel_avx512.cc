// AVX-512 variant of the tile scan: 8 cells (and 8 bounds) per
// comparison, two vectors per tile row.  Compiled with -mavx512f in its
// own TU; MIPS_GEMM_NO_AVX512 is defined at configure time when the
// compiler cannot target AVX-512, in which case this TU forwards to the
// portable scan (same mask by the select_kernel.h contract).

#include "topk/select_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX512)

#include <immintrin.h>

namespace mips {
namespace {

/// Bit j set when cell p + j matches (select_kernel.h).
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
uint64_t Tile(const Real* tile, const Real* bounds, const Real* thresholds) {
  static_assert(kGemmNR == 16, "two vectors per tile row");
  uint64_t hits = 0;
  for (Index r = 0; r < kGemmMR; ++r) {
    const __m512d t = _mm512_set1_pd(thresholds[r]);
    const Real* row = tile + r * kGemmNR;
    const uint64_t row_hits = Hits8<kBounds>(row, bounds, 0, t) |
                              (Hits8<kBounds>(row, bounds, 8, t) << 8);
    hits |= row_hits << (r * kGemmNR);
  }
  return hits;
}

}  // namespace

uint64_t SelectTileAvx512(const Real* tile, const Real* bounds,
                          const Real* thresholds) {
  return bounds == nullptr ? Tile<false>(tile, bounds, thresholds)
                           : Tile<true>(tile, bounds, thresholds);
}

bool SelectAvx512KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX512

namespace mips {

uint64_t SelectTileAvx512(const Real* tile, const Real* bounds,
                          const Real* thresholds) {
  return SelectTilePortable(tile, bounds, thresholds);
}

bool SelectAvx512KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX512
