// AVX2 variant of the tile scan: 4 cells (and 4 bounds) per comparison,
// four vectors per tile row.  Compiled with -mavx2 -mfma -mno-avx512f in
// its own TU so it stays a 256-bit code path whatever the global flags;
// MIPS_GEMM_NO_AVX2 is defined at configure time when the compiler cannot
// target AVX2, in which case this TU forwards to the portable scan (same
// mask by the select_kernel.h contract).

#include "topk/select_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX2)

#include <immintrin.h>

namespace mips {
namespace {

/// Bit j set when cell p + j matches (select_kernel.h).
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
uint64_t Tile(const Real* tile, const Real* bounds, const Real* thresholds) {
  static_assert(kGemmNR == 16, "four vectors per tile row");
  uint64_t hits = 0;
  for (Index r = 0; r < kGemmMR; ++r) {
    const __m256d t = _mm256_set1_pd(thresholds[r]);
    const Real* row = tile + r * kGemmNR;
    const uint64_t row_hits = Hits4<kBounds>(row, bounds, 0, t) |
                              (Hits4<kBounds>(row, bounds, 4, t) << 4) |
                              (Hits4<kBounds>(row, bounds, 8, t) << 8) |
                              (Hits4<kBounds>(row, bounds, 12, t) << 12);
    hits |= row_hits << (r * kGemmNR);
  }
  return hits;
}

}  // namespace

uint64_t SelectTileAvx2(const Real* tile, const Real* bounds,
                        const Real* thresholds) {
  return bounds == nullptr ? Tile<false>(tile, bounds, thresholds)
                           : Tile<true>(tile, bounds, thresholds);
}

bool SelectAvx2KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX2

namespace mips {

uint64_t SelectTileAvx2(const Real* tile, const Real* bounds,
                        const Real* thresholds) {
  return SelectTilePortable(tile, bounds, thresholds);
}

bool SelectAvx2KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX2
