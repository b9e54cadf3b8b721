// AVX-512 variant of the 4x16 micro-kernel.  Compiled with -mavx512f in
// its own TU (see src/linalg/CMakeLists.txt) so the binary carries it even
// when the rest of the build targets a smaller ISA; executed only after
// the dispatcher verified CPUID support.  MIPS_GEMM_NO_AVX512 is defined
// at configure time when the compiler cannot target AVX-512 at all.

#include "linalg/gemm_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX512)

#include <immintrin.h>

namespace mips {
namespace {

using Acc = __m512d[kGemmMR][2];

/// One depth step of the tile: acc[i][h] = fma(a[i], b_h, acc[i][h]).
inline void Step(const Real* a, __m512d b0, __m512d b1, Acc& acc) {
  for (Index i = 0; i < kGemmMR; ++i) {
    const __m512d ai = _mm512_set1_pd(a[i]);
    acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
    acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
  }
}

/// The tile over packed panels: 8 zmm accumulators, one broadcast and
/// two FMAs per (k, row) step.  This is where BMM's "decades of hardware
/// optimization" constant factor comes from — on hardware whose 512-bit
/// units are real, not emulated.
inline void PackedSteps(const Real* ap, const Real* bp, Index kb, Acc& acc) {
  for (Index i = 0; i < kGemmMR; ++i) {
    acc[i][0] = _mm512_setzero_pd();
    acc[i][1] = _mm512_setzero_pd();
  }
  for (Index kk = 0; kk < kb; ++kk) {
    Step(ap + kk * kGemmMR, _mm512_loadu_pd(bp + kk * kGemmNR),
         _mm512_loadu_pd(bp + kk * kGemmNR + 8), acc);
  }
}

/// The scorer's epilogue (gemm_kernel.h): 8 cells (and 8 bounds) per
/// comparison, two vectors per tile row.
inline uint64_t ScoreEpilogue(const Acc& acc, Real* c, bool accumulate,
                              const Real* thresholds, const Real* bounds) {
  const __m512d one = _mm512_set1_pd(1);
  uint64_t hits = 0;
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + i * kGemmNR;
    const __m512d lo = _mm512_fmadd_pd(
        one, acc[i][0],
        accumulate ? _mm512_loadu_pd(crow) : _mm512_setzero_pd());
    const __m512d hi = _mm512_fmadd_pd(
        one, acc[i][1],
        accumulate ? _mm512_loadu_pd(crow + 8) : _mm512_setzero_pd());
    _mm512_storeu_pd(crow, lo);
    _mm512_storeu_pd(crow + 8, hi);
    if (thresholds == nullptr) continue;
    const __m512d t = _mm512_set1_pd(thresholds[i]);
    uint32_t row = _mm512_cmp_pd_mask(lo, t, _CMP_GE_OQ) |
                   (uint32_t{_mm512_cmp_pd_mask(hi, t, _CMP_GE_OQ)} << 8);
    if (bounds != nullptr) {
      row |= _mm512_cmp_pd_mask(_mm512_loadu_pd(bounds), t, _CMP_LT_OQ) |
             (uint32_t{_mm512_cmp_pd_mask(_mm512_loadu_pd(bounds + 8), t,
                                          _CMP_LT_OQ)}
              << 8);
    }
    hits |= uint64_t{row} << (i * kGemmNR);
  }
  return hits;
}

/// Transposes 8 rows of 8 doubles in registers: r[t] becomes element t of
/// every row, in row order.
inline void Transpose8x8(__m512d (&r)[8]) {
  const __m512d t0 = _mm512_unpacklo_pd(r[0], r[1]);
  const __m512d t1 = _mm512_unpackhi_pd(r[0], r[1]);
  const __m512d t2 = _mm512_unpacklo_pd(r[2], r[3]);
  const __m512d t3 = _mm512_unpackhi_pd(r[2], r[3]);
  const __m512d t4 = _mm512_unpacklo_pd(r[4], r[5]);
  const __m512d t5 = _mm512_unpackhi_pd(r[4], r[5]);
  const __m512d t6 = _mm512_unpacklo_pd(r[6], r[7]);
  const __m512d t7 = _mm512_unpackhi_pd(r[6], r[7]);
  const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
  const __m512d u1 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
  const __m512d u2 = _mm512_shuffle_f64x2(t1, t3, 0x88);
  const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
  const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
  const __m512d u5 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
  const __m512d u6 = _mm512_shuffle_f64x2(t5, t7, 0x88);
  const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);
  r[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
  r[1] = _mm512_shuffle_f64x2(u2, u6, 0x88);
  r[2] = _mm512_shuffle_f64x2(u1, u5, 0x88);
  r[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
  r[4] = _mm512_shuffle_f64x2(u0, u4, 0xDD);
  r[5] = _mm512_shuffle_f64x2(u2, u6, 0xDD);
  r[6] = _mm512_shuffle_f64x2(u1, u5, 0xDD);
  r[7] = _mm512_shuffle_f64x2(u3, u7, 0xDD);
}

/// Loads 8 depth values of panel rows j0 .. j0 + 7 (row j at p + j * ld)
/// into r, one row per register.  Unless kFull, depths past `depth`'s
/// lanes and rows at or past nr load as zero and are not read.
template <bool kFull>
inline void LoadRows(const Real* p, std::size_t ld, Index j0, Index nr,
                     __mmask8 depth, __m512d (&r)[8]) {
  for (Index j = 0; j < 8; ++j) {
    const Index at = j0 + j;
    if constexpr (kFull) {
      r[j] = _mm512_loadu_pd(p + at * ld);
    } else {
      r[j] = at < nr ? _mm512_maskz_loadu_pd(depth, p + at * ld)
                     : _mm512_setzero_pd();
    }
  }
}

}  // namespace

void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc) {
  Acc acc;
  PackedSteps(ap, bp, kb, acc);
  const __m512d valpha = _mm512_set1_pd(alpha);
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    _mm512_storeu_pd(
        crow, _mm512_fmadd_pd(valpha, acc[i][0], _mm512_loadu_pd(crow)));
    _mm512_storeu_pd(crow + 8, _mm512_fmadd_pd(valpha, acc[i][1],
                                               _mm512_loadu_pd(crow + 8)));
  }
}

uint64_t GemmMicroKernelScoreAvx512(const Real* ap, const Real* bp, Index kb,
                                    Real* c, bool accumulate,
                                    const Real* thresholds,
                                    const Real* bounds) {
  Acc acc;
  PackedSteps(ap, bp, kb, acc);
  return ScoreEpilogue(acc, c, accumulate, thresholds, bounds);
}

// The same steps over B in place.  Eight depth steps at a time, each
// half of the panel is loaded as 8 rows of 8 values and transposed in
// registers into its 8 columns; rows past nr and depths past kb load as
// zero and are never read from memory.  Whole blocks of a whole panel
// take plain loads and a fully unrolled step loop: one masked path for
// every block ran 1.2-2x slower.
uint64_t GemmMicroKernelRowsAvx512(const Real* ap, const Real* b, Index ldb,
                                   Index nr, Index kb, Real* c,
                                   bool accumulate, const Real* thresholds,
                                   const Real* bounds) {
  const auto ld = static_cast<std::size_t>(ldb);
  Acc acc;
  for (Index i = 0; i < kGemmMR; ++i) {
    acc[i][0] = _mm512_setzero_pd();
    acc[i][1] = _mm512_setzero_pd();
  }
  for (Index k0 = 0; k0 < kb; k0 += 8) {
    const Index steps = kb - k0 < 8 ? kb - k0 : 8;
    const Real* a = ap + static_cast<std::size_t>(k0) * kGemmMR;
    __m512d lo[8];
    __m512d hi[8];
    if (steps == 8 && nr == kGemmNR) {
      LoadRows<true>(b + k0, ld, 0, nr, 0xFF, lo);
      LoadRows<true>(b + k0, ld, 8, nr, 0xFF, hi);
      Transpose8x8(lo);
      Transpose8x8(hi);
#pragma GCC unroll 8
      for (Index t = 0; t < 8; ++t) Step(a + t * kGemmMR, lo[t], hi[t], acc);
    } else {
      const auto depth = static_cast<__mmask8>((1u << steps) - 1);
      LoadRows<false>(b + k0, ld, 0, nr, depth, lo);
      LoadRows<false>(b + k0, ld, 8, nr, depth, hi);
      Transpose8x8(lo);
      Transpose8x8(hi);
      for (Index t = 0; t < steps; ++t) {
        Step(a + t * kGemmMR, lo[t], hi[t], acc);
      }
    }
  }
  return ScoreEpilogue(acc, c, accumulate, thresholds, bounds);
}

bool GemmAvx512KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX512

namespace mips {

void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc) {
  GemmMicroKernelPortable(ap, bp, kb, alpha, c, ldc);
}

uint64_t GemmMicroKernelScoreAvx512(const Real* ap, const Real* bp, Index kb,
                                    Real* c, bool accumulate,
                                    const Real* thresholds,
                                    const Real* bounds) {
  return GemmMicroKernelScorePortable(ap, bp, kb, c, accumulate, thresholds,
                                      bounds);
}

uint64_t GemmMicroKernelRowsAvx512(const Real* ap, const Real* b, Index ldb,
                                   Index nr, Index kb, Real* c,
                                   bool accumulate, const Real* thresholds,
                                   const Real* bounds) {
  return GemmMicroKernelRowsPortable(ap, b, ldb, nr, kb, c, accumulate,
                                     thresholds, bounds);
}

bool GemmAvx512KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX512
