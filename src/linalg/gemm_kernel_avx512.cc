// AVX-512 variant of the 4x16 micro-kernel.  Compiled with -mavx512f in
// its own TU (see src/linalg/CMakeLists.txt) so the binary carries it even
// when the rest of the build targets a smaller ISA; executed only after
// the dispatcher verified CPUID support.  MIPS_GEMM_NO_AVX512 is defined
// at configure time when the compiler cannot target AVX-512 at all.

#include "linalg/gemm_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX512)

#include <immintrin.h>

namespace mips {

// 8 zmm accumulators, one broadcast + two FMAs per (k, row) step.  This
// is where BMM's "decades of hardware optimization" constant factor comes
// from — on hardware whose 512-bit units are real, not emulated.
void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc) {
  __m512d acc00 = _mm512_setzero_pd(), acc01 = _mm512_setzero_pd();
  __m512d acc10 = _mm512_setzero_pd(), acc11 = _mm512_setzero_pd();
  __m512d acc20 = _mm512_setzero_pd(), acc21 = _mm512_setzero_pd();
  __m512d acc30 = _mm512_setzero_pd(), acc31 = _mm512_setzero_pd();
  for (Index kk = 0; kk < kb; ++kk) {
    const __m512d b0 = _mm512_loadu_pd(bp + kk * kGemmNR);
    const __m512d b1 = _mm512_loadu_pd(bp + kk * kGemmNR + 8);
    const __m512d a0 = _mm512_set1_pd(ap[kk * kGemmMR + 0]);
    acc00 = _mm512_fmadd_pd(a0, b0, acc00);
    acc01 = _mm512_fmadd_pd(a0, b1, acc01);
    const __m512d a1 = _mm512_set1_pd(ap[kk * kGemmMR + 1]);
    acc10 = _mm512_fmadd_pd(a1, b0, acc10);
    acc11 = _mm512_fmadd_pd(a1, b1, acc11);
    const __m512d a2 = _mm512_set1_pd(ap[kk * kGemmMR + 2]);
    acc20 = _mm512_fmadd_pd(a2, b0, acc20);
    acc21 = _mm512_fmadd_pd(a2, b1, acc21);
    const __m512d a3 = _mm512_set1_pd(ap[kk * kGemmMR + 3]);
    acc30 = _mm512_fmadd_pd(a3, b0, acc30);
    acc31 = _mm512_fmadd_pd(a3, b1, acc31);
  }
  const __m512d valpha = _mm512_set1_pd(alpha);
  const auto update = [&](Real* crow, __m512d lo, __m512d hi) {
    _mm512_storeu_pd(crow,
                     _mm512_fmadd_pd(valpha, lo, _mm512_loadu_pd(crow)));
    _mm512_storeu_pd(crow + 8,
                     _mm512_fmadd_pd(valpha, hi, _mm512_loadu_pd(crow + 8)));
  };
  update(c + 0 * static_cast<std::size_t>(ldc), acc00, acc01);
  update(c + 1 * static_cast<std::size_t>(ldc), acc10, acc11);
  update(c + 2 * static_cast<std::size_t>(ldc), acc20, acc21);
  update(c + 3 * static_cast<std::size_t>(ldc), acc30, acc31);
}

namespace {

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

/// One depth step of the tile: acc[i][h] = fma(a[i], b_h, acc[i][h]).
inline void Step(const Real* a, __m512d b0, __m512d b1,
                 __m512d (&acc)[kGemmMR][2]) {
  for (Index i = 0; i < kGemmMR; ++i) {
    const __m512d ai = _mm512_set1_pd(a[i]);
    acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
    acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
  }
}

}  // namespace

// The same steps over B in place.  Eight depth steps at a time, each
// half of the panel is loaded as 8 rows of 8 values and transposed in
// registers into its 8 columns; rows past nr and depths past kb load as
// zero and are never read from memory.  Whole blocks of a whole panel
// take plain loads and a fully unrolled step loop: one masked path for
// every block ran 1.2-2x slower.
void GemmMicroKernelRowsAvx512(const Real* ap, const Real* b, Index ldb,
                               Index nr, Index kb, Real alpha, Real* c,
                               Index ldc) {
  const auto ld = static_cast<std::size_t>(ldb);
  __m512d acc[kGemmMR][2];
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
  const __m512d valpha = _mm512_set1_pd(alpha);
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    _mm512_storeu_pd(
        crow, _mm512_fmadd_pd(valpha, acc[i][0], _mm512_loadu_pd(crow)));
    _mm512_storeu_pd(crow + 8, _mm512_fmadd_pd(valpha, acc[i][1],
                                               _mm512_loadu_pd(crow + 8)));
  }
}

bool GemmAvx512KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX512

namespace mips {

void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc) {
  GemmMicroKernelPortable(ap, bp, kb, alpha, c, ldc);
}

void GemmMicroKernelRowsAvx512(const Real* ap, const Real* b, Index ldb,
                               Index nr, Index kb, Real alpha, Real* c,
                               Index ldc) {
  GemmMicroKernelRowsPortable(ap, b, ldb, nr, kb, alpha, c, ldc);
}

bool GemmAvx512KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX512
