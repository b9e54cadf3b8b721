// AVX2+FMA variant of the 4x16 micro-kernel: 16 ymm accumulators.
// Compiled with -mavx2 -mfma -mno-avx512f in its own TU so it stays a
// genuinely 256-bit code path even when the rest of the build targets
// AVX-512 — on VM classes that emulate or down-clock 512-bit ops this is
// the kernel the startup probe ends up installing.  MIPS_GEMM_NO_AVX2 is
// defined at configure time when the compiler cannot target AVX2.

#include "linalg/gemm_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX2)

#include <immintrin.h>

namespace mips {
namespace {

using Acc = __m256d[kGemmMR][4];

/// The tile over packed panels: 16 ymm accumulators, four loads, four
/// broadcasts and sixteen FMAs per depth step.
inline void PackedSteps(const Real* ap, const Real* bp, Index kb, Acc& acc) {
  for (Index i = 0; i < kGemmMR; ++i) {
    for (int v = 0; v < 4; ++v) acc[i][v] = _mm256_setzero_pd();
  }
  for (Index kk = 0; kk < kb; ++kk) {
    __m256d b[4];
    for (int v = 0; v < 4; ++v) {
      b[v] = _mm256_loadu_pd(bp + kk * kGemmNR + 4 * v);
    }
    for (Index i = 0; i < kGemmMR; ++i) {
      const __m256d a = _mm256_set1_pd(ap[kk * kGemmMR + i]);
      for (int v = 0; v < 4; ++v) {
        acc[i][v] = _mm256_fmadd_pd(a, b[v], acc[i][v]);
      }
    }
  }
}

/// The scorer's epilogue (gemm_kernel.h) for the 4 columns j0 .. j0 + 3
/// of the tile, whose rows' accumulators are acc[i]: 4 cells (and 4
/// bounds) per comparison.  Returns the columns' mask bits.
inline uint64_t ScoreEpilogue4(const __m256d (&acc)[kGemmMR], Index j0,
                               Real* c, bool accumulate,
                               const Real* thresholds, const Real* bounds) {
  const __m256d one = _mm256_set1_pd(1);
  uint64_t hits = 0;
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* cell = c + i * kGemmNR + j0;
    const __m256d v = _mm256_fmadd_pd(
        one, acc[i], accumulate ? _mm256_loadu_pd(cell) : _mm256_setzero_pd());
    _mm256_storeu_pd(cell, v);
    if (thresholds == nullptr) continue;
    const __m256d t = _mm256_set1_pd(thresholds[i]);
    __m256d hit = _mm256_cmp_pd(v, t, _CMP_GE_OQ);
    if (bounds != nullptr) {
      hit = _mm256_or_pd(
          hit, _mm256_cmp_pd(_mm256_loadu_pd(bounds + j0), t, _CMP_LT_OQ));
    }
    hits |= uint64_t{static_cast<uint32_t>(_mm256_movemask_pd(hit))}
            << (i * kGemmNR + j0);
  }
  return hits;
}

/// Transposes 4 rows of 4 doubles in registers: r[t] becomes element t of
/// every row, in row order.
inline void Transpose4x4(__m256d (&r)[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

}  // namespace

void GemmMicroKernelAvx2(const Real* ap, const Real* bp, Index kb, Real alpha,
                         Real* c, Index ldc) {
  Acc acc;
  PackedSteps(ap, bp, kb, acc);
  const __m256d valpha = _mm256_set1_pd(alpha);
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int v = 0; v < 4; ++v) {
      _mm256_storeu_pd(crow + 4 * v,
                       _mm256_fmadd_pd(valpha, acc[i][v],
                                       _mm256_loadu_pd(crow + 4 * v)));
    }
  }
}

uint64_t GemmMicroKernelScoreAvx2(const Real* ap, const Real* bp, Index kb,
                                  Real* c, bool accumulate,
                                  const Real* thresholds,
                                  const Real* bounds) {
  Acc acc;
  PackedSteps(ap, bp, kb, acc);
  uint64_t hits = 0;
  for (int v = 0; v < 4; ++v) {
    const __m256d column[kGemmMR] = {acc[0][v], acc[1][v], acc[2][v],
                                     acc[3][v]};
    hits |= ScoreEpilogue4(column, 4 * v, c, accumulate, thresholds, bounds);
  }
  return hits;
}

// The same steps over B in place, one group of 4 panel rows (4 columns of
// the tile) at a time, so that only its 4 accumulators are live.  Four
// depth steps at a time, the group is loaded as 4 rows of 4 values and
// transposed in registers into its 4 columns; rows past nr and depths
// past kb load as zero and are never read from memory.
uint64_t GemmMicroKernelRowsAvx2(const Real* ap, const Real* b, Index ldb,
                                 Index nr, Index kb, Real* c, bool accumulate,
                                 const Real* thresholds, const Real* bounds) {
  const auto ld = static_cast<std::size_t>(ldb);
  uint64_t hits = 0;
  for (Index j0 = 0; j0 < kGemmNR; j0 += 4) {
    __m256d acc[kGemmMR];
    for (Index i = 0; i < kGemmMR; ++i) acc[i] = _mm256_setzero_pd();
    for (Index k0 = 0; k0 < kb; k0 += 4) {
      const Index steps = kb - k0 < 4 ? kb - k0 : 4;
      __m256d col[4];
      if (steps == 4 && j0 + 4 <= nr) {
        for (Index j = 0; j < 4; ++j) {
          col[j] = _mm256_loadu_pd(b + (j0 + j) * ld + k0);
        }
      } else {
        const __m256i depth = _mm256_cmpgt_epi64(_mm256_set1_epi64x(steps),
                                                 _mm256_set_epi64x(3, 2, 1, 0));
        for (Index j = 0; j < 4; ++j) {
          col[j] = j0 + j < nr
                       ? _mm256_maskload_pd(b + (j0 + j) * ld + k0, depth)
                       : _mm256_setzero_pd();
        }
      }
      Transpose4x4(col);
      const Real* a = ap + static_cast<std::size_t>(k0) * kGemmMR;
#pragma GCC unroll 4
      for (Index t = 0; t < 4; ++t) {
        if (t == steps) break;
        for (Index i = 0; i < kGemmMR; ++i) {
          acc[i] = _mm256_fmadd_pd(_mm256_set1_pd(a[t * kGemmMR + i]),
                                   col[t], acc[i]);
        }
      }
    }
    hits |= ScoreEpilogue4(acc, j0, c, accumulate, thresholds, bounds);
  }
  return hits;
}

bool GemmAvx2KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX2

namespace mips {

void GemmMicroKernelAvx2(const Real* ap, const Real* bp, Index kb, Real alpha,
                         Real* c, Index ldc) {
  GemmMicroKernelPortable(ap, bp, kb, alpha, c, ldc);
}

uint64_t GemmMicroKernelScoreAvx2(const Real* ap, const Real* bp, Index kb,
                                  Real* c, bool accumulate,
                                  const Real* thresholds,
                                  const Real* bounds) {
  return GemmMicroKernelScorePortable(ap, bp, kb, c, accumulate, thresholds,
                                      bounds);
}

uint64_t GemmMicroKernelRowsAvx2(const Real* ap, const Real* b, Index ldb,
                                 Index nr, Index kb, Real* c, bool accumulate,
                                 const Real* thresholds, const Real* bounds) {
  return GemmMicroKernelRowsPortable(ap, b, ldb, nr, kb, c, accumulate,
                                     thresholds, bounds);
}

bool GemmAvx2KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX2
