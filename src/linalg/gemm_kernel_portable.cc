// Portable variant of the 4x16 micro-kernel — the fallback every binary
// can run, and the reference the per-kernel differential tests compare
// the SIMD variants against.
//
// The accumulation uses std::fma, not a separate multiply+add: fused
// multiply-add is single-rounding by IEEE 754-2008, exactly like the
// vfmadd instructions in the AVX kernels, so all three variants produce
// bit-for-bit identical C elements (see gemm_kernel.h).  When this TU is
// compiled for an FMA-capable target std::fma inlines to that
// instruction; on pre-FMA targets it falls back to libm's correctly
// rounded implementation — slower, but the probe only installs this
// kernel when nothing faster is supported, and correctness is identical.

#include "linalg/gemm_kernel.h"

#include <cmath>

namespace mips {
namespace {

using Tile = Real[kGemmMR][kGemmNR];

/// One depth step: acc[i][j] = fma(arow[i], brow[j], acc[i][j]).
void Step(const Real* arow, const Real* brow, Tile& acc) {
  for (Index i = 0; i < kGemmMR; ++i) {
    const Real aval = arow[i];
    for (Index j = 0; j < kGemmNR; ++j) {
      acc[i][j] = std::fma(aval, brow[j], acc[i][j]);
    }
  }
}

/// c[i][j] = fma(alpha, acc[i][j], c[i][j]).
void Update(const Tile& acc, Real alpha, Real* c, Index ldc) {
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (Index j = 0; j < kGemmNR; ++j) {
      crow[j] = std::fma(alpha, acc[i][j], crow[j]);
    }
  }
}

/// The scorer's epilogue (gemm_kernel.h), one cell (and bound) per
/// comparison.  It defines the masks the SIMD variants must return.
uint64_t ScoreEpilogue(const Tile& acc, Real* c, bool accumulate,
                       const Real* thresholds, const Real* bounds) {
  uint64_t hits = 0;
  for (Index i = 0; i < kGemmMR; ++i) {
    Real* crow = c + i * kGemmNR;
    for (Index j = 0; j < kGemmNR; ++j) {
      crow[j] = std::fma(Real{1}, acc[i][j], accumulate ? crow[j] : Real{0});
      if (thresholds == nullptr) continue;
      const bool hit = crow[j] >= thresholds[i] ||
                       (bounds != nullptr && bounds[j] < thresholds[i]);
      hits |= static_cast<uint64_t>(hit) << (i * kGemmNR + j);
    }
  }
  return hits;
}

/// acc over the packed panels.
void PackedSteps(const Real* ap, const Real* bp, Index kb, Tile& acc) {
  for (Index kk = 0; kk < kb; ++kk) {
    Step(ap + kk * kGemmMR, bp + kk * kGemmNR, acc);
  }
}

}  // namespace

void GemmMicroKernelPortable(const Real* ap, const Real* bp, Index kb,
                             Real alpha, Real* c, Index ldc) {
  Tile acc = {};
  PackedSteps(ap, bp, kb, acc);
  Update(acc, alpha, c, ldc);
}

uint64_t GemmMicroKernelScorePortable(const Real* ap, const Real* bp,
                                      Index kb, Real* c, bool accumulate,
                                      const Real* thresholds,
                                      const Real* bounds) {
  Tile acc = {};
  PackedSteps(ap, bp, kb, acc);
  return ScoreEpilogue(acc, c, accumulate, thresholds, bounds);
}

uint64_t GemmMicroKernelRowsPortable(const Real* ap, const Real* b, Index ldb,
                                     Index nr, Index kb, Real* c,
                                     bool accumulate, const Real* thresholds,
                                     const Real* bounds) {
  Tile acc = {};
  Real brow[kGemmNR] = {};
  for (Index kk = 0; kk < kb; ++kk) {
    for (Index j = 0; j < nr; ++j) {
      brow[j] = b[static_cast<std::size_t>(j) * ldb + kk];
    }
    Step(ap + kk * kGemmMR, brow, acc);
  }
  return ScoreEpilogue(acc, c, accumulate, thresholds, bounds);
}

}  // namespace mips
