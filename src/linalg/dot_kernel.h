// Internal contract between the level-1 dot kernels
// (dot_kernel_{avx512,avx2,portable}.cc), the runtime dispatcher
// (simd_dispatch.cc), and blas.cc.  Not part of the public API — call
// Dot() (linalg/blas.h) to use the installed kernel.
//
// The carried PR 4 follow-up: the blocked GEMM got runtime SIMD dispatch,
// but the point-query scan paths (LEMP's incremental dots, FEXIPRO's
// partial products, the naive baseline, Gemv) still rode a single
// autovectorized Dot whose code generation depended on the global
// architecture flags.  These kernels mirror the GEMM design: one TU per
// ISA, compiled with exactly the flags it needs, selected at runtime by
// the SAME installed-kernel choice the GEMM probe makes (an AVX-512 unit
// that is emulated or down-clocked for GEMM is equally wrong for dots).
//
// Bit-for-bit contract: every variant computes the identical IEEE-754
// operation sequence — 8 accumulator lanes where lane j sums elements
// i = j (mod 8) with single-rounding fma, a scalar per-lane fma tail, and
// the fixed reduction tree ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)).  The
// portable variant runs 8 scalar std::fma chains; AVX2 maps lanes 0-3 /
// 4-7 onto two ymm registers; AVX-512 maps all 8 onto one zmm.  Per-lane
// chains are independent, so the vector width never changes a result:
// swapping kernels (or machines) cannot change any score derived from
// Dot, which keeps the per-kernel differential tests exact for the
// solvers that score through it.

#ifndef MIPS_LINALG_DOT_KERNEL_H_
#define MIPS_LINALG_DOT_KERNEL_H_

#include <cmath>

#include "common/types.h"

namespace mips {

/// Inner product <x, y> over n elements.
using DotKernelFn = Real (*)(const Real* x, const Real* y, Index n);

/// The three variants.  Every symbol exists in every binary; variants
/// whose ISA the compiler cannot target forward to the portable kernel
/// (which is bit-identical anyway) and report compiled-in = false.
Real DotKernelAvx512(const Real* x, const Real* y, Index n);
Real DotKernelAvx2(const Real* x, const Real* y, Index n);
Real DotKernelPortable(const Real* x, const Real* y, Index n);

/// Whether the real intrinsics body (not the portable forward) was
/// compiled into this binary.
bool DotAvx512KernelCompiled();
bool DotAvx2KernelCompiled();

/// The dot kernel matching the installed GEMM kernel (simd_dispatch.cc),
/// running the env override / startup probe first if nothing is installed
/// yet.  blas.cc's Dot() loads this once per call.
DotKernelFn ActiveDotKernel();

namespace internal {
namespace {

/// Shared tail + reduction for every dot-kernel variant: finish elements
/// [n8, n) with one scalar fma into lanes [0, n - n8), then reduce all 8
/// lanes in the fixed tree order.  n8 must be n rounded down to a
/// multiple of 8.  Scalar IEEE ops give the same result under any ISA
/// flags, but the instructions differ: the AVX TUs encode them with VEX.
/// Internal linkage (this unnamed namespace) gives each variant's TU its
/// own copy, compiled under its own flags.  An external-linkage inline
/// function would be one weak symbol, and the linker could hand the AVX2
/// TU's copy to the portable kernel (tests/isa_kernel_symbols.cmake
/// guards this).
inline Real ReduceDotLanes(Real lanes[8], const Real* x, const Real* y,
                           Index n8, Index n) {
  for (Index r = 0; n8 + r < n; ++r) {
    lanes[r] = std::fma(x[n8 + r], y[n8 + r], lanes[r]);
  }
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

}  // namespace
}  // namespace internal

}  // namespace mips

#endif  // MIPS_LINALG_DOT_KERNEL_H_
