// Internal contract between the blocked GEMM driver (gemm.cc), the SIMD
// micro-kernel variants (gemm_kernel_{avx512,avx2,portable}.cc), and the
// runtime dispatcher (simd_dispatch.cc).  Not part of the public API —
// include linalg/simd_dispatch.h to choose or inspect kernels.
//
// One binary carries every variant: each variant lives in its own
// translation unit compiled with exactly the ISA flags it needs
// (-mavx512f / -mavx2 -mfma / none), so the build no longer bakes the
// kernel choice in via __AVX512F__ preprocessor checks, and a CPU whose
// AVX-512 is emulated or down-clocked can fall back to the AVX2 kernel at
// runtime (see ROADMAP "Runtime SIMD dispatch").
//
// Bit-for-bit contract: all three variants compute every C element with
// the SAME IEEE-754 operation sequence —
//
//     acc = 0;  for kk in [0, kb): acc = fma(a[i][kk], b[j][kk], acc);
//     c[i][j] = fma(alpha, acc, c[i][j]);
//
// (hardware vfmadd in the AVX kernels, std::fma in the portable one; both
// are single-rounding by IEEE 754-2008, and per-element chains are
// independent so vector width is irrelevant).  Swapping kernels therefore
// never changes a score: the per-kernel differential tests in
// tests/linalg_test.cc assert exact equality, and the sharded==unsharded
// and threaded==serial bit-for-bit guarantees hold under ANY installed
// kernel — even if a kernel is re-installed between two calls.
//
// Each variant has a scorer entry beside it (GemmMicroKernelScore*), and
// an in-place twin of that entry that reads B from its row-major rows
// instead of from a packed panel (GemmMicroKernelRows*).  Both run the
// same sequence on the same values with alpha = 1, so a score does not
// depend on whether its items were packed: the scorer
// (topk/score_select.h) reads the items of a call of a few query rows in
// place, where packing them would cost more than the scoring.  Both end
// in the scorer's epilogue, which writes the tile to the scorer's strip
// and tests it against the four rows' thresholds in registers:
//
//   - The first K panel stores c[i][j] = fma(1, acc, +0.0), and each later
//     one stores fma(1, acc, c[i][j]).  That is GemmNT's beta = 0 fold (its
//     C starts at +0.0), so an accumulator of -0 lands as +0 either way and
//     every stored score is bit for bit GemmNT's.
//   - With thresholds (the tile's last K panel) the entry returns the hit
//     mask: bit kGemmNR * i + j is set exactly where
//
//         c[i][j] >= thresholds[i]  ||  (bounds && bounds[j] < thresholds[i])
//
//     Both comparisons are ordered and quiet (a NaN never matches), like
//     the scalar `>=` and `<`, so every variant returns the same mask on
//     every input.  The `>=` lets an exact tie with a row's k-th score
//     reach the item-id tie-break (topk/select_kernel.h); the strict `<`
//     is the MAXIMUS stop rule (a bound equal to the threshold can still
//     cover a tied score).

#ifndef MIPS_LINALG_GEMM_KERNEL_H_
#define MIPS_LINALG_GEMM_KERNEL_H_

#include <cstdint>

#include "common/types.h"

namespace mips {

// Register tile: MR x NR accumulators = 64 doubles = 8 zmm (AVX-512) or
// 16 ymm (AVX2) registers, leaving room for the A broadcasts and B loads.
inline constexpr Index kGemmMR = 4;
inline constexpr Index kGemmNR = 16;

/// Widest B block GemmNT packs at once (its NC): 2,048 items of one K
/// panel, 4 MiB at kGemmKPanel = 256.
inline constexpr Index kGemmNC = 2048;

/// A full MR x NR register tile over packed panels: ap is kb x MR and bp
/// is kb x NR (the column-of-rows layout PackPanels writes), and the
/// result is accumulated into c (ldc-strided) as c += alpha * ap^T bp.
using GemmMicroKernelFn = void (*)(const Real* ap, const Real* bp, Index kb,
                                   Real alpha, Real* c, Index ldc);

/// The three variants.  Every symbol exists in every binary; variants
/// whose ISA the compiler cannot target (flag probe failed at configure
/// time, non-x86 build) forward to the portable kernel and report
/// compiled-in = false below, so the dispatcher never selects them.
void GemmMicroKernelAvx512(const Real* ap, const Real* bp, Index kb,
                           Real alpha, Real* c, Index ldc);
void GemmMicroKernelAvx2(const Real* ap, const Real* bp, Index kb, Real alpha,
                         Real* c, Index ldc);
void GemmMicroKernelPortable(const Real* ap, const Real* bp, Index kb,
                             Real alpha, Real* c, Index ldc);

/// The scorer's entry: the full MR x NR tile over packed panels, as
/// GemmMicroKernelFn with alpha = 1, into the score tile c (row-major, ld
/// = kGemmNR) through the epilogue above: stored over c when
/// `accumulate`, over +0.0 otherwise.  With thresholds (kGemmMR of them)
/// it returns the tile's hit mask, testing bounds (kGemmNR of them) when
/// they are given; without, it returns 0 and reads neither.
using GemmMicroKernelScoreFn = uint64_t (*)(const Real* ap, const Real* bp,
                                            Index kb, Real* c,
                                            bool accumulate,
                                            const Real* thresholds,
                                            const Real* bounds);
static_assert(kGemmMR * kGemmNR == 64, "one mask bit per tile cell");

uint64_t GemmMicroKernelScoreAvx512(const Real* ap, const Real* bp, Index kb,
                                    Real* c, bool accumulate,
                                    const Real* thresholds,
                                    const Real* bounds);
uint64_t GemmMicroKernelScoreAvx2(const Real* ap, const Real* bp, Index kb,
                                  Real* c, bool accumulate,
                                  const Real* thresholds, const Real* bounds);
uint64_t GemmMicroKernelScorePortable(const Real* ap, const Real* bp,
                                      Index kb, Real* c, bool accumulate,
                                      const Real* thresholds,
                                      const Real* bounds);

/// The scorer's entry over B in place: B's panel is the nr (1..kGemmNR)
/// rows b + j * ldb, each read for kb consecutive values, and its missing
/// rows count as zero, as PackPanels pads them.  No value past row nr - 1
/// is read.
using GemmMicroKernelRowsFn = uint64_t (*)(const Real* ap, const Real* b,
                                           Index ldb, Index nr, Index kb,
                                           Real* c, bool accumulate,
                                           const Real* thresholds,
                                           const Real* bounds);

uint64_t GemmMicroKernelRowsAvx512(const Real* ap, const Real* b, Index ldb,
                                   Index nr, Index kb, Real* c,
                                   bool accumulate, const Real* thresholds,
                                   const Real* bounds);
uint64_t GemmMicroKernelRowsAvx2(const Real* ap, const Real* b, Index ldb,
                                 Index nr, Index kb, Real* c, bool accumulate,
                                 const Real* thresholds, const Real* bounds);
uint64_t GemmMicroKernelRowsPortable(const Real* ap, const Real* b, Index ldb,
                                     Index nr, Index kb, Real* c,
                                     bool accumulate, const Real* thresholds,
                                     const Real* bounds);

/// Whether the real intrinsics body (not the portable forward) was
/// compiled into this binary.
bool GemmAvx512KernelCompiled();
bool GemmAvx2KernelCompiled();

/// Packs `rows` rows of a row-major operand, columns [p0, p0 + kb), into
/// panels `tile` rows wide (kGemmMR or kGemmNR): dst[panel][kk][tile],
/// with the last panel's missing rows zero-padded so the micro-kernel
/// never needs an edge case.  Row r is read from src + ids[r] * ld, or
/// from src + r * ld without ids.  GemmNT packs each A block with tile =
/// kGemmMR and each B block with tile = kGemmNR, one K panel at a time;
/// the score-and-select loop (topk/score_select.h) packs whole operands
/// at once (p0 = 0, kb = the full depth), so the K panel at p0 of a
/// panel starts at offset p0 * tile.
void PackPanels(const Real* src, Index ld, const Index* ids, Index rows,
                Index p0, Index kb, Index tile, Real* dst);

/// The installed micro-kernel (simd_dispatch.cc), running the env
/// override / startup probe first if nothing is installed yet.  gemm.cc
/// loads this once per GemmNT call.
GemmMicroKernelFn ActiveGemmMicroKernel();

/// The installed micro-kernel's scorer entry and its in-place twin,
/// installing a kernel first if none is.
GemmMicroKernelScoreFn ActiveGemmMicroKernelScore();
GemmMicroKernelRowsFn ActiveGemmMicroKernelRows();

}  // namespace mips

#endif  // MIPS_LINALG_GEMM_KERNEL_H_
