// Internal contract between the tile scan kernels
// (select_kernel_{avx512,avx2,portable}.cc) and score_select.cc, which
// picks the variant matching the installed GEMM kernel and folds each
// GEMM register tile into its rows' heaps.  Not part of the public API:
// call ScoreTopK or ScoreIntoHeaps (topk/score_select.h).
//
// Top-k selection over a score tile is a search for the few cells that
// can change a heap.  With k = 10 over a few thousand items, all but
// about k * ln(n / k) scores of a row lose to its heap minimum, so the
// scan compares a whole kGemmMR x kGemmNR tile against the four rows'
// minima, 8 (AVX-512) or 4 (AVX2) cells per instruction, and returns the
// matches as a bit mask; the caller pushes only those.
//
// Exactness contract: bit kGemmNR * r + j is set exactly where
//
//     tile[r][j] >= thresholds[r]  ||  (bounds != nullptr && bounds[j] < thresholds[r])
//
// Both comparisons are ordered and quiet (a NaN never matches), exactly
// like the scalar `>=` and `<` of the loops they replace, so every variant
// returns the same mask on every input.  The `>=` lets an exact tie with
// the minimum reach TopKHeap::Push for the item-id tie-break; the strict
// `<` is the MAXIMUS stop rule (a bound equal to the minimum can still
// cover a tied score).  The kernels only read memory: they call no inline
// library code, so compiling each TU with its own ISA flags cannot leak
// wide instructions into shared code.

#ifndef MIPS_TOPK_SELECT_KERNEL_H_
#define MIPS_TOPK_SELECT_KERNEL_H_

#include <cstdint>

#include "common/types.h"
#include "linalg/gemm_kernel.h"

namespace mips {

/// For the kGemmMR x kGemmNR tile (row-major, ld = kGemmNR), bit
/// kGemmNR * r + j is set where tile[r][j] >= thresholds[r] or, with
/// bounds (kGemmNR of them), bounds[j] < thresholds[r].
using SelectTileFn = uint64_t (*)(const Real* tile, const Real* bounds,
                                  const Real* thresholds);
static_assert(kGemmMR * kGemmNR == 64, "one tile bit per cell");

/// The three variants.  Every symbol exists in every binary; variants
/// whose ISA the compiler cannot target forward to the portable scan
/// (which returns the same mask) and report compiled-in = false.
uint64_t SelectTileAvx512(const Real* tile, const Real* bounds,
                          const Real* thresholds);
uint64_t SelectTileAvx2(const Real* tile, const Real* bounds,
                        const Real* thresholds);
uint64_t SelectTilePortable(const Real* tile, const Real* bounds,
                            const Real* thresholds);

/// Whether the real intrinsics body (not the portable forward) was
/// compiled into this binary.
bool SelectAvx512KernelCompiled();
bool SelectAvx2KernelCompiled();

}  // namespace mips

#endif  // MIPS_TOPK_SELECT_KERNEL_H_
