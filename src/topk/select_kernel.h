// Internal contract between the selection scan kernels
// (select_kernel_{avx512,avx2,portable}.cc) and topk_block.cc, which
// picks the variant matching the installed GEMM kernel and drives the
// heap.  Not part of the public API: call SelectIntoHeap
// (topk/topk_block.h).
//
// Top-k selection over a score row is a scan for the few positions that
// can change the heap.  With k = 10 over a few thousand items, all but
// about k * ln(n / k) scores lose to the heap minimum, so the scan holds
// that minimum in a register and compares 8 (AVX-512) or 4 (AVX2) scores
// per instruction; the caller pushes the hit and scans on from the next
// position with the raised minimum.
//
// Exactness contract: a scan returns the FIRST position p >= begin with
//
//     scores[p] >= threshold  ||  (bounds != nullptr && bounds[p] < threshold)
//
// or n when there is none.  Both comparisons are ordered and quiet (a NaN
// never matches), exactly like the scalar `>=` and `<` of the loops they
// replace, so every variant returns the same position on every input.
// The `>=` lets an exact tie with the minimum reach TopKHeap::Push for the
// item-id tie-break; the strict `<` is the MAXIMUS stop rule (a bound
// equal to the minimum can still cover a tied score).  The kernels only
// read memory: they call no inline library code, so compiling each TU
// with its own ISA flags cannot leak wide instructions into shared code.

#ifndef MIPS_TOPK_SELECT_KERNEL_H_
#define MIPS_TOPK_SELECT_KERNEL_H_

#include "common/types.h"

namespace mips {

/// First position p in [begin, n) where scores[p] >= threshold or, with
/// bounds, bounds[p] < threshold; n if none.
using SelectScanFn = Index (*)(const Real* scores, const Real* bounds,
                               Index begin, Index n, Real threshold);

/// The three variants.  Every symbol exists in every binary; variants
/// whose ISA the compiler cannot target forward to the portable scan
/// (which returns the same positions) and report compiled-in = false.
Index SelectScanAvx512(const Real* scores, const Real* bounds, Index begin,
                       Index n, Real threshold);
Index SelectScanAvx2(const Real* scores, const Real* bounds, Index begin,
                     Index n, Real threshold);
Index SelectScanPortable(const Real* scores, const Real* bounds, Index begin,
                         Index n, Real threshold);

/// Whether the real intrinsics body (not the portable forward) was
/// compiled into this binary.
bool SelectAvx512KernelCompiled();
bool SelectAvx2KernelCompiled();

}  // namespace mips

#endif  // MIPS_TOPK_SELECT_KERNEL_H_
