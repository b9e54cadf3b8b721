// Internal contract between the row-insert kernels
// (select_kernel_{avx512,portable}.cc) and score_select.cc, which picks
// the variant matching the installed GEMM kernel and inserts each flagged
// cell of a GEMM register tile into its row's record.  Not part of the
// public API: call ScoreTopK or BoundedWalk (topk/score_select.h).
//
// Top-k selection over a row of scores is a search for the few cells that
// can change the row's best k.  With k = 10 over a few thousand items,
// all but about k * ln(n / k) scores of a row lose to its k-th score, so
// the micro-kernel's epilogue (linalg/gemm_kernel.h) flags the cells that
// reach it, and only those come here.  A ScoreTopK call, or a MAXIMUS
// BoundedWalk across all of its segments, with k at most kRowTopWidth
// keeps each row's best k in one RowTop record, sorted under BetterEntry,
// instead of in a TopKHeap:
//
//   - Lanes [0, k) hold the row's entries, best first, and then pads
//     {-inf, INT32_MAX}, which no entry is worse than.  Lanes past k
//     decide nothing and are never written out.  The row's threshold is
//     its k-th score, scores[k - 1]: -inf until k entries exist, as
//     TopKHeap::MinScore is.
//   - An insert finds the candidate's slot, the number of lanes in [0, k)
//     better than it under BetterEntry, moves the lanes from the slot on
//     down by one and writes the candidate into the slot.  A slot of k
//     changes no lane below k, so a candidate that a higher threshold
//     would now reject needs no test.
//
// BetterEntry is a total order on distinct ids, and each item reaches a
// row at most once, so the record holds exactly the top k of the cells
// offered to it, whatever their order: the same entries, bit for bit, as
// a TopKHeap fed the same cells.  The kernels only read and write the
// record: they call no inline library code, so compiling each TU with its
// own ISA flags cannot leak wide instructions into shared code.

#ifndef MIPS_TOPK_SELECT_KERNEL_H_
#define MIPS_TOPK_SELECT_KERNEL_H_

#include <cstdint>

#include "common/types.h"

namespace mips {

/// The widest k a ScoreTopK call or a BoundedWalk keeps in RowTop records;
/// a wider one keeps TopKHeaps.
inline constexpr Index kRowTopWidth = 16;

/// One row's best k <= kRowTopWidth entries, best first: two zmm of
/// scores and one of ids, on three cache lines of their own.
struct alignas(64) RowTop {
  Real scores[kRowTopWidth];
  int32_t ids[kRowTopWidth];
};
static_assert(sizeof(RowTop) == 192, "three cache lines a record");

/// Inserts (id, score) into *top, whose lanes [0, k) are sorted under
/// BetterEntry, if it beats the k-th of them.  score is not NaN.
using RowTopInsertFn = void (*)(RowTop* top, Index k, Real score, Index id);

/// The variants.  Every symbol exists in every binary; the AVX-512 one
/// forwards to the portable insert (same record) when the compiler
/// cannot target AVX-512, and then reports compiled-in = false.  The
/// portable insert walks up from lane k - 1; the AVX-512 one compares the
/// candidate with the whole record at once and has no branch.
void RowTopInsertAvx512(RowTop* top, Index k, Real score, Index id);
void RowTopInsertPortable(RowTop* top, Index k, Real score, Index id);

/// Whether the real intrinsics body (not the portable forward) was
/// compiled into this binary.
bool SelectAvx512KernelCompiled();

}  // namespace mips

#endif  // MIPS_TOPK_SELECT_KERNEL_H_
