// Top-K selection over score rows.
//
// Every dense scorer in the library (BMM, MAXIMUS's segment walk, the
// dense new-user path, the hybrid solver's dense partition) ends in the
// same step: fold a row of scores into a bounded heap.  SelectIntoHeap is
// that step.  It keeps the heap minimum in a register, compares 8 or 4
// scores per instruction (select_kernel.h, the variant matching the
// installed GEMM kernel) and calls TopKHeap::Push only on a score that can
// enter.  The heap it leaves is the one the plain scalar loop
//
//     for j in [0, n): if (heap.WouldAccept(s[j])) heap.Push(id(j), s[j]);
//
// would leave, on every input and under every kernel.  The rows come from
// ScoreTopK / ScoreIntoHeaps (topk/score_select.h), which fold each
// L2-sized score panel while it is still in cache.

#ifndef MIPS_TOPK_TOPK_BLOCK_H_
#define MIPS_TOPK_TOPK_BLOCK_H_

#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

/// Folds scores[0..n) into *heap.  Position j is reported as id
/// `item_ids ? item_ids[j] : j + item_offset` and pushed only when its
/// score is >= the heap minimum (so an exact tie still reaches Push for
/// the id tie-break; a NaN never enters).
///
/// With `bounds` — n upper bounds sorted descending, as in a MAXIMUS
/// cluster list — the walk stops at the first position whose bound is
/// strictly below a full heap's minimum, before pushing it.  Returns the
/// positions walked: the stop position, or n.
Index SelectIntoHeap(const Real* scores, Index n, const Real* bounds,
                     Index item_offset, const Index* item_ids, TopKHeap* heap);

/// Reduces one score row scores[0..n) to its top K entries (written to
/// out[0..k), sorted descending).  Item j is reported as id
/// `item_ids ? item_ids[j] : j + item_offset`.
void TopKFromRow(const Real* scores, Index n, Index k, Index item_offset,
                 const Index* item_ids, TopKEntry* out);

/// Reduces an m x n score block (leading dimension lds) into result rows
/// [row_offset, row_offset + m) of *out.  Plain column indices are offset
/// by `item_offset` or remapped through `item_ids` (length n) when given.
void TopKFromScoreBlock(const Real* scores, Index m, Index n, Index lds,
                        Index k, Index item_offset, const Index* item_ids,
                        TopKResult* out, Index row_offset);

}  // namespace mips

#endif  // MIPS_TOPK_TOPK_BLOCK_H_
