// Top-K selection over score rows that already exist.
//
// Each row is folded into a bounded heap by the plain scalar loop
//
//     for j in [0, n): if (heap.WouldAccept(s[j])) heap.Push(id(j), s[j]);
//
// The dense solvers do not come here: they never write a score row, but
// fold each GEMM register tile while it is in L1 (ScoreTopK /
// BoundedWalk, topk/score_select.h), with the same comparisons, into the
// same entries.

#ifndef MIPS_TOPK_TOPK_BLOCK_H_
#define MIPS_TOPK_TOPK_BLOCK_H_

#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

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
