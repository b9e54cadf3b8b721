// Score-and-select: the dense solvers' one scoring loop.
//
// BMM (Section II-B) is a GEMM that writes a block of user-item scores
// followed by a min-heap pass that reads them back.  Written as two passes
// over a block sized to memory, every score leaves the cache between the
// two.  Here the GEMM runs in panels of at most kDefaultL2CacheBytes of
// scores (128 query rows x 256 items), and each panel is folded into the
// rows' heaps by SelectIntoHeap (topk/topk_block.h) while it is still in
// L2.  The GEMM and its fma order are the library's GemmNT: a score does
// not depend on the panel it lands in, so every score, and hence every
// selected entry, is bit-for-bit the one a single whole-block GEMM plus a
// per-row heap would give.
//
// BMM's two regimes, the dense new-user path (MipsSolver::TopKNewUsers),
// the hybrid solver's dense partition (ScoreTopK) and MAXIMUS's segment
// walk (ScoreIntoHeaps with sorted bounds) all score through here.

#ifndef MIPS_TOPK_SCORE_SELECT_H_
#define MIPS_TOPK_SCORE_SELECT_H_

#include <span>

#include "common/thread_pool.h"
#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

/// Query rows per score panel, and BMM's automatic batch.  With
/// kDefaultL2CacheBytes of scores per panel, 128 rows leave 256 items.
inline constexpr Index kScorePanelRows = 128;

/// Scores the m query vectors in `rows` (m x f, row-major) against the n
/// items in `items` (n x f, row-major) and folds row r's scores into
/// *heaps[r], panel by panel.  Item j is reported as id
/// `item_ids ? item_ids[j] : j + item_offset`.
///
/// With `bounds` (n upper bounds sorted descending, a MAXIMUS cluster
/// list) each row walks the items in order and stops at the first
/// position whose bound is strictly below its full heap's minimum;
/// walked[r] is set to the positions row r visited (its stop position,
/// or n).  `walked` is required with `bounds` and ignored without.  A
/// panel whose rows have all stopped is not scored.
///
/// Serial; allocates one panel of at most kDefaultL2CacheBytes.
void ScoreIntoHeaps(const Real* rows, Index m, const Real* items, Index n,
                    Index f, Index item_offset, const Index* item_ids,
                    const Real* bounds, std::span<TopKHeap* const> heaps,
                    Index* walked);

/// Exact top-k of the m query vectors in `rows` (m x f) against the n
/// items in `items` (n x f), written to rows [row_offset, row_offset + m)
/// of *out (which must already have k columns and room for them).  Ids
/// as in ScoreIntoHeaps.
///
/// With a pool of T > 1 workers, each worker scores every row against a
/// contiguous 1/T of the items into private heaps, and MergeTopKRows joins
/// the T partial rows: one pool round trip per call.  Because each item
/// lives in one range and the merge applies BetterEntry, the rows are
/// bit-for-bit those of the serial call.  Must not be called from a task
/// running on `pool`.
void ScoreTopK(const Real* rows, Index m, const Real* items, Index n, Index f,
               Index k, Index item_offset, const Index* item_ids,
               ThreadPool* pool, TopKResult* out, Index row_offset);

}  // namespace mips

#endif  // MIPS_TOPK_SCORE_SELECT_H_
