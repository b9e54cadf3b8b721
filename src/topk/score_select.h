// Score-and-select: the dense solvers' one scoring loop.
//
// BMM (Section II-B) is a GEMM that writes a block of user-item scores
// followed by a min-heap pass that reads them back.  Written as two passes
// over a block sized to memory, every score leaves the cache between the
// two.  Here no score block exists: the GEMM's micro-kernel computes one
// 4x16 register tile (kGemmMR query rows x kGemmNR items) at a time, and
// its epilogue (linalg/gemm_kernel.h) stores the tile into a 64-byte-
// aligned L1 strip and tests it against the four rows' thresholds in
// registers, so only the cells that can enter a row's top k are folded,
// while the tile is still in L1.  (The tiles of one item panel, at most
// kScoreTileRows x 16 scores, sit side by side in the strip and are folded
// after the panel's last tile, so that no branch on a score stalls the
// next micro-kernel call.)  A ScoreTopK call with k at most kRowTopWidth
// (16, topk/select_kernel.h) keeps each row's best k sorted in one record
// of 16 scores and 16 ids, and inserts a flagged cell without a branch
// (AVX-512) or with a short sorted insert (AVX2, portable); its rows are
// written straight from the records.  A wider k, and MAXIMUS's bounded
// walk, push into TopKHeaps.  ScoreTopK takes the query rows in blocks of
// about kScoreRowBlock and holds one block's records or heaps at a time,
// so what a call holds beyond its output does not grow with the request.
// Each operand is packed for the micro-kernel once per block: the items in
// chunks of at most kGemmNC (a lone chunk once per call), each tile of
// query rows once per chunk.  A call of at most kScoreInPlaceRows rows (a
// new user, a small batch) packs no items: there each packed item panel
// would feed one micro-kernel call, so the micro-kernel's in-place twin
// (linalg/gemm_kernel.h) reads the panel straight from the items' rows
// instead.  The micro-kernel runs with alpha = 1, one K panel after
// another, which is GemmNT's beta = 0 fold: every score, and hence every
// selected entry, is bit-for-bit the one GemmNT plus a per-row heap would
// give, packed or not, under every ISA.
//
// BMM's two regimes, the dense new-user path (MipsSolver::TopKNewUsers),
// the hybrid solver's dense partition (ScoreTopK), LiveCatalog's write
// buffer (ScoreTopK with the buffered ids) and MAXIMUS's segment walk
// (ScoreIntoHeaps with sorted bounds over segments it packs itself) all
// score through here.

#ifndef MIPS_TOPK_SCORE_SELECT_H_
#define MIPS_TOPK_SCORE_SELECT_H_

#include <cstddef>
#include <memory>
#include <span>

#include "common/thread_pool.h"
#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

/// Query rows per row tile, and BMM's automatic batch: each tile of rows
/// is packed once per item chunk, and its packed rows (128 x f) stay in
/// L2 while every item panel of the chunk passes them.
inline constexpr Index kScoreTileRows = 128;

/// Query rows up to which a ScoreTopK call reads its items in place, from
/// their row-major rows, instead of packing them: such a call is one
/// micro-kernel row group (linalg kGemmMR), so each packed item panel
/// would feed exactly one micro-kernel call and the packing would be pure
/// overhead.  Measured at f = 50 over 3,554 items on an AVX-512 Xeon, the
/// in-place read at 8 rows (two groups, each reading every panel again)
/// was within a few percent of packing, and at 16 rows slower.
inline constexpr Index kScoreInPlaceRows = 4;

/// Query rows per block of a ScoreTopK call (rounded down to whole row
/// tiles).  A call holds one block's records or heaps, and with a pool one
/// block's partial rows, so what it holds beyond its output does not grow with
/// the request; the items are packed once per block.  At f = 50, packing
/// 3,554 items takes about 0.15 ms on an AVX-512 Xeon: under 0.5% of
/// scoring 2,048 rows against them, but more than half of scoring one row,
/// which is why calls of at most kScoreInPlaceRows rows do not pack.
inline constexpr Index kScoreRowBlock = 2048;

/// n items of f factors packed for the GEMM micro-kernel once, in
/// kGemmNR-wide panels over the whole depth (linalg PackPanels), so a
/// scorer call reads them with no further packing.  MAXIMUS keeps each
/// cluster's first segment in this form.
class PackedItems {
 public:
  PackedItems() = default;
  PackedItems(const Real* items, const Index* ids, Index n, Index f) {
    Pack(items, ids, n, f);
  }

  /// Packs item j from items + (ids ? ids[j] : j) * f, for j in [0, n),
  /// reusing the buffer when it is large enough.
  void Pack(const Real* items, const Index* ids, Index n, Index f);

  Index rows() const { return n_; }
  Index cols() const { return f_; }
  const Real* data() const { return data_.get(); }

 private:
  std::unique_ptr<Real[]> data_;
  std::size_t capacity_ = 0;
  Index n_ = 0;
  Index f_ = 0;
};

/// Scores m query rows against the packed items and folds row r's scores
/// into *heaps[r], tile by tile.  Query row r is read from rows +
/// (row_ids ? row_ids[r] : r) * f.  Item j is reported as id
/// `item_ids ? item_ids[j] : j + item_offset`.
///
/// With `bounds` (n upper bounds sorted descending, a MAXIMUS cluster
/// list) each row walks the items in order and stops at the first
/// position whose bound is strictly below its full heap's minimum;
/// walked[r] is set to the positions row r visited (its stop position,
/// or n).  `walked` is required with `bounds` and ignored without.  A
/// tile whose four rows have all stopped is not scored.
///
/// Serial; allocates one packed row tile (kScoreTileRows x f) and one
/// score strip (kScoreTileRows x 16).
void ScoreIntoHeaps(const Real* rows, const Index* row_ids, Index m,
                    const PackedItems& items, Index item_offset,
                    const Index* item_ids, const Real* bounds,
                    std::span<TopKHeap* const> heaps, Index* walked);

/// Exact top-k of the m query rows against the n items in `items` (n x f,
/// row-major), written to rows [row_offset, row_offset + m) of *out (which
/// must already have k columns and room for them).  Query row r is read
/// from rows + (row_ids ? row_ids[r] : r) * f, tile_rows rows to a tile;
/// ids as in ScoreIntoHeaps.  Hand a whole request to one call: its items
/// are packed once per block of rows (and read in place when m is at most
/// kScoreInPlaceRows, in one tile of m rows), and one block's rows are
/// held at a time: a 192-byte record each when k <= kRowTopWidth, a
/// TopKHeap of k entries each past it.
///
/// With a pool of T > 1 workers, each worker scores every row of a block
/// against a contiguous 1/T of the items into private rows, and
/// MergeTopKRows joins the T partial rows: one pool round trip per block.
/// Because each item lives in one range and the merge applies
/// BetterEntry, the rows are bit-for-bit those of the serial call.  Must
/// not be called from a task running on `pool`.
void ScoreTopK(const Real* rows, Index m, const Real* items, Index n, Index f,
               Index k, Index item_offset, const Index* item_ids,
               ThreadPool* pool, TopKResult* out, Index row_offset,
               const Index* row_ids = nullptr,
               Index tile_rows = kScoreTileRows);

}  // namespace mips

#endif  // MIPS_TOPK_SCORE_SELECT_H_
