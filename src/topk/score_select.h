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
// next micro-kernel call.)  With k at most kRowTopWidth (16,
// topk/select_kernel.h) each row keeps its best k sorted in one record of
// 16 scores and 16 ids, and a flagged cell is inserted without a branch
// (AVX-512) or with a short sorted insert (AVX2, portable); rows are
// written straight from the records.  A wider k pushes into TopKHeaps.
// ScoreTopK takes the query rows in blocks of about kScoreRowBlock and
// holds one block's records or heaps at a time, so what a call holds
// beyond its output does not grow with the request.  Each operand is
// packed for the micro-kernel once per block: the items in chunks of at
// most kGemmNC (a lone chunk once per call), each tile of query rows once
// per chunk.  A call of at most kScoreInPlaceRows rows (a new user, a
// small batch) packs no items: there each packed item panel would feed
// one micro-kernel call, so the micro-kernel's in-place twin
// (linalg/gemm_kernel.h) reads the panel straight from the items' rows
// instead.  The micro-kernel runs with alpha = 1, one K panel after
// another, which is GemmNT's beta = 0 fold: every score, and hence every
// selected entry, is bit-for-bit the one GemmNT plus a per-row heap would
// give, packed or not, under every ISA.
//
// BMM's two regimes (for prepared users and new vectors alike), the
// hybrid solver's dense partition (ScoreTopK), LiveCatalog's write
// buffer (ScoreTopK with the buffered ids) and MAXIMUS's segment walk
// (BoundedWalk, with sorted bounds over segments it packs itself) all
// score through here.  A BoundedWalk keeps each row's record or heap
// across the segments of its walk.  Its epilogue also flags the cells
// whose bound is below the row's threshold, so the fold after each item
// panel visits only the rows of a 4-row group that hold a flagged cell: a
// score to fold or the row's stop.  Each group's walking rows are a mask
// that a stop clears, and a group whose mask is empty leaves the walk.
//
// Both take an ItemMask (topk/item_mask.h) of items never to offer, so a
// live catalog's layers select k, not k plus the rows newer layers mask.
// ScoreTopK walks a cursor over the masked positions with its panel loop
// and clears their columns from each panel's hit masks before the fold,
// a cost per panel, not per cell.  A BoundedWalk tests the mask where a
// cell would be offered, since a flagged cell may be its row's stop; the
// bounds still cover every item, so its stops stay sound.

#ifndef MIPS_TOPK_SCORE_SELECT_H_
#define MIPS_TOPK_SCORE_SELECT_H_

#include <cstddef>
#include <memory>
#include <span>

#include "common/thread_pool.h"
#include "topk/item_mask.h"
#include "topk/result.h"

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

/// The best k entries of m query rows as they walk n items sorted by
/// descending upper bound (a MAXIMUS cluster list, Section III-D), one
/// segment of the list at a time.  Each row keeps its best k across all of
/// the segments it walks: in one RowTop record when k <= kRowTopWidth, in a
/// TopKHeap past it.  Row r stops at the first position whose bound plus
/// its slack s_r >= 0 (Section III-E) is strictly below its threshold, its
/// k-th best score so far (-inf until it holds k entries): exactly where
/// the scalar loop
///
///     if (heap.full() && bound[pos] + s_r < heap.MinScore()) break;
///     heap.Push(id[pos], score[pos]);
///
/// stops, with the same entries, under every GEMM kernel.  An item whose
/// reported id `mask` names is never offered (the scalar loop skips its
/// Push), but its bound still counts for the stop.
class BoundedWalk {
 public:
  /// m rows of f factors, each keeping its best k (k > 0).  Row r's slack
  /// is slack[r], read while the walk lasts, or 0 when slack is null.
  /// The mask is read while the walk lasts.
  BoundedWalk(Index m, Index k, Index f, const Real* slack = nullptr,
              ItemMask mask = {});
  ~BoundedWalk();
  BoundedWalk(const BoundedWalk&) = delete;
  BoundedWalk& operator=(const BoundedWalk&) = delete;

  /// Row r's threshold: its k-th best score so far, -inf until it holds k
  /// entries.  It only rises.
  Real Threshold(Index r) const;

  /// Walks each row in `walkers` (each at most once, in any order) over
  /// the next segment of the list: the packed items, item j reported as
  /// item_ids[j] (j itself without ids), with bounds[j] its bound.  Row r
  /// reads its query vector from rows + r * f.  walked[a] is set to the
  /// positions walkers[a] visited: its stop, or items.rows() if it walked
  /// them all.  The walkers are scored four to a register tile in the
  /// order given, and a tile is scored until its last walker stops, so
  /// hand in rows that stop near each other side by side.  A segment may
  /// be packed only through the first position whose bound plus the
  /// largest walker's slack is below the lowest walker's threshold: every
  /// walker stops there at the latest.
  ///
  /// Serial; allocates nothing (the row tile and score strip are held).
  void Score(const Real* rows, std::span<const Index> walkers,
             const PackedItems& items, const Index* item_ids,
             const Real* bounds, Index* walked);

  /// Writes row r's k entries to out[0, k), best first, padded with
  /// {-1, -inf} past the items it was offered, and empties the row.
  void Write(Index r, TopKEntry* out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Exact top-k of the m query rows against the n items in `items` (n x f,
/// row-major), written to rows [row_offset, row_offset + m) of *out (which
/// must already have k columns and room for them).  Query row r is read
/// from rows + (row_ids ? row_ids[r] : r) * f, tile_rows rows to a tile,
/// and item j is reported as `item_ids ? item_ids[j] : j + item_offset`.
/// Hand a whole request to one call: its items are packed once per block
/// of rows (and read in place when m is at most kScoreInPlaceRows, in one
/// tile of m rows), and one block's rows are held at a time: a 192-byte
/// record each when k <= kRowTopWidth, a TopKHeap of k entries each past
/// it.
///
/// With a pool of T > 1 workers, each worker scores every row of a block
/// against a contiguous 1/T of the items into private rows, and
/// MergeTopKRows joins the T partial rows: one pool round trip per block.
/// Because each item lives in one range and the merge applies
/// BetterEntry, the rows are bit-for-bit those of the serial call.  Must
/// not be called from a task running on `pool`.
///
/// Item j is never offered if `mask` (positions in [0, n)) names j: each
/// row is then the exact top k of the other items, bit for bit what a
/// call over only those items reports, padded with sentinels when fewer
/// than k remain.
void ScoreTopK(const Real* rows, Index m, const Real* items, Index n, Index f,
               Index k, Index item_offset, const Index* item_ids,
               ThreadPool* pool, TopKResult* out, Index row_offset,
               const Index* row_ids = nullptr,
               Index tile_rows = kScoreTileRows, ItemMask mask = {});

}  // namespace mips

#endif  // MIPS_TOPK_SCORE_SELECT_H_
