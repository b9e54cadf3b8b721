#include "topk/score_select.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <variant>
#include <vector>

#include "common/dcheck.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "linalg/simd_dispatch.h"
#include "topk/merge.h"
#include "topk/select_kernel.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

constexpr Index kMR = kGemmMR;
constexpr Index kNR = kGemmNR;
/// One tile row's bits in a tile mask (linalg/gemm_kernel.h).
constexpr uint64_t kRowBits = (uint64_t{1} << kNR) - 1;
constexpr Real kInf = std::numeric_limits<Real>::infinity();

constexpr Index RoundUp(Index extent, Index tile) {
  return (extent + tile - 1) / tile * tile;
}

/// The row insert matching the installed GEMM kernel, installing one
/// first if none is.  One ISA choice governs the GEMM, Dot and selection:
/// a machine whose AVX-512 is slow for one is slow for all.
RowTopInsertFn ActiveRowTopInsert() {
  return ActiveGemmKernel() == GemmKernel::kAvx512 &&
                 SelectAvx512KernelCompiled()
             ? &RowTopInsertAvx512
             : &RowTopInsertPortable;
}

/// Query rows per block of a ScoreTopK call: kScoreRowBlock rounded down
/// to whole row tiles, and at least one tile.
Index RowBlock(Index tile_rows) {
  return std::max<Index>(1, kScoreRowBlock / tile_rows) * tile_rows;
}

/// Items per packed chunk: GemmNT's kGemmNC up to one K panel of depth,
/// and proportionally fewer past it, so that a chunk never holds more than
/// GemmNT's widest B block (kGemmNC x kGemmKPanel doubles, 4 MiB).
Index ChunkItems(Index f) {
  const auto fit = static_cast<Index>(int64_t{kGemmNC} * kGemmKPanel /
                                      std::max(f, kGemmKPanel));
  return std::max(kNR, fit / kNR * kNR);
}

/// The id reported for item position p of a call.
struct ItemIds {
  Index offset;
  const Index* ids;
  Index operator()(Index p) const {
    return ids != nullptr ? ids[p] : p + offset;
  }
};

/// n default-initialised Ts on 64-byte boundaries, from one plain
/// allocation with room to align them.  An aligned operator new took
/// about 85 ns against 20 for a plain one (glibc, on an AVX-512 Xeon),
/// which a one-row call notices.
template <typename T>
class CacheAligned {
 public:
  explicit CacheAligned(std::size_t n)
      : storage_(std::make_unique_for_overwrite<std::byte[]>(n * sizeof(T) +
                                                             kAlign)) {
    void* at = storage_.get();
    std::size_t space = n * sizeof(T) + kAlign;
    data_ = static_cast<T*>(std::align(kAlign, n * sizeof(T), at, space));
    std::uninitialized_default_construct_n(data_, n);
  }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  static constexpr std::size_t kAlign = 64;
  std::unique_ptr<std::byte[]> storage_;
  T* data_;
};

/// The best k <= kRowTopWidth entries of m query rows, one RowTop record
/// each (topk/select_kernel.h), in one allocation.  A row's count is the
/// number of cells offered to it.  An offered cell is never NaN, so no pad
/// is better than it, and it takes a slot while the record holds fewer
/// than k entries: min(count, k) of the record's lanes are entries.
class RowTops {
 public:
  RowTops(Index m, Index k)
      : k_(k),
        insert_(ActiveRowTopInsert()),
        tops_(static_cast<std::size_t>(m)),
        counts_(static_cast<std::size_t>(m), 0) {
    MIPS_DCHECK_GT(k, 0);
    MIPS_DCHECK_LE(k, kRowTopWidth);
    for (Index r = 0; r < m; ++r) Clear(r);
  }

  Real Threshold(Index r) const { return top(r).scores[k_ - 1]; }

  /// Offers a flagged cell to row r, whose threshold is *threshold.
  void Take(Index r, Index id, Real score, Real* threshold) {
    insert_(&top(r), k_, score, id);
    ++counts_[static_cast<std::size_t>(r)];
    *threshold = Threshold(r);
  }

  /// Writes row r's k entries to out[0, k), best first, padded with
  /// {-1, -inf} past its count as TopKHeap::ExtractDescending pads, and
  /// empties the record.
  void Write(Index r, TopKEntry* out) {
    const RowTop& row = top(r);
    const Index count = std::min(counts_[static_cast<std::size_t>(r)], k_);
    for (Index e = 0; e < count; ++e) out[e] = {row.ids[e], row.scores[e]};
    std::fill(out + count, out + k_, TopKEntry{-1, -kInf});
    for (Index e = 1; e < count; ++e) {
      MIPS_DCHECK(BetterEntry(out[e - 1], out[e]));
    }
    for (Index e = count; e < k_; ++e) {
      MIPS_DCHECK(row.scores[e] == -kInf && row.ids[e] == kPadId);
    }
    Clear(r);
  }

 private:
  static constexpr int32_t kPadId = std::numeric_limits<int32_t>::max();

  RowTop& top(Index r) { return tops_[static_cast<std::size_t>(r)]; }
  const RowTop& top(Index r) const {
    return tops_[static_cast<std::size_t>(r)];
  }

  void Clear(Index r) {
    std::fill_n(top(r).scores, kRowTopWidth, -kInf);
    std::fill_n(top(r).ids, kRowTopWidth, kPadId);
    counts_[static_cast<std::size_t>(r)] = 0;
  }

  const Index k_;
  const RowTopInsertFn insert_;
  CacheAligned<RowTop> tops_;
  std::vector<Index> counts_;
};

/// The best k entries of m query rows, one TopKHeap each: a ScoreTopK
/// call or a BoundedWalk with k past kRowTopWidth.
class HeapRows {
 public:
  HeapRows(Index m, Index k) {
    heaps_.reserve(static_cast<std::size_t>(m));
    for (Index r = 0; r < m; ++r) heaps_.emplace_back(k);
  }

  Real Threshold(Index r) const { return heap(r).MinScore(); }

  /// Pushes a flagged cell if it still reaches row r's minimum: the flag
  /// was raised against the minimum the panel started with, which only
  /// rises, so the pushes are exactly those of the scalar
  /// `if (WouldAccept(s)) Push` loop.
  void Take(Index r, Index id, Real score, Real* threshold) {
    if (!(score >= *threshold)) return;
    heap(r).Push(id, score);
    *threshold = heap(r).MinScore();
  }

  void Write(Index r, TopKEntry* out) { heap(r).ExtractDescending(out); }

 private:
  TopKHeap& heap(Index r) { return heaps_[static_cast<std::size_t>(r)]; }
  const TopKHeap& heap(Index r) const {
    return heaps_[static_cast<std::size_t>(r)];
  }

  std::vector<TopKHeap> heaps_;
};

/// Walks one tile row of a bounded walk in column order, as the scalar
/// break loop would, and returns the column where it stops (nr if none):
/// the first whose bound plus the row's slack is strictly below its
/// threshold.  The cells before it that still reach the threshold are
/// offered to row r of out, unless the mask names their id.  An offer
/// that raises the threshold flags the first later column whose widened
/// bound falls below it, which the epilogue could not see.
template <typename Rows>
Index WalkRow(const Real* scores, const Real* bounds, Real slack, Index nr,
              uint32_t hits, Index c, ItemIds id, const ItemMask& mask,
              Rows& out, Index r, Real* threshold) {
  for (; hits != 0; hits &= hits - 1) {
    const int j = __builtin_ctz(hits);
    const Real t = *threshold;
    if (bounds[j] + slack < t) return j;
    if (!(scores[j] >= t) || mask.Contains(id(c + j))) continue;
    out.Take(r, id(c + j), scores[j], threshold);
    if (*threshold > t) {
      for (Index q = j + 1; q < nr; ++q) {
        if (bounds[q] + slack < *threshold) {
          hits |= uint32_t{1} << q;
          break;
        }
      }
    }
  }
  return nr;
}

/// The bits of a tile mask that belong to its first mr rows.
constexpr uint64_t TileRows(Index mr) {
  return mr == kMR ? ~uint64_t{0} : (uint64_t{1} << (mr * kNR)) - 1;
}

/// The bits of a tile mask that belong to its first nr columns, in every
/// row.
constexpr uint64_t TileColumns(Index nr) {
  static_assert(kMR == 4 && kNR == 16, "four 16-bit rows a mask");
  const uint64_t row = nr == kNR ? kRowBits : (uint64_t{1} << nr) - 1;
  return row * 0x0001000100010001;
}

/// The n items of f factors a scorer call reads: packed in kNR-wide
/// panels over the whole depth (PackedItems), or row-major where they are.
/// Either way the panel of items [c, c + kNR) starts at data + c * f.
struct ItemPanels {
  const Real* data;
  Index n;
  bool packed;
};

/// One 4x16 score tile of the strip, on cache lines of its own.
struct alignas(64) ScoreTile {
  Real cells[kMR * kNR];
};

/// One scorer call's state: the installed kernels' scorer entries, one
/// packed tile of query rows, those rows' thresholds, and the score strip
/// of one item panel with its hit masks.  A bounded walk also keeps the
/// groups of the row tile that still walk, with a mask of their walking
/// rows each.
class TileScorer {
 public:
  TileScorer(Index tile_rows, Index f)
      : score_(ActiveGemmMicroKernelScore()),
        rows_(ActiveGemmMicroKernelRows()),
        tile_rows_(tile_rows),
        f_(f),
        apack_(std::make_unique_for_overwrite<Real[]>(
            static_cast<std::size_t>(RoundUp(tile_rows, kMR)) *
            static_cast<std::size_t>(f))),
        strip_(static_cast<std::size_t>(RoundUp(tile_rows, kMR) / kMR)),
        thresholds_(static_cast<std::size_t>(RoundUp(tile_rows, kMR))),
        hits_(static_cast<std::size_t>(RoundUp(tile_rows, kMR) / kMR)),
        walking_(hits_.size()),
        live_(hits_.size()) {
    MIPS_DCHECK_GT(tile_rows, 0);
  }

  /// Scores query rows [0, m) into out's rows [0, m), one row tile at a
  /// time, offering no item whose position the mask names.
  template <typename Rows>
  void Run(const Real* rows, const Index* row_ids, Index m,
           const ItemPanels& items, ItemIds id, const ItemMask& mask,
           Rows& out) {
    for (Index r0 = 0; r0 < m; r0 += tile_rows_) {
      const Index mb = std::min(tile_rows_, m - r0);
      PackRowTile(rows, row_ids, r0, mb);
      for (Index r = 0; r < mb; ++r) thresholds_[r] = out.Threshold(r0 + r);
      ScoreRowTile(r0, mb, items, id, mask, out);
      for (Index r = 0; r < mb; ++r) {
        MIPS_DCHECK_EQ(thresholds_[r], out.Threshold(r0 + r));
      }
    }
  }

  /// Walks rows walkers[0, m) of out over the items as BoundedWalk::Score
  /// says, one row tile at a time; row r's query is rows + r * f.
  template <typename Rows>
  void Walk(const Real* rows, const Index* walkers, Index m,
            const ItemPanels& items, ItemIds id, const ItemMask& mask,
            const Real* bounds, const Real* slack, Rows& out, Index* walked) {
    for (Index r0 = 0; r0 < m; r0 += tile_rows_) {
      const Index mb = std::min(tile_rows_, m - r0);
      PackRowTile(rows, walkers, r0, mb);
      for (Index r = 0; r < mb; ++r) {
        thresholds_[r] = out.Threshold(walkers[r0 + r]);
      }
      WalkRowTile(walkers + r0, mb, items, id, mask, bounds, slack, out,
                  walked + r0);
      // Every walker leaves the segment with its row's threshold.
      for (Index r = 0; r < mb; ++r) {
        MIPS_DCHECK_EQ(thresholds_[r], out.Threshold(walkers[r0 + r]));
      }
    }
  }

 private:
  /// Packs query rows [r0, r0 + mb) of the call, row r read from rows +
  /// (row_ids ? row_ids[r] : r) * f.
  void PackRowTile(const Real* rows, const Index* row_ids, Index r0,
                   Index mb) {
    if (row_ids != nullptr) {
      PackPanels(rows, f_, row_ids + r0, mb, 0, f_, kMR, apack_.get());
    } else {
      PackPanels(rows + static_cast<std::size_t>(r0) * f_, f_, nullptr, mb, 0,
                 f_, kMR, apack_.get());
    }
  }

  /// Scores one group of kMR packed rows against one item panel into its
  /// strip tile, K panel after K panel, and returns the hit mask the last
  /// K panel's epilogue tested against the rows' thresholds (and the
  /// panel's bounds, when given).  A depth of 0 still stores the tile.
  uint64_t ScoreGroup(Index g, const ItemPanels& items, const Real* bp,
                      Index nr, const Real* bounds) {
    Real* tile = strip_[static_cast<std::size_t>(g)].cells;
    const Real* ap = apack_.get() + static_cast<std::size_t>(g) * kMR * f_;
    const Real* thresholds = thresholds_.data() + g * kMR;
    uint64_t hits = 0;
    Index p0 = 0;
    do {
      const Index kb = std::min(kGemmKPanel, f_ - p0);
      const Real* a = ap + static_cast<std::size_t>(p0) * kMR;
      const Real* test = p0 + kb == f_ ? thresholds : nullptr;
      hits = items.packed
                 ? score_(a, bp + static_cast<std::size_t>(p0) * kNR, kb,
                          tile, p0 > 0, test, bounds)
                 : rows_(a, bp + p0, f_, nr, kb, tile, p0 > 0, test, bounds);
      p0 += kb;
    } while (p0 < f_);
    return hits;
  }

  /// Scores the mb packed rows against every item panel, one 4x16 tile at
  /// a time, and folds each panel's tiles while they are in L1.  The item
  /// panel (f x 16) stays in L1 while all of the row tile's 4-row groups
  /// pass it.  Each panel runs in two passes: every group's tile is scored
  /// into the strip and tested in the epilogue against the thresholds the
  /// panel started with, and then the flagged cells are folded.  No branch
  /// in the first pass waits on a score, so the micro-kernel calls run
  /// back to back.  A cursor over the masked positions moves with the
  /// panels, and a masked column's bits leave the panel's hit masks
  /// before the fold.
  template <typename Rows>
  void ScoreRowTile(Index r0, Index mb, const ItemPanels& items, ItemIds id,
                    const ItemMask& mask, Rows& out) {
    const Index n = items.n;
    const Index groups = RoundUp(mb, kMR) / kMR;
    Index masked = 0;  // the first mask entry at or past panel c
    for (Index c = 0; c < n; c += kNR) {
      const Index nr = std::min(kNR, n - c);
      uint64_t cols = TileColumns(nr);
      for (; masked < mask.size && mask[masked] < c + nr; ++masked) {
        cols &= ~(TileColumns(1) << (mask[masked] - c));
      }
      const Real* bp = items.data + static_cast<std::size_t>(c) * f_;
      for (Index g = 0; g < groups; ++g) {
        const Index mr = std::min(kMR, mb - g * kMR);
        hits_[static_cast<std::size_t>(g)] =
            ScoreGroup(g, items, bp, nr, nullptr) & cols & TileRows(mr);
      }
      // Bit b of group g's mask is cell b of its tile: row g * kMR +
      // b / kNR, column c + b % kNR.
      for (Index g = 0; g < groups; ++g) {
        const Real* tile = strip_[static_cast<std::size_t>(g)].cells;
        for (uint64_t bits = hits_[static_cast<std::size_t>(g)]; bits != 0;
             bits &= bits - 1) {
          const int b = __builtin_ctzll(bits);
          const Index r = g * kMR + b / kNR;
          out.Take(r0 + r, id(c + b % kNR), tile[b], &thresholds_[r]);
        }
      }
    }
  }

  /// The bounded twin of ScoreRowTile: the mb packed rows, rows walkers[r]
  /// of out, walk the items with their sorted bounds, and walked[r] is set
  /// to where row r stops (n if it does not).  The epilogue flags a cell
  /// that reaches its row's threshold or whose bound is below it, so the
  /// fold visits only the rows of a group that hold a flagged cell, in
  /// column order, and a row that stops leaves its group's walking mask.
  /// (A slack is never negative, so that flag comes at or before the
  /// widened stop.)  A group whose rows have all stopped leaves the walking
  /// list and is not scored again; once the list is empty the tile is done.
  template <typename Rows>
  void WalkRowTile(const Index* walkers, Index mb, const ItemPanels& items,
                   ItemIds id, const ItemMask& mask, const Real* bounds,
                   const Real* slack, Rows& out, Index* walked) {
    const Index n = items.n;
    std::size_t active = 0;
    for (Index i = 0; i < mb; i += kMR, ++active) {
      walking_[active] = i / kMR;
      live_[active] = TileRows(std::min(kMR, mb - i));
    }
    std::fill_n(walked, mb, n);
    alignas(64) Real edge_bounds[kNR];
    for (Index c = 0; c < n && active > 0; c += kNR) {
      const Index nr = std::min(kNR, n - c);
      const uint64_t cols = TileColumns(nr);
      const Real* bp = items.data + static_cast<std::size_t>(c) * f_;
      const Real* tile_bounds = bounds + c;
      if (nr < kNR) {
        // Past the last item no bound can end a walk.
        std::fill(std::copy_n(tile_bounds, nr, edge_bounds),
                  edge_bounds + kNR, kInf);
        tile_bounds = edge_bounds;
      }
      for (std::size_t a = 0; a < active; ++a) {
        hits_[a] = ScoreGroup(walking_[a], items, bp, nr, tile_bounds) &
                   live_[a] & cols;
      }
      std::size_t still = 0;
      for (std::size_t a = 0; a < active; ++a) {
        const Index g = walking_[a];
        uint64_t live = live_[a];
        for (uint64_t bits = hits_[a]; bits != 0;) {
          const int shift = __builtin_ctzll(bits) / kNR * kNR;
          const uint64_t row = kRowBits << shift;
          const Index r = g * kMR + shift / kNR;
          const auto row_hits = static_cast<uint32_t>((bits & row) >> shift);
          const Index stop = WalkRow(
              strip_[static_cast<std::size_t>(g)].cells + shift, tile_bounds,
              slack != nullptr ? slack[walkers[r]] : Real{0}, nr, row_hits, c,
              id, mask, out, walkers[r], &thresholds_[r]);
          if (stop < nr) {
            walked[r] = c + stop;
            live &= ~row;
          }
          bits &= ~row;
        }
        if (live != 0) {
          walking_[still] = g;
          live_[still++] = live;
        }
      }
      active = still;
    }
  }

  const GemmMicroKernelScoreFn score_;
  const GemmMicroKernelRowsFn rows_;
  const Index tile_rows_;
  const Index f_;
  const std::unique_ptr<Real[]> apack_;
  CacheAligned<ScoreTile> strip_;
  std::vector<Real> thresholds_;
  /// The hit masks of one panel: per group, or per walking group in a
  /// bounded walk.
  std::vector<uint64_t> hits_;
  /// A bounded walk's walking groups, and each one's walking rows.
  std::vector<Index> walking_;
  std::vector<uint64_t> live_;
};

/// Serial exact top-k of query rows [0, m) against the n row-major items,
/// one block of rows at a time: the block's rows in `out` (block rows of
/// RowTops or HeapRows) are filled against the items, packed one chunk at
/// a time, and row r is written to out_row(r).  A lone chunk is packed
/// once.  A call of at most kScoreInPlaceRows rows scores them as one row
/// tile straight from the items' rows, packing nothing.  No item the mask
/// names is offered.
template <typename Rows, typename OutRow>
void ScoreBlocksInto(const Real* rows, const Index* row_ids, Index m,
                     Index tile_rows, Index block, const Real* items, Index n,
                     Index f, Index item_offset, const Index* item_ids,
                     const ItemMask& mask, Rows& out, OutRow out_row) {
  const bool in_place = m <= kScoreInPlaceRows;
  TileScorer scorer(std::min(block, tile_rows), f);
  const Index chunk = in_place ? n : std::min(n, ChunkItems(f));
  PackedItems packed;
  for (Index b0 = 0; b0 < m; b0 += block) {
    const Index mb = std::min(block, m - b0);
    const Real* block_rows =
        row_ids != nullptr ? rows : rows + static_cast<std::size_t>(b0) * f;
    const Index* block_ids = row_ids != nullptr ? row_ids + b0 : nullptr;
    for (Index c0 = 0; c0 < n; c0 += chunk) {
      const Real* chunk_items = items + static_cast<std::size_t>(c0) * f;
      const Index nc = std::min(chunk, n - c0);
      ItemPanels panels{chunk_items, nc, /*packed=*/false};
      if (!in_place) {
        if (b0 == 0 || chunk < n) packed.Pack(chunk_items, nullptr, nc, f);
        panels = {packed.data(), nc, /*packed=*/true};
      }
      const ItemIds id{item_offset + c0,
                       item_ids != nullptr ? item_ids + c0 : nullptr};
      scorer.Run(block_rows, block_ids, mb, panels, id,
                 mask.Slice(c0, c0 + nc), out);
    }
    for (Index r = 0; r < mb; ++r) out.Write(r, out_row(b0 + r));
  }
}

/// ScoreBlocksInto over records when k fits one (k <= kRowTopWidth), and
/// over heaps past that.  Only one block's rows are held.
template <typename OutRow>
void ScoreBlocks(const Real* rows, const Index* row_ids, Index m,
                 Index tile_rows, const Real* items, Index n, Index f,
                 Index k, Index item_offset, const Index* item_ids,
                 const ItemMask& mask, OutRow out_row) {
  if (m <= kScoreInPlaceRows) tile_rows = m;
  const Index block = std::min(m, RowBlock(tile_rows));
  if (k <= kRowTopWidth) {
    RowTops tops(block, k);
    ScoreBlocksInto(rows, row_ids, m, tile_rows, block, items, n, f,
                    item_offset, item_ids, mask, tops, out_row);
  } else {
    HeapRows heaps(block, k);
    ScoreBlocksInto(rows, row_ids, m, tile_rows, block, items, n, f,
                    item_offset, item_ids, mask, heaps, out_row);
  }
}

}  // namespace

void PackedItems::Pack(const Real* items, const Index* ids, Index n,
                       Index f) {
  const std::size_t size = static_cast<std::size_t>(RoundUp(n, kNR)) *
                           static_cast<std::size_t>(f);
  if (size > capacity_) {
    data_ = std::make_unique_for_overwrite<Real[]>(size);
    capacity_ = size;
  }
  n_ = n;
  f_ = f;
  PackPanels(items, f, ids, n, 0, f, kNR, data_.get());
}

/// A walk's rows (RowTops or HeapRows, by k) and the scorer that folds
/// into them, held across the walk's segments.
struct BoundedWalk::Impl {
  using Rows = std::variant<RowTops, HeapRows>;

  static Rows MakeRows(Index m, Index k) {
    if (k <= kRowTopWidth) return Rows(std::in_place_type<RowTops>, m, k);
    return Rows(std::in_place_type<HeapRows>, m, k);
  }

  Rows rows;
  TileScorer scorer;
  const Real* slack;
  ItemMask mask;
};

BoundedWalk::BoundedWalk(Index m, Index k, Index f, const Real* slack,
                         ItemMask mask)
    : impl_(new Impl{Impl::MakeRows(m, k),
                     TileScorer(std::clamp<Index>(m, 1, kScoreTileRows), f),
                     slack, mask}) {}

BoundedWalk::~BoundedWalk() = default;

Real BoundedWalk::Threshold(Index r) const {
  return std::visit([r](const auto& rows) { return rows.Threshold(r); },
                    impl_->rows);
}

void BoundedWalk::Score(const Real* rows, std::span<const Index> walkers,
                        const PackedItems& items, const Index* item_ids,
                        const Real* bounds, Index* walked) {
  const ItemPanels panels{items.data(), items.rows(), /*packed=*/true};
  std::visit(
      [&](auto& out) {
        impl_->scorer.Walk(rows, walkers.data(),
                           static_cast<Index>(walkers.size()), panels,
                           {0, item_ids}, impl_->mask, bounds, impl_->slack,
                           out, walked);
      },
      impl_->rows);
}

void BoundedWalk::Write(Index r, TopKEntry* out) {
  std::visit([r, out](auto& rows) { rows.Write(r, out); }, impl_->rows);
}

void ScoreTopK(const Real* rows, Index m, const Real* items, Index n, Index f,
               Index k, Index item_offset, const Index* item_ids,
               ThreadPool* pool, TopKResult* out, Index row_offset,
               const Index* row_ids, Index tile_rows, ItemMask mask) {
  MIPS_DCHECK_EQ(out->k(), k);
  MIPS_DCHECK_GT(tile_rows, 0);
  if (m <= 0) return;
  const int threads = (pool == nullptr) ? 1 : pool->num_threads();
  if (threads <= 1) {
    ScoreBlocks(rows, row_ids, m, tile_rows, items, n, f, k, item_offset,
                item_ids, mask,
                [&](Index r) { return out->Row(row_offset + r); });
    return;
  }
  // One block of rows at a time, each a pool round trip: worker t scores
  // the block against its item range, under the mask's part in it, and
  // leaves partial row r at partial[(t * block + r) * k].  The item
  // ranges are the same in every block, so a worker whose range is empty
  // never writes; its rows keep the value-initialised item -1, which
  // MergeTopKRows skips as a sentinel.
  const Index block = std::min(m, RowBlock(tile_rows));
  const auto row_at = [block, k](int t, Index r) {
    return (static_cast<std::size_t>(t) * static_cast<std::size_t>(block) +
            static_cast<std::size_t>(r)) *
           static_cast<std::size_t>(k);
  };
  std::vector<TopKEntry> partial(row_at(threads, 0));
  std::vector<const TopKEntry*> parts(static_cast<std::size_t>(threads));
  for (Index b0 = 0; b0 < m; b0 += block) {
    const Index mb = std::min(block, m - b0);
    const Real* block_rows =
        row_ids != nullptr ? rows : rows + static_cast<std::size_t>(b0) * f;
    const Index* block_ids = row_ids != nullptr ? row_ids + b0 : nullptr;
    ParallelFor(pool, n, [&](int64_t begin, int64_t end, int t) {
      const auto c0 = static_cast<Index>(begin);
      const auto c1 = static_cast<Index>(end);
      ScoreBlocks(block_rows, block_ids, mb, tile_rows,
                  items + static_cast<std::size_t>(c0) * f, c1 - c0, f, k,
                  item_offset + c0,
                  item_ids != nullptr ? item_ids + c0 : nullptr,
                  mask.Slice(c0, c1),
                  [&](Index r) { return partial.data() + row_at(t, r); });
    });
    for (Index r = 0; r < mb; ++r) {
      for (int t = 0; t < threads; ++t) {
        parts[static_cast<std::size_t>(t)] = partial.data() + row_at(t, r);
      }
      MergeTopKRows(parts, k, k, out->Row(row_offset + b0 + r));
    }
  }
}

}  // namespace mips
