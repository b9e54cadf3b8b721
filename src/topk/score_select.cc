#include "topk/score_select.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/dcheck.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "linalg/simd_dispatch.h"
#include "topk/merge.h"
#include "topk/select_kernel.h"

namespace mips {
namespace {

constexpr Index kMR = kGemmMR;
constexpr Index kNR = kGemmNR;
/// One tile row's bits in a tile mask (select_kernel.h).
constexpr uint64_t kRowBits = (uint64_t{1} << kNR) - 1;

constexpr Index RoundUp(Index extent, Index tile) {
  return (extent + tile - 1) / tile * tile;
}

/// The tile scan matching the installed GEMM kernel, installing one first
/// if none is.  One ISA choice governs the GEMM, Dot and selection: a
/// machine whose AVX-512 is slow for one is slow for all.
SelectTileFn ActiveSelectTile() {
  switch (ActiveGemmKernel()) {
    case GemmKernel::kAvx512:
      if (SelectAvx512KernelCompiled()) return &SelectTileAvx512;
      break;
    case GemmKernel::kAvx2:
      if (SelectAvx2KernelCompiled()) return &SelectTileAvx2;
      break;
    case GemmKernel::kPortable:
      break;
  }
  return &SelectTilePortable;
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

/// Pushes one tile row's flagged cells (columns c + j) in column order.
/// A flag was raised against the minimum the tile started with, which
/// only rises, so each is re-checked: the pushes are exactly those of the
/// scalar `if (WouldAccept(s)) Push` loop.
void Fold(const Real* scores, uint32_t hits, Index c, ItemIds id,
          TopKHeap* heap, Real* threshold) {
  for (; hits != 0; hits &= hits - 1) {
    const int j = __builtin_ctz(hits);
    if (scores[j] >= *threshold) {
      heap->Push(id(c + j), scores[j]);
      *threshold = heap->MinScore();
    }
  }
}

/// Walks one tile row of a bounded walk in column order, as the scalar
/// break loop would, and returns the column where it stops (nr if none):
/// the first whose bound is strictly below the heap minimum.  The cells
/// before it that still reach the minimum are pushed.  A push that raises
/// the minimum flags the first later column whose bound falls below it,
/// which the tile scan could not see.
Index Walk(const Real* scores, const Real* bounds, Index nr, uint32_t hits,
           Index c, ItemIds id, TopKHeap* heap, Real* threshold) {
  for (; hits != 0; hits &= hits - 1) {
    const int j = __builtin_ctz(hits);
    const Real t = *threshold;
    if (bounds[j] < t) return j;
    if (!(scores[j] >= t)) continue;
    heap->Push(id(c + j), scores[j]);
    *threshold = heap->MinScore();
    if (*threshold > t) {
      for (Index q = j + 1; q < nr; ++q) {
        if (bounds[q] < *threshold) {
          hits |= uint32_t{1} << q;
          break;
        }
      }
    }
  }
  return nr;
}

/// The n items of f factors a scorer call reads: packed in kNR-wide
/// panels over the whole depth (PackedItems), or row-major where they are.
/// Either way the panel of items [c, c + kNR) starts at data + c * f.
struct ItemPanels {
  const Real* data;
  Index n;
  bool packed;
};

/// One scorer call's state: the installed kernels, one packed tile of
/// query rows, those rows' heap minima, and the score strip of one item
/// panel.
class TileScorer {
 public:
  TileScorer(Index tile_rows, Index f)
      : kernel_(ActiveGemmMicroKernel()),
        rows_kernel_(ActiveGemmMicroKernelRows()),
        scan_(ActiveSelectTile()),
        tile_rows_(tile_rows),
        f_(f),
        apack_(std::make_unique_for_overwrite<Real[]>(
            static_cast<std::size_t>(RoundUp(tile_rows, kMR)) *
            static_cast<std::size_t>(f))),
        strip_(std::make_unique_for_overwrite<Real[]>(
            static_cast<std::size_t>(RoundUp(tile_rows, kMR)) * kNR)),
        thresholds_(static_cast<std::size_t>(RoundUp(tile_rows, kMR))),
        hits_(static_cast<std::size_t>(RoundUp(tile_rows, kMR) / kMR)) {
    MIPS_DCHECK_GT(tile_rows, 0);
  }

  /// ScoreIntoHeaps over query rows [0, m), one row tile at a time.
  void Run(const Real* rows, const Index* row_ids, Index m,
           const ItemPanels& items, ItemIds id, const Real* bounds,
           TopKHeap* const* heaps, Index* walked) {
    for (Index r0 = 0; r0 < m; r0 += tile_rows_) {
      const Index mb = std::min(tile_rows_, m - r0);
      if (row_ids != nullptr) {
        PackPanels(rows, f_, row_ids + r0, mb, 0, f_, kMR, apack_.get());
      } else {
        PackPanels(rows + static_cast<std::size_t>(r0) * f_, f_, nullptr, mb,
                   0, f_, kMR, apack_.get());
      }
      for (Index r = 0; r < mb; ++r) thresholds_[r] = heaps[r0 + r]->MinScore();
      if (bounds == nullptr) {
        ScoreRowTile<false>(mb, items, id, nullptr, heaps + r0, nullptr);
      } else {
        ScoreRowTile<true>(mb, items, id, bounds, heaps + r0, walked + r0);
      }
    }
  }

 private:
  /// Scores the mb packed rows against every item panel, one 4x16 tile at
  /// a time, and folds each panel's tiles while they are in L1.  The item
  /// panel (f x 16) stays in L1 while all of the row tile's 4-row groups
  /// pass it.  Each panel runs in two passes: every group's tile is scored
  /// into the strip and scanned against the minima the panel started
  /// with, and then the flagged cells are folded.  No branch in the first
  /// pass waits on a score, so the micro-kernel calls run back to back.
  /// Bounded, a row walks while walked[r] equals the panel's first
  /// position, and a group none of whose rows walk is not scored.
  template <bool kBounded>
  void ScoreRowTile(Index mb, const ItemPanels& items, ItemIds id,
                    const Real* bounds, TopKHeap* const* heaps,
                    Index* walked) {
    const Index n = items.n;
    Index walking = mb;
    alignas(64) Real edge_bounds[kNR];
    for (Index c = 0; c < n; c += kNR) {
      if (kBounded && walking == 0) return;
      const Index nr = std::min(kNR, n - c);
      const uint64_t cols = nr == kNR ? kRowBits : (uint64_t{1} << nr) - 1;
      const Real* bp = items.data + static_cast<std::size_t>(c) * f_;
      const Real* tile_bounds = nullptr;
      if constexpr (kBounded) {
        tile_bounds = bounds + c;
        if (nr < kNR) {
          // Past the last item no bound can end a walk.
          std::fill(std::copy_n(tile_bounds, nr, edge_bounds),
                    edge_bounds + kNR, std::numeric_limits<Real>::infinity());
          tile_bounds = edge_bounds;
        }
      }
      for (Index i = 0; i < mb; i += kMR) {
        const Index mr = std::min(kMR, mb - i);
        uint64_t live = 0;
        for (Index r = 0; r < mr; ++r) {
          if (!kBounded || walked[i + r] == c) live |= cols << (r * kNR);
        }
        uint64_t& hits = hits_[static_cast<std::size_t>(i / kMR)];
        hits = 0;
        if (live == 0) continue;
        Real* tile = strip_.get() + static_cast<std::size_t>(i) * kNR;
        std::fill_n(tile, kMR * kNR, Real{0});
        const Real* ap = apack_.get() + static_cast<std::size_t>(i) * f_;
        for (Index p0 = 0; p0 < f_; p0 += kGemmKPanel) {
          const Real* a = ap + static_cast<std::size_t>(p0) * kMR;
          const Index kb = std::min(kGemmKPanel, f_ - p0);
          if (items.packed) {
            kernel_(a, bp + static_cast<std::size_t>(p0) * kNR, kb,
                    /*alpha=*/1, tile, kNR);
          } else {
            rows_kernel_(a, bp + p0, f_, nr, kb, /*alpha=*/1, tile, kNR);
          }
        }
        hits = scan_(tile, tile_bounds, thresholds_.data() + i) & live;
      }
      for (Index r = 0; r < mb; ++r) {
        const auto row_hits = static_cast<uint32_t>(
            (hits_[static_cast<std::size_t>(r / kMR)] >> (r % kMR * kNR)) &
            kRowBits);
        const Real* scores = strip_.get() + static_cast<std::size_t>(r) * kNR;
        Real* threshold = &thresholds_[static_cast<std::size_t>(r)];
        if constexpr (kBounded) {
          if (walked[r] != c) continue;
          const Index stop = Walk(scores, tile_bounds, nr, row_hits, c, id,
                                  heaps[r], threshold);
          walked[r] = c + stop;
          if (stop < nr) --walking;
        } else if (row_hits != 0) {
          Fold(scores, row_hits, c, id, heaps[r], threshold);
        }
      }
    }
  }

  const GemmMicroKernelFn kernel_;
  const GemmMicroKernelRowsFn rows_kernel_;
  const SelectTileFn scan_;
  const Index tile_rows_;
  const Index f_;
  const std::unique_ptr<Real[]> apack_;
  const std::unique_ptr<Real[]> strip_;
  std::vector<Real> thresholds_;
  std::vector<uint64_t> hits_;
};

/// m empty heaps of capacity k, and a pointer to each.
struct RowHeaps {
  RowHeaps(Index m, Index k) {
    heaps.reserve(static_cast<std::size_t>(m));
    for (Index r = 0; r < m; ++r) heaps.emplace_back(k);
    for (TopKHeap& heap : heaps) ptrs.push_back(&heap);
  }
  std::vector<TopKHeap> heaps;
  std::vector<TopKHeap*> ptrs;
};

/// Serial exact top-k of query rows [0, m) against the n row-major items,
/// one block of rows at a time: the block's heaps are filled against the
/// items, packed one chunk at a time, and row r's entries are extracted
/// to out_row(r).  Only one block's heaps are held, and a lone chunk is
/// packed once.  A call of at most kScoreInPlaceRows rows scores them as
/// one row tile straight from the items' rows, packing nothing.
template <typename OutRow>
void ScoreBlocks(const Real* rows, const Index* row_ids, Index m,
                 Index tile_rows, const Real* items, Index n, Index f,
                 Index k, Index item_offset, const Index* item_ids,
                 OutRow out_row) {
  const bool in_place = m <= kScoreInPlaceRows;
  if (in_place) tile_rows = m;
  const Index block = std::min(m, RowBlock(tile_rows));
  RowHeaps row_heaps(block, k);
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
      scorer.Run(block_rows, block_ids, mb, panels, id, /*bounds=*/nullptr,
                 row_heaps.ptrs.data(), /*walked=*/nullptr);
    }
    for (Index r = 0; r < mb; ++r) {
      row_heaps.heaps[static_cast<std::size_t>(r)].ExtractDescending(
          out_row(b0 + r));
    }
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

void ScoreIntoHeaps(const Real* rows, const Index* row_ids, Index m,
                    const PackedItems& items, Index item_offset,
                    const Index* item_ids, const Real* bounds,
                    std::span<TopKHeap* const> heaps, Index* walked) {
  MIPS_DCHECK_EQ(heaps.size(), static_cast<std::size_t>(std::max(m, 0)));
  MIPS_DCHECK(bounds == nullptr || walked != nullptr);
  if (m <= 0) return;
  if (bounds != nullptr) std::fill_n(walked, m, 0);
  if (items.rows() <= 0) return;
  TileScorer scorer(std::min(m, kScoreTileRows), items.cols());
  scorer.Run(rows, row_ids, m, {items.data(), items.rows(), /*packed=*/true},
             {item_offset, item_ids}, bounds, heaps.data(), walked);
}

void ScoreTopK(const Real* rows, Index m, const Real* items, Index n, Index f,
               Index k, Index item_offset, const Index* item_ids,
               ThreadPool* pool, TopKResult* out, Index row_offset,
               const Index* row_ids, Index tile_rows) {
  MIPS_DCHECK_EQ(out->k(), k);
  MIPS_DCHECK_GT(tile_rows, 0);
  if (m <= 0) return;
  const int threads = (pool == nullptr) ? 1 : pool->num_threads();
  if (threads <= 1) {
    ScoreBlocks(rows, row_ids, m, tile_rows, items, n, f, k, item_offset,
                item_ids, [&](Index r) { return out->Row(row_offset + r); });
    return;
  }
  // One block of rows at a time, each a pool round trip: worker t scores
  // the block against its item range and leaves partial row r at
  // partial[(t * block + r) * k].  The item ranges are the same in every
  // block, so a worker whose range is empty never writes; its rows keep
  // the value-initialised item -1, which MergeTopKRows skips as a
  // sentinel.
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
      ScoreBlocks(block_rows, block_ids, mb, tile_rows,
                  items + static_cast<std::size_t>(c0) * f,
                  static_cast<Index>(end - begin), f, k, item_offset + c0,
                  item_ids != nullptr ? item_ids + c0 : nullptr,
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
