#include "topk/score_select.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/dcheck.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "topk/merge.h"
#include "topk/topk_block.h"

namespace mips {
namespace {

/// Items per panel for a tile of `tile_rows` query rows: as many whole
/// GEMM register tiles as fit in kDefaultL2CacheBytes of scores (at least
/// one), and no more than n.
Index PanelCols(Index tile_rows, Index n) {
  const auto budget = static_cast<Index>(
      kDefaultL2CacheBytes /
      (sizeof(Real) * static_cast<std::size_t>(tile_rows)));
  return std::min(n, std::max(kGemmNR, budget / kGemmNR * kGemmNR));
}

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

}  // namespace

void ScoreIntoHeaps(const Real* rows, Index m, const Real* items, Index n,
                    Index f, Index item_offset, const Index* item_ids,
                    const Real* bounds, std::span<TopKHeap* const> heaps,
                    Index* walked) {
  MIPS_DCHECK_EQ(heaps.size(), static_cast<std::size_t>(std::max(m, 0)));
  MIPS_DCHECK(bounds == nullptr || walked != nullptr);
  if (m <= 0) return;
  if (bounds != nullptr) std::fill_n(walked, m, 0);
  if (n <= 0) return;
  const Index tile_rows = std::min(m, kScorePanelRows);
  const Index cols = PanelCols(tile_rows, n);
  const auto panel = std::make_unique_for_overwrite<Real[]>(
      static_cast<std::size_t>(tile_rows) * static_cast<std::size_t>(cols));
  for (Index r0 = 0; r0 < m; r0 += tile_rows) {
    const Index mr = std::min(tile_rows, m - r0);
    for (Index c0 = 0; c0 < n; c0 += cols) {
      // A bounded row still walking has visited exactly c0 positions.
      const auto walking = [&](Index r) { return walked[r0 + r] == c0; };
      if (bounds != nullptr) {
        Index r = 0;
        while (r < mr && !walking(r)) ++r;
        if (r == mr) break;  // every row of the tile has stopped
      }
      const Index w = std::min(cols, n - c0);
      GemmNT(rows + static_cast<std::size_t>(r0) * f, mr,
             items + static_cast<std::size_t>(c0) * f, w, f, /*alpha=*/1,
             /*beta=*/0, panel.get(), w);
      for (Index r = 0; r < mr; ++r) {
        if (bounds != nullptr && !walking(r)) continue;
        const Index steps = SelectIntoHeap(
            panel.get() + static_cast<std::size_t>(r) * w, w,
            bounds != nullptr ? bounds + c0 : nullptr, item_offset + c0,
            item_ids != nullptr ? item_ids + c0 : nullptr,
            heaps[static_cast<std::size_t>(r0 + r)]);
        if (bounds != nullptr) walked[r0 + r] = c0 + steps;
      }
    }
  }
}

void ScoreTopK(const Real* rows, Index m, const Real* items, Index n, Index f,
               Index k, Index item_offset, const Index* item_ids,
               ThreadPool* pool, TopKResult* out, Index row_offset) {
  MIPS_DCHECK_EQ(out->k(), k);
  if (m <= 0) return;
  const int threads = (pool == nullptr) ? 1 : pool->num_threads();
  if (threads <= 1) {
    RowHeaps row_heaps(m, k);
    ScoreIntoHeaps(rows, m, items, n, f, item_offset, item_ids,
                   /*bounds=*/nullptr, row_heaps.ptrs, /*walked=*/nullptr);
    for (Index r = 0; r < m; ++r) {
      row_heaps.heaps[static_cast<std::size_t>(r)].ExtractDescending(
          out->Row(row_offset + r));
    }
    return;
  }
  // Worker t's partial row r sits at partial[(t * m + r) * k].  A worker
  // whose item range is empty never writes; its rows keep the
  // value-initialised item -1, which MergeTopKRows skips as a sentinel.
  const auto row_at = [m, k](int t, Index r) {
    return (static_cast<std::size_t>(t) * static_cast<std::size_t>(m) +
            static_cast<std::size_t>(r)) *
           static_cast<std::size_t>(k);
  };
  std::vector<TopKEntry> partial(row_at(threads, 0));
  ParallelFor(pool, n, [&](int64_t begin, int64_t end, int t) {
    const auto c0 = static_cast<Index>(begin);
    RowHeaps row_heaps(m, k);
    ScoreIntoHeaps(rows, m, items + static_cast<std::size_t>(c0) * f,
                   static_cast<Index>(end - begin), f, item_offset + c0,
                   item_ids != nullptr ? item_ids + c0 : nullptr,
                   /*bounds=*/nullptr, row_heaps.ptrs, /*walked=*/nullptr);
    for (Index r = 0; r < m; ++r) {
      row_heaps.heaps[static_cast<std::size_t>(r)].ExtractDescending(
          partial.data() + row_at(t, r));
    }
  });
  std::vector<const TopKEntry*> parts(static_cast<std::size_t>(threads));
  for (Index r = 0; r < m; ++r) {
    for (int t = 0; t < threads; ++t) {
      parts[static_cast<std::size_t>(t)] = partial.data() + row_at(t, r);
    }
    MergeTopKRows(parts, k, k, out->Row(row_offset + r));
  }
}

}  // namespace mips
