#include "topk/topk_block.h"

namespace mips {

void TopKFromRow(const Real* scores, Index n, Index k, Index item_offset,
                 const Index* item_ids, TopKEntry* out) {
  TopKHeap heap(k);
  for (Index j = 0; j < n; ++j) {
    // WouldAccept first: for realistic score distributions most columns
    // lose to the current minimum, so this branch is the common fast path.
    if (heap.WouldAccept(scores[j])) {
      const Index id = (item_ids != nullptr) ? item_ids[j] : j + item_offset;
      heap.Push(id, scores[j]);
    }
  }
  heap.ExtractDescending(out);
}

void TopKFromScoreBlock(const Real* scores, Index m, Index n, Index lds,
                        Index k, Index item_offset, const Index* item_ids,
                        TopKResult* out, Index row_offset) {
  for (Index r = 0; r < m; ++r) {
    TopKFromRow(scores + static_cast<std::size_t>(r) * lds, n, k, item_offset,
                item_ids, out->Row(row_offset + r));
  }
}

}  // namespace mips
