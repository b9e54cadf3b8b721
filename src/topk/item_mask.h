// ItemMask: the item rows a query must never offer.
//
// LiveCatalog (catalog/live_catalog.h) masks the rows that newer layers of
// its write buffer supersede or remove.  The mask goes down the serving
// layers with the query — catalog layer, sharded engine, shard engine,
// solver, scorer — and each layer hands the next the part that falls in
// its item set, so every layer selects the caller's k and a masked row is
// skipped where it would be offered.  A mask is a view of sorted, unique
// rows rebased by an offset, so it allocates nothing and is as long as the
// dead set, not the catalog.  It is internal to the serving layers, not a
// filter API; the public call forms pass an empty mask.

#ifndef MIPS_TOPK_ITEM_MASK_H_
#define MIPS_TOPK_ITEM_MASK_H_

#include <algorithm>
#include <span>
#include <vector>

#include "common/types.h"

namespace mips {

/// Masked item rows: entry i names row values[i] - offset, and the values
/// are strictly ascending.
struct ItemMask {
  const Index* values = nullptr;
  Index size = 0;
  Index offset = 0;

  bool empty() const { return size == 0; }
  Index operator[](Index i) const { return values[i] - offset; }

  /// Whether `row` is masked: a binary search, none when empty.
  bool Contains(Index row) const {
    return size > 0 && std::binary_search(values, values + size, row + offset);
  }

  /// True if every entry names a row in [0, n), each once, in ascending
  /// order.
  bool ValidFor(Index n) const {
    for (Index i = 0; i < size; ++i) {
      if ((*this)[i] < 0 || (*this)[i] >= n) return false;
      if (i > 0 && values[i] <= values[i - 1]) return false;
    }
    return true;
  }

  /// The entries naming rows in [begin, end), as rows of that range (row
  /// begin becomes row 0): two binary searches.
  ItemMask Slice(Index begin, Index end) const {
    const Index* lo = std::lower_bound(values, values + size, begin + offset);
    const Index* hi = std::lower_bound(lo, values + size, end + offset);
    return {lo, static_cast<Index>(hi - lo), offset + begin};
  }

  /// The entries naming rows that the strictly ascending `ids` list, as
  /// positions in it, written to *positions: the mask of a subset whose
  /// row p is row ids[p] here.
  ItemMask Gather(std::span<const Index> ids,
                  std::vector<Index>* positions) const {
    positions->clear();
    auto from = ids.begin();
    for (Index i = 0; i < size; ++i) {
      from = std::lower_bound(from, ids.end(), (*this)[i]);
      if (from == ids.end()) break;
      if (*from == (*this)[i]) {
        positions->push_back(static_cast<Index>(from - ids.begin()));
      }
    }
    return {positions->data(), static_cast<Index>(positions->size()), 0};
  }
};

}  // namespace mips

#endif  // MIPS_TOPK_ITEM_MASK_H_
