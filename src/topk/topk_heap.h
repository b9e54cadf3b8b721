// Bounded min-heap for streaming top-K selection.
//
// This is the "min-heap from the C++ standard library" the paper's BMM
// baseline uses (Section II-B), and the heap H in MAXIMUS's QueryIndex
// (Algorithm 1).  The heap keeps the K best (item, score) pairs seen so
// far; MinScore() is the pruning threshold min(H) the index walks compare
// bounds against.

#ifndef MIPS_TOPK_TOPK_HEAP_H_
#define MIPS_TOPK_TOPK_HEAP_H_

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "common/dcheck.h"
#include "topk/result.h"

namespace mips {

/// Fixed-capacity min-heap ordered by score (heap front = current minimum).
class TopKHeap {
 public:
  explicit TopKHeap(Index k) : k_(k) {
    MIPS_DCHECK_GT(k, 0);
    heap_.reserve(static_cast<std::size_t>(k));
  }

  Index k() const { return k_; }
  Index size() const { return static_cast<Index>(heap_.size()); }
  bool full() const { return size() == k_; }

  /// Smallest score currently held, or -infinity while the heap is not yet
  /// full (so every candidate is accepted until K entries exist).
  Real MinScore() const {
    return full() ? heap_.front().score
                  : -std::numeric_limits<Real>::infinity();
  }

  /// True if a candidate with this score could enter the heap.  Scores
  /// equal to the minimum are accepted so that Push can apply the
  /// deterministic item-id tie-break.  For the same reason, index walks
  /// must prune on `bound < MinScore()` (strictly below), never
  /// `bound <= MinScore()`: an upper bound equal to the heap minimum can
  /// belong to a score that TIES the minimum, and skipping it would make
  /// the reported id depend on visit order instead of on BetterEntry.
  bool WouldAccept(Real score) const { return score >= MinScore(); }

  /// Inserts (item, score) if it beats the current minimum under
  /// BetterEntry — strictly higher score, or an equal score with a lower
  /// item id (so heap contents are deterministic under ties regardless of
  /// visit order).  Returns true if inserted.
  bool Push(Index item, Real score) {
    if (!full()) {
      heap_.push_back({item, score});
      std::push_heap(heap_.begin(), heap_.end(), MinOnTop);
      return true;
    }
    if (!BetterEntry({item, score}, heap_.front())) return false;
    std::pop_heap(heap_.begin(), heap_.end(), MinOnTop);
    heap_.back() = {item, score};
    std::push_heap(heap_.begin(), heap_.end(), MinOnTop);
    return true;
  }

  void Clear() { heap_.clear(); }

  /// Writes the heap contents into out[0..k), sorted by (score desc, item
  /// asc).  If fewer than K entries were pushed (n < K items exist), the
  /// tail is filled with {-1, -inf} sentinels.  The heap is left empty.
  void ExtractDescending(TopKEntry* out) {
    MIPS_DCHECK(out != nullptr);
    MIPS_DCHECK_LE(size(), k_);
    std::sort(heap_.begin(), heap_.end(), BetterEntry);
    Index i = 0;
    for (; i < size(); ++i) out[i] = heap_[static_cast<std::size_t>(i)];
    for (; i < k_; ++i) {
      out[i] = {-1, -std::numeric_limits<Real>::infinity()};
    }
    // Adjacent rows must obey the library-wide tie order: score strictly
    // descending, item id ascending among exact ties.  The padding is not
    // ranked: a {-1, -inf} sentinel sorts ahead of a real -inf score under
    // BetterEntry, so only the real entries are checked.
    for (Index j = 1; j < size(); ++j) {
      MIPS_DCHECK(!BetterEntry(out[j], out[j - 1]));
    }
    heap_.clear();
  }

 private:
  // std::push_heap builds a max-heap under the comparator; "better" on
  // top of the comparison therefore puts the worst entry — lowest score,
  // largest item id among ties — at the front, which is exactly the entry
  // Push must evict first.
  static bool MinOnTop(const TopKEntry& a, const TopKEntry& b) {
    return BetterEntry(a, b);
  }

  Index k_;
  std::vector<TopKEntry> heap_;
};

}  // namespace mips

#endif  // MIPS_TOPK_TOPK_HEAP_H_
