// Inverted (per-dimension) index over a CSR item catalog, and the exact
// top-K query walk the sindi solver family runs against it.
//
// The index is the CSC transpose of the catalog: for each factor
// dimension d, a posting list of (item, value) pairs over the items whose
// coordinate d is nonzero.  Two posting orders are supported:
//
//  - kAbsDescending ("postings=abs"): each list sorted by |value|
//    descending (item id ascending among exact-|value| ties).  The query
//    walk processes dimensions in decreasing |q_d| * MaxAbs_d
//    contribution-cap order and maintains suffix sums of the caps, which
//    yields per-item admission upper bounds that tighten as lists are
//    consumed — the SINDI-style value-ordered traversal (arXiv:2509.08395)
//    with threshold-based cutoffs against the running heap minimum.
//
//  - kItemAscending ("postings=id"): each list in item-id order; the walk
//    is a term-at-a-time accumulation over all touched items with no
//    pruning.  This is the classic sparse-TAAT baseline and the ablation
//    partner for the abs-ordered walk.
//
// Exactness: BOTH modes return bit-for-bit the scores the dense blocked
// GEMM produces, under the library-wide (score desc, item asc) tie order.
//  - abs mode admits items by upper bound only; every admitted item is
//    rescored exactly with CsrMatrix::GemmEquivalentDot (the per-K-panel
//    fma fold of gemm.h).  Bounds are inflated by a relative slack before
//    the strictly-below pruning test so floating-point rounding in the
//    bound arithmetic can never make a "bound" dip below a score it is
//    supposed to dominate.  Items never admitted have provably lower
//    scores than the heap minimum — except exact zero-overlap items
//    (score +0.0), which a final sweep pushes whenever the heap is not
//    full or its minimum is <= 0 (if the minimum is > 0 the sweep is
//    provably unnecessary; see SparseTopKQuery).
//  - id mode accumulates in column-ascending order with the same
//    per-K-panel panel boundaries as the dense kernel (panel accumulators
//    are flushed into the running totals at each kGemmKPanel boundary),
//    so every touched item's score is the identical fma chain.
//
// Thread safety: InvertedIndex is immutable after Build(); queries run
// concurrently with per-thread SparseQueryScratch instances.

#ifndef MIPS_SPARSE_INVERTED_INDEX_H_
#define MIPS_SPARSE_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/dcheck.h"
#include "common/status.h"
#include "sparse/csr_matrix.h"
#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

/// One posting: an item id and its coordinate value in the list's
/// dimension.
struct Posting {
  Index item = 0;
  Real value = 0;
};

/// Sort order of each dimension's posting list.
enum class PostingOrder {
  kAbsDescending,  // |value| desc, item asc among ties ("abs")
  kItemAscending,  // item id asc ("id")
};

/// Parses a "postings" spec value, "abs" or "id".  The error names
/// `solver` and the rejected value.
StatusOr<PostingOrder> ParsePostingOrder(const std::string& solver,
                                         const std::string& postings);

/// Immutable per-dimension posting lists over a CsrMatrix.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Builds the index for `csr` (which must outlive any queries only in
  /// the sense that the *catalog object* is still needed for exact
  /// rescoring — the index itself copies what it needs).
  static InvertedIndex Build(const CsrMatrix& csr, PostingOrder order);

  PostingOrder order() const { return order_; }
  Index dims() const { return dims_; }
  Index items() const { return items_; }

  std::span<const Posting> Dim(Index d) const {
    MIPS_DCHECK_GE(d, 0);
    MIPS_DCHECK_LT(d, dims_);
    const auto begin =
        static_cast<std::size_t>(dim_ptr_[static_cast<std::size_t>(d)]);
    const auto end =
        static_cast<std::size_t>(dim_ptr_[static_cast<std::size_t>(d) + 1]);
    return {postings_.data() + begin, end - begin};
  }

  /// max |value| over Dim(d); 0 for an empty list.
  Real MaxAbs(Index d) const {
    MIPS_DCHECK_GE(d, 0);
    MIPS_DCHECK_LT(d, dims_);
    return max_abs_[static_cast<std::size_t>(d)];
  }

 private:
  void DcheckInvariants() const;

  PostingOrder order_ = PostingOrder::kAbsDescending;
  Index dims_ = 0;
  Index items_ = 0;
  std::vector<int64_t> dim_ptr_;   // size dims_ + 1
  std::vector<Posting> postings_;  // concatenated lists
  std::vector<Real> max_abs_;      // size dims_
};

/// Per-thread reusable state for SparseTopKQuery.  Reuse across queries
/// on the same thread; never share across threads.
struct SparseQueryScratch {
  /// Sizes the scratch for a catalog of `items` rows; idempotent.
  void Reserve(Index items) {
    if (stamp.size() < static_cast<std::size_t>(items)) {
      stamp.resize(static_cast<std::size_t>(items), 0);
      panel_acc.resize(static_cast<std::size_t>(items), 0);
      score_acc.resize(static_cast<std::size_t>(items), 0);
    }
  }

  uint64_t epoch = 0;                 // bumped per query; stamp[i]==epoch
  std::vector<uint64_t> stamp;        //   marks item i touched this query
  std::vector<Index> touched;         // items stamped this query
  std::vector<Real> panel_acc;        // id mode: current-panel partials
  std::vector<Real> score_acc;        // id mode: folded panel totals
  std::vector<std::pair<Real, Index>> dims;  // abs mode: (cap, dim) sorted
  std::vector<Real> suffix;           // abs mode: suffix sums of caps
};

/// Counters a query walk accumulates (summed across queries by sindi).
struct SparseQueryStats {
  int64_t postings_visited = 0;  // postings actually examined
  int64_t items_rescored = 0;    // exact rescores (abs mode)
  int64_t lists_pruned = 0;      // lists cut short or skipped by bounds
};

/// Exact top-K of `q` (length csr.cols()) against the indexed catalog.
/// Writes out_row[0..k) sorted (score desc, item asc), padded with
/// {-1, -inf} sentinels when fewer than k items exist.  When `item_ids`
/// is non-empty it maps local catalog rows to global item ids
/// (item_ids[local]); ids must be ascending so the global tie order is
/// preserved.  `stats` may be null.
void SparseTopKQuery(const CsrMatrix& csr, const InvertedIndex& index,
                     const Real* q, Index k,
                     std::span<const Index> item_ids,
                     SparseQueryScratch* scratch, TopKHeap* heap,
                     TopKEntry* out_row, SparseQueryStats* stats);

}  // namespace mips

#endif  // MIPS_SPARSE_INVERTED_INDEX_H_
