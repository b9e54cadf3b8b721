#include "sparse/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace mips {
namespace {

/// Relative slack applied to every pruning bound before the strictly-
/// below comparison.  The bounds are sums of at most dims() nonnegative
/// terms, so their worst-case downward rounding error is ~dims() * 2^-53
/// relative (~5e-13 at f = 4096); inflating by 1e-9 dominates that with
/// three orders of magnitude to spare, at the cost of admitting (and
/// exactly rescoring) a vanishing sliver of borderline items.  Inflation
/// only ever makes pruning more conservative, so exactness is never at
/// stake — this guards the *proof* that a pruned item's true score is
/// strictly below the heap minimum.
constexpr Real kBoundSlack = 1e-9;

inline Real Inflate(Real bound) { return bound * (Real{1} + kBoundSlack); }

inline Index GlobalId(std::span<const Index> item_ids, Index local) {
  return item_ids.empty() ? local : item_ids[static_cast<std::size_t>(local)];
}

/// Pushes (global id, +0.0) for every item not stamped this query.  Only
/// called when no item was ever pruned (see the callers' conditions), in
/// which case every unstamped item has zero overlap with the query's
/// nonzero dimensions and its dense GEMM score is exactly +0.0: the dense
/// accumulator starts at +0.0 and only ever adds zero products, which
/// cannot move it off +0.0 under round-to-nearest-even.
void SweepZeroOverlapItems(const InvertedIndex& index,
                           std::span<const Index> item_ids,
                           const SparseQueryScratch& scratch, TopKHeap* heap) {
  for (Index i = 0; i < index.items(); ++i) {
    if (scratch.stamp[static_cast<std::size_t>(i)] != scratch.epoch) {
      heap->Push(GlobalId(item_ids, i), Real{0});
    }
  }
}

/// Value-ordered traversal with admission bounds (postings=abs).
void QueryAbsOrdered(const CsrMatrix& csr, const InvertedIndex& index,
                     const Real* q, std::span<const Index> item_ids,
                     SparseQueryScratch* scratch, TopKHeap* heap,
                     SparseQueryStats* stats) {
  // Contribution caps c_d = |q_d| * max_i |v_{i,d}| for the dimensions
  // that can contribute at all, largest first (dimension id breaks ties
  // so the traversal is deterministic).
  auto& dims = scratch->dims;
  dims.clear();
  for (Index d = 0; d < index.dims(); ++d) {
    if (q[d] == Real{0}) continue;
    const Real cap = std::abs(q[d]) * index.MaxAbs(d);
    if (cap == Real{0}) continue;  // empty posting list
    dims.emplace_back(cap, d);
  }
  std::sort(dims.begin(), dims.end(),
            [](const std::pair<Real, Index>& a, const std::pair<Real, Index>& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });

  // suffix[j] = sum of caps j..m-1: the most the not-yet-started lists
  // can add to ANY item's score.
  const std::size_t m = dims.size();
  auto& suffix = scratch->suffix;
  suffix.assign(m + 1, 0);
  for (std::size_t j = m; j-- > 0;) {
    suffix[j] = suffix[j + 1] + dims[j].first;
  }

  // carry = sum over already-cut lists of |q_d| * |v_cut|: the most a cut
  // tail can still add to any single item (lists hold one posting per
  // item, and the tail's |values| are <= |v_cut| by the abs ordering).
  Real carry = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (heap->full() && Inflate(suffix[j] + carry) < heap->MinScore()) {
      // No un-admitted item can reach the heap minimum any more.
      if (stats != nullptr) {
        stats->lists_pruned += static_cast<int64_t>(m - j);
      }
      return;
    }
    const Index d = dims[j].second;
    const Real aq = std::abs(q[d]);
    for (const Posting& p : index.Dim(d)) {
      if (stats != nullptr) ++stats->postings_visited;
      if (scratch->stamp[static_cast<std::size_t>(p.item)] == scratch->epoch) {
        continue;  // already rescored exactly
      }
      const Real head = aq * std::abs(p.value);
      const Real bound = head + suffix[j + 1] + carry;
      if (heap->full() && Inflate(bound) < heap->MinScore()) {
        // Every later posting in this list has a smaller head term, so
        // the whole tail is dominated; fold its per-item cap into carry.
        // mips-tidy: allow(float-accumulation): carry is a conservative
        // prune bound, never a score; scores go through GemmEquivalentDot.
        carry += head;
        if (stats != nullptr) ++stats->lists_pruned;
        break;
      }
      scratch->stamp[static_cast<std::size_t>(p.item)] = scratch->epoch;
      const Real score = csr.GemmEquivalentDot(p.item, q);
      if (stats != nullptr) ++stats->items_rescored;
      heap->Push(GlobalId(item_ids, p.item), score);
    }
  }
}

/// Term-at-a-time accumulation in the dense kernel's panel order
/// (postings=id).  No pruning: every touched item's score is built by
/// the identical per-K-panel fma chain the blocked GEMM runs.
void QueryItemOrdered(const InvertedIndex& index, const Real* q,
                      std::span<const Index> item_ids,
                      SparseQueryScratch* scratch, TopKHeap* heap,
                      SparseQueryStats* stats) {
  auto& touched = scratch->touched;
  touched.clear();
  Index panel_end = kGemmKPanel;
  for (Index d = 0; d < index.dims(); ++d) {
    if (q[d] == Real{0}) continue;
    const std::span<const Posting> list = index.Dim(d);
    if (list.empty()) continue;
    if (d >= panel_end) {
      // Panel boundary: fold the finished panel into the running totals,
      // exactly where the dense driver folds its K panel into C.
      // (Panels with no query overlap fold +0.0 in the dense chain — an
      // exact no-op — so only crossed-into panels need a flush.)
      for (const Index i : touched) {
        const auto s = static_cast<std::size_t>(i);
        // mips-tidy: allow(float-accumulation): this IS the sanctioned
        // per-K-panel fold — the same total += acc rounding the dense GEMM
        // driver performs at each panel boundary.
        scratch->score_acc[s] += scratch->panel_acc[s];
        scratch->panel_acc[s] = 0;
      }
      panel_end = (d / kGemmKPanel + 1) * kGemmKPanel;
    }
    const Real qd = q[d];
    for (const Posting& p : list) {
      if (stats != nullptr) ++stats->postings_visited;
      const auto s = static_cast<std::size_t>(p.item);
      if (scratch->stamp[s] != scratch->epoch) {
        scratch->stamp[s] = scratch->epoch;
        scratch->panel_acc[s] = 0;
        scratch->score_acc[s] = 0;
        touched.push_back(p.item);
      }
      scratch->panel_acc[s] = std::fma(p.value, qd, scratch->panel_acc[s]);
    }
  }
  for (const Index i : touched) {
    const auto s = static_cast<std::size_t>(i);
    heap->Push(GlobalId(item_ids, i), scratch->score_acc[s] +
                                          scratch->panel_acc[s]);
  }
}

}  // namespace

StatusOr<PostingOrder> ParsePostingOrder(const std::string& solver,
                                         const std::string& postings) {
  if (postings == "abs") return PostingOrder::kAbsDescending;
  if (postings == "id") return PostingOrder::kItemAscending;
  return Status::InvalidArgument(
      solver + ": postings must be \"abs\" or \"id\", got \"" + postings +
      "\"");
}

InvertedIndex InvertedIndex::Build(const CsrMatrix& csr, PostingOrder order) {
  InvertedIndex index;
  index.order_ = order;
  index.items_ = csr.rows();
  index.dims_ = csr.cols();
  index.max_abs_.assign(static_cast<std::size_t>(csr.cols()), 0);

  std::vector<int64_t> counts(static_cast<std::size_t>(csr.cols()), 0);
  for (Index r = 0; r < csr.rows(); ++r) {
    for (const Index c : csr.RowCols(r)) {
      ++counts[static_cast<std::size_t>(c)];
    }
  }
  index.dim_ptr_.assign(static_cast<std::size_t>(csr.cols()) + 1, 0);
  for (Index d = 0; d < csr.cols(); ++d) {
    index.dim_ptr_[static_cast<std::size_t>(d) + 1] =
        index.dim_ptr_[static_cast<std::size_t>(d)] +
        counts[static_cast<std::size_t>(d)];
  }
  index.postings_.resize(static_cast<std::size_t>(csr.nnz()));

  // Row-ascending fill leaves every list in item-ascending order.
  std::vector<int64_t> cursor(index.dim_ptr_.begin(),
                              index.dim_ptr_.end() - 1);
  for (Index r = 0; r < csr.rows(); ++r) {
    const std::span<const Index> cs = csr.RowCols(r);
    const std::span<const Real> vs = csr.RowValues(r);
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const auto d = static_cast<std::size_t>(cs[i]);
      index.postings_[static_cast<std::size_t>(cursor[d]++)] = {r, vs[i]};
      index.max_abs_[d] = std::max(index.max_abs_[d], std::abs(vs[i]));
    }
  }

  if (order == PostingOrder::kAbsDescending) {
    for (Index d = 0; d < csr.cols(); ++d) {
      auto* begin = index.postings_.data() +
                    index.dim_ptr_[static_cast<std::size_t>(d)];
      auto* end = index.postings_.data() +
                  index.dim_ptr_[static_cast<std::size_t>(d) + 1];
      std::sort(begin, end, [](const Posting& a, const Posting& b) {
        const Real aa = std::abs(a.value);
        const Real ab = std::abs(b.value);
        return aa != ab ? aa > ab : a.item < b.item;
      });
    }
  }
  index.DcheckInvariants();
  return index;
}

void InvertedIndex::DcheckInvariants() const {
#ifdef MIPS_ENABLE_DCHECKS
  MIPS_DCHECK_EQ(dim_ptr_.size(), static_cast<std::size_t>(dims_) + 1);
  MIPS_DCHECK_EQ(dim_ptr_.back(), static_cast<int64_t>(postings_.size()));
  for (Index d = 0; d < dims_; ++d) {
    MIPS_DCHECK_LE(dim_ptr_[static_cast<std::size_t>(d)],
                   dim_ptr_[static_cast<std::size_t>(d) + 1]);
    const std::span<const Posting> list = Dim(d);
    for (std::size_t i = 0; i < list.size(); ++i) {
      MIPS_DCHECK_GE(list[i].item, 0);
      MIPS_DCHECK_LT(list[i].item, items_);
      MIPS_DCHECK_NE(list[i].value, Real{0});
      MIPS_DCHECK_LE(std::abs(list[i].value), MaxAbs(d));
      if (i == 0) continue;
      if (order_ == PostingOrder::kItemAscending) {
        MIPS_DCHECK_LT(list[i - 1].item, list[i].item);
      } else {
        const Real prev = std::abs(list[i - 1].value);
        const Real cur = std::abs(list[i].value);
        MIPS_DCHECK(prev > cur ||
                    (prev == cur && list[i - 1].item < list[i].item));
      }
    }
  }
#endif
}

void SparseTopKQuery(const CsrMatrix& csr, const InvertedIndex& index,
                     const Real* q, Index k,
                     std::span<const Index> item_ids,
                     SparseQueryScratch* scratch, TopKHeap* heap,
                     TopKEntry* out_row, SparseQueryStats* stats) {
  MIPS_DCHECK_EQ(heap->k(), k);
  MIPS_DCHECK(item_ids.empty() ||
              item_ids.size() == static_cast<std::size_t>(csr.rows()));
  scratch->Reserve(csr.rows());
  ++scratch->epoch;
  heap->Clear();

  if (index.order() == PostingOrder::kAbsDescending) {
    QueryAbsOrdered(csr, index, q, item_ids, scratch, heap, stats);
  } else {
    QueryItemOrdered(index, q, item_ids, scratch, heap, stats);
  }

  // Items never touched by the walk score exactly +0.0 (zero overlap).
  // They can only matter when the heap still has room or its minimum is
  // not positive — and in exactly that case no item was ever pruned
  // (pruning needs a full heap with MinScore() above a nonnegative
  // bound, and the minimum never decreases once full), so "untouched"
  // really does mean zero overlap and the sweep is exact.  When the
  // minimum is positive the sweep is provably irrelevant and skipped.
  if (!heap->full() || heap->MinScore() <= Real{0}) {
    SweepZeroOverlapItems(index, item_ids, *scratch, heap);
  }
  heap->ExtractDescending(out_row);
}

}  // namespace mips
