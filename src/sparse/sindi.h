// sindi: exact sparse MIPS over an inverted index (spec "sindi:postings=...").
//
// The solver compresses the prepared item matrix into a CsrMatrix, builds
// per-dimension posting lists (sparse/inverted_index.h), and answers each
// user query with the SparseTopKQuery walk — value-ordered with
// upper-bound cutoffs ("postings=abs", the default) or item-ordered
// term-at-a-time ("postings=id", the unpruned ablation baseline).  Both
// modes return bit-for-bit the dense BMM reference answer under the
// library-wide tie order; density only changes the speed, never the bits.
//
// sindi is a point-query solver (batches_users() == false): per-user cost
// is the real cost, so OPTIMUS samples it user-by-user and may early-stop
// with the t-test, exactly like naive/LEMP/FEXIPRO.

#ifndef MIPS_SPARSE_SINDI_H_
#define MIPS_SPARSE_SINDI_H_

#include <atomic>
#include <string>

#include "solvers/solver.h"
#include "sparse/csr_matrix.h"
#include "sparse/inverted_index.h"

namespace mips {

/// Exact inverted-index sparse solver.
class SindiSolver : public MipsSolver {
 public:
  explicit SindiSolver(PostingOrder order) : order_(order) {}

  std::string name() const override {
    return order_ == PostingOrder::kAbsDescending ? "sindi" : "sindi-id";
  }
  bool batches_users() const override { return false; }
  std::string representation() const override { return "sparse"; }

  /// Catalog shape the solver indexed (valid after Prepare()).
  const CsrMatrix::Stats& catalog_stats() const { return catalog_stats_; }
  /// Query-walk counters accumulated across every query, prepared users
  /// and new vectors alike.
  SparseQueryStats query_stats() const {
    return {postings_visited_.load(std::memory_order_relaxed),
            items_rescored_.load(std::memory_order_relaxed),
            lists_pruned_.load(std::memory_order_relaxed)};
  }

 protected:
  Status Build() override;
  Status Query(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;

 private:
  PostingOrder order_;
  CsrMatrix csr_;
  InvertedIndex index_;
  CsrMatrix::Stats catalog_stats_;

  // Diagnostics only: concurrent query chunks add their local counters
  // once per chunk (relaxed; no ordering is implied with the results).
  std::atomic<int64_t> postings_visited_{0};
  std::atomic<int64_t> items_rescored_{0};
  std::atomic<int64_t> lists_pruned_{0};
};

}  // namespace mips

#endif  // MIPS_SPARSE_SINDI_H_
