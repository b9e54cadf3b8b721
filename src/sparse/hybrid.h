// hybrid: density-split execution over a mixed item catalog
// (spec "hybrid:density_threshold=...,postings=...").
//
// Real catalogs are often mixed: a dense head of popular, fully-trained
// items plus a long sparse tail.  Neither pure plan fits — the blocked
// GEMM wastes multiplies on the tail's zeros, the inverted index drowns
// in the head's full posting lists.  The hybrid solver splits the
// prepared items at a per-row density threshold: rows at or above it form
// a gathered dense partition scored with ScoreTopK (topk/score_select.h:
// blocked GEMM panels selected while in L2), the rest
// become a CSR + inverted-index partition scored with SparseTopKQuery,
// and each user's two partial top-K rows are merged with the exact k-way
// merge (topk/merge.h).
//
// Exactness: every item lives in exactly one partition; the GEMM's
// per-element K-panel chain does not depend on which other rows share the
// matrix, and the sparse walk is bit-for-bit the same chain (see
// sparse/csr_matrix.h) — so the merged rows are bit-for-bit identical to
// an unsharded dense BMM over the whole catalog, ties included (both
// partitions report global item ids, and MergeTopKRows applies the
// library-wide BetterEntry order).
//
// hybrid batches users (the dense partition's GEMM dominates its cost
// profile), so OPTIMUS samples it with batch timings, like bmm/maximus.

#ifndef MIPS_SPARSE_HYBRID_H_
#define MIPS_SPARSE_HYBRID_H_

#include <string>
#include <vector>

#include "solvers/solver.h"
#include "sparse/csr_matrix.h"
#include "sparse/inverted_index.h"

namespace mips {

/// Density-split dense + sparse solver.
class HybridSolver : public MipsSolver {
 public:
  HybridSolver(Real density_threshold, PostingOrder order)
      : density_threshold_(density_threshold), order_(order) {}

  std::string name() const override { return "hybrid"; }
  bool batches_users() const override { return true; }
  std::string representation() const override { return "hybrid"; }

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

  /// Partition sizes after Prepare().
  Index dense_items() const { return static_cast<Index>(dense_ids_.size()); }
  Index sparse_items() const {
    return static_cast<Index>(sparse_ids_.size());
  }

 private:
  Real density_threshold_;
  PostingOrder order_;
  ConstRowBlock users_;

  // Both id lists are ascending, so partition-local row order preserves
  // the global item order and remapped ties resolve identically.
  std::vector<Index> dense_ids_;
  std::vector<Index> sparse_ids_;
  Matrix dense_items_;  // gathered rows dense_ids_ of the catalog
  CsrMatrix sparse_csr_;
  InvertedIndex sparse_index_;
};

}  // namespace mips

#endif  // MIPS_SPARSE_HYBRID_H_
