#include "sparse/hybrid.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/timer.h"
#include "solvers/registry.h"
#include "topk/merge.h"
#include "topk/score_select.h"

namespace mips {

Status HybridSolver::Build() {
  WallTimer timer;
  const Index f = items_.cols();
  dense_ids_.clear();
  sparse_ids_.clear();
  for (Index r = 0; r < items_.rows(); ++r) {
    const Real* row = items_.Row(r);
    Index nnz = 0;
    for (Index c = 0; c < f; ++c) {
      if (row[c] != Real{0}) ++nnz;
    }
    const Real density =
        f > 0 ? static_cast<Real>(nnz) / static_cast<Real>(f) : Real{0};
    if (density >= density_threshold_) {
      dense_ids_.push_back(r);
    } else {
      sparse_ids_.push_back(r);
    }
  }

  dense_items_ = GatherRows(items_, dense_ids_);
  sparse_csr_ = CsrMatrix::FromDenseRows(items_, sparse_ids_);
  sparse_index_ = InvertedIndex::Build(sparse_csr_, order_);
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Status HybridSolver::Query(Index k, const QueryRows& rows, const ItemMask& mask,
                          TopKResult* out) {
  const Index f = items_.cols();
  const Index nd = dense_items_.rows();
  std::vector<Index> dense_masked, sparse_masked;
  const ItemMask dense_mask = mask.Gather(dense_ids_, &dense_masked);
  const ItemMask sparse_mask = mask.Gather(sparse_ids_, &sparse_masked);

  // With both partitions, each result row first holds the dense partition's
  // top-k and is then merged with the sparse partition's.
  const bool merge = nd > 0 && sparse_csr_.rows() > 0;
  ParallelFor(pool_, rows.size, [&](int64_t begin, int64_t end,
                                    int /*chunk*/) {
    const QueryRows part = rows.Slice(static_cast<Index>(begin),
                                      static_cast<Index>(end), f);
    const Index m = part.size;
    // One scorer call for the whole range.
    if (nd > 0) {
      ScoreTopK(part.data, m, dense_items_.data(), nd, f, k,
                /*item_offset=*/0, dense_ids_.data(), /*pool=*/nullptr, out,
                static_cast<Index>(begin), part.ids, kScoreTileRows,
                dense_mask);
    }
    if (sparse_csr_.rows() == 0) return;
    TopKHeap heap(k);
    SparseQueryScratch scratch;
    std::vector<TopKEntry> dense_row(static_cast<std::size_t>(merge ? k : 0));
    std::vector<TopKEntry> sparse_row(static_cast<std::size_t>(k));
    for (Index r = 0; r < m; ++r) {
      const Index row = static_cast<Index>(begin) + r;
      const Real* u = part.Row(r, f);
      SparseTopKQuery(sparse_csr_, sparse_index_, u, k, sparse_ids_,
                      sparse_mask, &scratch, &heap,
                      merge ? sparse_row.data() : out->Row(row),
                      /*stats=*/nullptr);
      if (merge) {
        std::copy_n(out->Row(row), k, dense_row.data());
        const TopKEntry* partials[] = {dense_row.data(), sparse_row.data()};
        MergeTopKRows(partials, k, k, out->Row(row));
      }
    }
  });
  return Status::OK();
}

namespace {

const SolverRegistrar kHybridRegistrar(
    SolverSchema("hybrid",
                 "density-split dense GEMM + sparse inverted-index "
                 "execution with an exact top-K merge")
        .Real("density_threshold", 0.25,
              "items with row density >= this go to the dense GEMM "
              "partition; the rest to the CSR inverted index (0 = all "
              "dense, > 1 = all sparse)")
        .String("postings", "abs",
                "posting-list order of the sparse partition: \"abs\" or "
                "\"id\" (see sindi)"),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      const double threshold = params.GetReal("density_threshold");
      if (!(threshold >= 0)) {  // rejects negatives and NaN
        return Status::InvalidArgument(
            "hybrid: density_threshold must be >= 0");
      }
      auto order = ParsePostingOrder("hybrid", params.GetString("postings"));
      if (!order.ok()) return order.status();
      return std::unique_ptr<MipsSolver>(
          new HybridSolver(static_cast<Real>(threshold), *order));
    });

}  // namespace

}  // namespace mips
