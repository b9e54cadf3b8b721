#include "sparse/hybrid.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/timer.h"
#include "solvers/registry.h"
#include "topk/merge.h"
#include "topk/score_select.h"

namespace mips {

Status HybridSolver::Prepare(const ConstRowBlock& users,
                             const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  WallTimer timer;
  users_ = users;
  prepared_users_ = users.rows();

  const Index f = items.cols();
  dense_ids_.clear();
  sparse_ids_.clear();
  for (Index r = 0; r < items.rows(); ++r) {
    const Real* row = items.Row(r);
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

  dense_items_ = GatherRows(items, dense_ids_);
  sparse_csr_ = CsrMatrix::FromDenseRows(items, sparse_ids_);
  sparse_index_ = InvertedIndex::Build(sparse_csr_, order_);
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Status HybridSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                                  TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  const Index f = users_.cols();
  const Index nd = dense_items_.rows();

  // With both partitions, each result row first holds the dense partition's
  // top-k and is then merged with the sparse partition's.
  const bool merge = nd > 0 && sparse_csr_.rows() > 0;
  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    const auto m = static_cast<Index>(end - begin);
    // One scorer call for the whole range.
    if (nd > 0) {
      ScoreTopK(users_.data(), m, dense_items_.data(), nd, f, k,
                /*item_offset=*/0, dense_ids_.data(), /*pool=*/nullptr, out,
                static_cast<Index>(begin), user_ids.data() + begin);
    }
    if (sparse_csr_.rows() == 0) return;
    TopKHeap heap(k);
    SparseQueryScratch scratch;
    std::vector<TopKEntry> dense_row(static_cast<std::size_t>(merge ? k : 0));
    std::vector<TopKEntry> sparse_row(static_cast<std::size_t>(k));
    for (Index r = 0; r < m; ++r) {
      const Index row = static_cast<Index>(begin) + r;
      const Real* u = users_.Row(user_ids[static_cast<std::size_t>(row)]);
      SparseTopKQuery(sparse_csr_, sparse_index_, u, k, sparse_ids_,
                      &scratch, &heap,
                      merge ? sparse_row.data() : out->Row(row),
                      /*stats=*/nullptr);
      if (merge) {
        std::copy_n(out->Row(row), k, dense_row.data());
        const TopKEntry* rows[] = {dense_row.data(), sparse_row.data()};
        MergeTopKRows(rows, k, k, out->Row(row));
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
