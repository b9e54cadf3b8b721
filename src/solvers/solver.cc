#include "solvers/solver.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "linalg/gemm.h"
#include "topk/topk_block.h"

namespace mips {

Status MipsSolver::TopKNewUsers(const ConstRowBlock& items,
                                const Real* user_vectors, Index num_rows,
                                Index k, TopKResult* out) const {
  // Mirrors BmmSolver's small-batch regime: one blocked GEMM per
  // score-block chunk (macro-panels fan out across the pool), then a
  // parallel per-row top-K reduction.  Chunking bounds the score block
  // to ~16 MB however wide the catalog is.
  const Index n = items.rows();
  const Index f = items.cols();
  const std::size_t row_bytes = static_cast<std::size_t>(n) * sizeof(Real);
  const Index chunk = static_cast<Index>(std::clamp<std::size_t>(
      (16ull << 20) / std::max<std::size_t>(1, row_bytes), 1,
      static_cast<std::size_t>(num_rows)));
  *out = TopKResult(num_rows, k);
  Matrix scores(chunk, n);
  for (Index b = 0; b < num_rows; b += chunk) {
    const Index m = std::min<Index>(chunk, num_rows - b);
    GemmNT(user_vectors + static_cast<std::size_t>(b) * f, m, items.data(),
           n, f, /*alpha=*/1, /*beta=*/0, scores.data(), scores.cols(),
           pool_);
    ParallelFor(pool_, m, [&](int64_t begin, int64_t end, int /*chunk_i*/) {
      TopKFromScoreBlock(
          scores.data() + static_cast<std::size_t>(begin) * scores.cols(),
          static_cast<Index>(end - begin), n, scores.cols(), k,
          /*item_offset=*/0, /*item_ids=*/nullptr, out,
          b + static_cast<Index>(begin));
    });
  }
  return Status::OK();
}

Status MipsSolver::TopKAll(Index k, TopKResult* out) {
  std::vector<Index> ids(static_cast<std::size_t>(prepared_users_));
  std::iota(ids.begin(), ids.end(), 0);
  return TopKForUsers(k, ids, out);
}

Matrix GatherRows(const ConstRowBlock& users, std::span<const Index> ids) {
  Matrix out(static_cast<Index>(ids.size()), users.cols());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    std::memcpy(out.Row(static_cast<Index>(r)), users.Row(ids[r]),
                static_cast<std::size_t>(users.cols()) * sizeof(Real));
  }
  return out;
}

}  // namespace mips
