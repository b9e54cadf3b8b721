#include "solvers/solver.h"

#include <cstring>
#include <numeric>

#include "topk/score_select.h"

namespace mips {

Status MipsSolver::TopKNewUsers(const ConstRowBlock& items,
                                const Real* user_vectors, Index num_rows,
                                Index k, TopKResult* out) const {
  // BmmSolver's small-batch regime: score-and-select in register tiles,
  // the item range split across the pool.
  *out = TopKResult(num_rows, k);
  ScoreTopK(user_vectors, num_rows, items.data(), items.rows(), items.cols(),
            k, /*item_offset=*/0, /*item_ids=*/nullptr, pool_, out,
            /*row_offset=*/0);
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
