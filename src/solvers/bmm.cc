#include "solvers/bmm.h"

#include <algorithm>
#include <memory>

#include "solvers/registry.h"
#include "topk/score_select.h"

namespace mips {
namespace {

// Below this many queried users per pool worker, user partitioning leaves
// workers starved and the item range is split across them instead.
constexpr Index kMinUsersPerThread = 128;

}  // namespace

Status BmmSolver::Prepare(const ConstRowBlock& users,
                          const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  if (items.rows() <= 0) {
    return Status::InvalidArgument("item set is empty");
  }
  users_ = users;
  items_ = items;
  prepared_users_ = users.rows();

  resolved_batch_rows_ =
      options_.batch_rows > 0 ? options_.batch_rows : kScorePanelRows;
  return Status::OK();
}

Status BmmSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                               TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (items_.rows() <= 0) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index batch = resolved_batch_rows_;

  // Two parallel regimes (both exact, both bit-identical to the serial
  // path).  With enough users per worker, the paper's Figure 6 strategy —
  // static user partitioning, serial score-and-select per chunk —
  // amortizes best.  Below that, a small mini-batch against a wide item
  // set would leave all but one worker idle, so instead the workers split
  // the item range and their partial rows are merged.
  const bool partition_users =
      pool_ == nullptr ||
      q >= static_cast<Index>(pool_->num_threads()) * kMinUsersPerThread;
  if (partition_users) {
    ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
      for (int64_t b = begin; b < end; b += batch) {
        const Index m = static_cast<Index>(std::min<int64_t>(batch, end - b));
        // Gather this batch's user rows so the GEMM sees a contiguous A.
        const Matrix block = GatherRows(
            users_, user_ids.subspan(static_cast<std::size_t>(b),
                                     static_cast<std::size_t>(m)));
        ScoreTopK(block.data(), m, items_.data(), n, f, k,
                  /*item_offset=*/0, /*item_ids=*/nullptr, /*pool=*/nullptr,
                  out, static_cast<Index>(b));
      }
    });
    return Status::OK();
  }

  // Fewer than kMinUsersPerThread users per worker: gather them all once.
  const Matrix block = GatherRows(users_, user_ids);
  ScoreTopK(block.data(), q, items_.data(), n, f, k, /*item_offset=*/0,
            /*item_ids=*/nullptr, pool_, out, /*row_offset=*/0);
  return Status::OK();
}

namespace {

const SolverRegistrar kBmmRegistrar(
    SolverSchema("bmm", "blocked-GEMM brute force (Section II-B)")
        .Int("batch_rows", BmmOptions{}.batch_rows,
             "users gathered per batch (0 = auto, 128)"),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      BmmOptions options;
      auto batch_rows = params.GetIndexChecked("batch_rows");
      MIPS_RETURN_IF_ERROR(batch_rows.status());
      if (*batch_rows < 0) {
        return Status::InvalidArgument("batch_rows must be >= 0");
      }
      options.batch_rows = *batch_rows;
      return std::unique_ptr<MipsSolver>(new BmmSolver(options));
    });

}  // namespace

}  // namespace mips
