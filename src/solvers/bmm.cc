#include "solvers/bmm.h"

#include <memory>

#include "solvers/registry.h"
#include "topk/score_select.h"

namespace mips {
namespace {

// Below this many queried users per pool worker, user partitioning leaves
// workers starved and the item range is split across them instead.
constexpr Index kMinUsersPerThread = 128;

}  // namespace

Status BmmSolver::Build() {
  if (items_.rows() <= 0) {
    return Status::InvalidArgument("item set is empty");
  }
  resolved_batch_rows_ =
      options_.batch_rows > 0 ? options_.batch_rows : kScoreTileRows;
  return Status::OK();
}

Status BmmSolver::Query(Index k, const QueryRows& rows, const ItemMask& mask,
                        TopKResult* out) {
  const Index q = rows.size;
  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index batch = resolved_batch_rows_;

  // Two parallel regimes (both exact, both bit-identical to the serial
  // path).  With enough users per worker, the paper's Figure 6 strategy —
  // static user partitioning, serial score-and-select per chunk —
  // amortizes best.  Below that, a small mini-batch against a wide item
  // set would leave all but one worker idle, so instead the workers split
  // the item range and their partial rows are merged.
  // Either way one scorer call takes a whole range of users, so the items
  // are packed once per block of kScoreRowBlock users, and the users are
  // packed straight from their rows, `batch` to a row tile.  The scorer
  // skips the masked items.
  if (pool_ != nullptr &&
      q >= static_cast<Index>(pool_->num_threads()) * kMinUsersPerThread) {
    ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
      const QueryRows part = rows.Slice(static_cast<Index>(begin),
                                        static_cast<Index>(end), f);
      ScoreTopK(part.data, part.size, items_.data(), n, f, k,
                /*item_offset=*/0, /*item_ids=*/nullptr, /*pool=*/nullptr,
                out, static_cast<Index>(begin), part.ids, batch, mask);
    });
    return Status::OK();
  }
  ScoreTopK(rows.data, q, items_.data(), n, f, k, /*item_offset=*/0,
            /*item_ids=*/nullptr, pool_, out, /*row_offset=*/0, rows.ids,
            batch, mask);
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
