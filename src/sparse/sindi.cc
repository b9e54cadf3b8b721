#include "sparse/sindi.h"

#include <memory>

#include "common/timer.h"
#include "solvers/registry.h"

namespace mips {

Status SindiSolver::Prepare(const ConstRowBlock& users,
                            const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  WallTimer timer;
  users_ = users;
  csr_ = CsrMatrix::FromDense(items);
  catalog_stats_ = csr_.ComputeStats();
  index_ = InvertedIndex::Build(csr_, order_);
  prepared_users_ = users.rows();
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Status SindiSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                                 TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);

  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    TopKHeap heap(k);
    SparseQueryScratch scratch;
    SparseQueryStats local;
    for (int64_t r = begin; r < end; ++r) {
      const Real* u = users_.Row(user_ids[static_cast<std::size_t>(r)]);
      SparseTopKQuery(csr_, index_, u, k, /*item_ids=*/{}, &scratch, &heap,
                      out->Row(static_cast<Index>(r)), &local);
    }
    postings_visited_.fetch_add(local.postings_visited,
                                std::memory_order_relaxed);
    items_rescored_.fetch_add(local.items_rescored,
                              std::memory_order_relaxed);
    lists_pruned_.fetch_add(local.lists_pruned, std::memory_order_relaxed);
  });
  return Status::OK();
}

namespace {

StatusOr<std::unique_ptr<MipsSolver>> MakeSindi(const ParamMap& params) {
  auto order = ParsePostingOrder("sindi", params.GetString("postings"));
  if (!order.ok()) return order.status();
  return std::unique_ptr<MipsSolver>(new SindiSolver(*order));
}

const SolverRegistrar kSindiRegistrar(
    SolverSchema("sindi",
                 "exact sparse MIPS over per-dimension posting lists "
                 "(CSR catalog + inverted index)")
        .String("postings", "abs",
                "posting-list order: \"abs\" (|value| desc, upper-bound "
                "cutoffs) or \"id\" (item asc, unpruned term-at-a-time)"),
    &MakeSindi);

}  // namespace

}  // namespace mips
