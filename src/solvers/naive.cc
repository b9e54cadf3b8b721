#include "solvers/naive.h"

#include <memory>

#include "linalg/blas.h"
#include "solvers/registry.h"
#include "topk/topk_heap.h"

namespace mips {

Status NaiveSolver::Query(Index k, const QueryRows& rows, const ItemMask& mask,
                          TopKResult* out) {
  const Index n = items_.rows();
  const Index f = items_.cols();

  ParallelFor(pool_, rows.size, [&](int64_t begin, int64_t end, int /*chunk*/) {
    TopKHeap heap(k);
    for (int64_t r = begin; r < end; ++r) {
      const Real* u = rows.Row(static_cast<Index>(r), f);
      heap.Clear();
      for (Index j = 0; j < n; ++j) {
        if (!mask.Contains(j)) heap.Push(j, Dot(u, items_.Row(j), f));
      }
      heap.ExtractDescending(out->Row(static_cast<Index>(r)));
    }
  });
  return Status::OK();
}

namespace {

const SolverRegistrar kNaiveRegistrar(
    SolverSchema("naive",
                 "per-pair dot-product brute force (Section II-B strawman)"),
    [](const ParamMap&) -> StatusOr<std::unique_ptr<MipsSolver>> {
      return std::unique_ptr<MipsSolver>(new NaiveSolver());
    });

}  // namespace

}  // namespace mips
