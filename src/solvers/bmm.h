// Blocked matrix multiply (BMM) brute force — Section II-B.
//
// Users are scored in row batches through ScoreTopK (topk/score_select.h):
// the blocked GEMM writes each batch's scores in panels of at most
// kDefaultL2CacheBytes, and each panel is folded into the rows' bounded
// min-heaps while it is still in L2.  All the hardware efficiency lives in
// the GEMM (src/linalg/gemm.cc) and the SIMD selection scan; the heap
// pushes are the K-dependent tail the paper notes ("the runtime for
// blocked matrix multiply varies with K").
//
// With a thread pool, large query batches are statically partitioned
// across users (the paper's Figure 6 strategy); small batches instead
// split the item range across the workers, whose partial rows are merged,
// so a handful of users against a wide item set still uses every core.
// Both paths produce results bit-identical to the single-threaded solver.

#ifndef MIPS_SOLVERS_BMM_H_
#define MIPS_SOLVERS_BMM_H_

#include "solvers/solver.h"

namespace mips {

/// Options for the BMM solver.
struct BmmOptions {
  /// Users gathered per batch.  0 = kScorePanelRows (128), one panel's
  /// rows: the scores never form a block larger than one L2-sized panel,
  /// whatever the batch, so the batch only bounds the gathered user rows.
  Index batch_rows = 0;
};

/// Hardware-efficient brute force via blocked GEMM + per-row top-K.
class BmmSolver : public MipsSolver {
 public:
  explicit BmmSolver(const BmmOptions& options = {}) : options_(options) {}

  std::string name() const override { return "bmm"; }
  bool batches_users() const override { return true; }

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

  /// Resolved batch size (after Prepare).
  Index batch_rows() const { return resolved_batch_rows_; }

 private:
  BmmOptions options_;
  ConstRowBlock users_;
  ConstRowBlock items_;
  Index resolved_batch_rows_ = 0;
};

}  // namespace mips

#endif  // MIPS_SOLVERS_BMM_H_
