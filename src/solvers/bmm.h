// Blocked matrix multiply (BMM) brute force — Section II-B.
//
// Users are scored in row batches: one blocked GEMM per batch produces a
// dense (batch x |I|) score block, and each row is reduced to its top K
// with a bounded min-heap.  All the hardware efficiency lives in the GEMM
// (src/linalg/gemm.cc); the heap pass is the K-dependent tail the paper
// notes ("the runtime for blocked matrix multiply varies with K").
//
// With a thread pool, large query batches are statically partitioned
// across users (the paper's Figure 6 strategy); small batches instead
// parallelize the GEMM macro-panels themselves so a handful of users
// against a wide item set still uses every core.  Both paths produce
// results bit-identical to the single-threaded solver.

#ifndef MIPS_SOLVERS_BMM_H_
#define MIPS_SOLVERS_BMM_H_

#include "solvers/solver.h"

namespace mips {

/// Options for the BMM solver.
struct BmmOptions {
  /// Users scored per GEMM batch.  0 = pick automatically from the score
  /// block memory budget below.
  Index batch_rows = 0;
  /// Budget for one batch's score block when batch_rows == 0.  The paper
  /// sizes batches to available memory; empirically a last-level-cache-
  /// sized block is faster here because the top-K pass re-reads it, so
  /// the default targets ~16 MB.
  std::size_t score_block_bytes = 16ull << 20;
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
