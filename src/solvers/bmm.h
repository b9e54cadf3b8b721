// Blocked matrix multiply (BMM) brute force — Section II-B.
//
// Users are scored through ScoreTopK (topk/score_select.h): the GEMM's
// micro-kernel computes one 4x16 register tile of scores at a time, and
// each tile is folded into its rows' bounded min-heaps while it is still
// in L1, so no score block is ever written.  One call takes a whole
// request (or a pool worker's whole range) and scores it in blocks of
// about 2,048 users (kScoreRowBlock), holding one block's heaps at a
// time: the items are packed once per block (not at all for a call of at
// most kScoreInPlaceRows users, which reads them in place) and the users
// once per item chunk, batch_rows to a row tile.  All
// the hardware efficiency lives in the GEMM micro-kernel
// (src/linalg/gemm_kernel*.cc) and the SIMD tile scan; the heap pushes
// are the K-dependent tail the paper notes ("the runtime for blocked
// matrix multiply varies with K").
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
  /// Users scored per row tile: each tile of users is packed once per
  /// item chunk and passes every item panel of it.  0 = kScoreTileRows
  /// (128).  No score block is written, whatever the batch.
  Index batch_rows = 0;
};

/// Hardware-efficient brute force via blocked GEMM + per-row top-K.
class BmmSolver : public MipsSolver {
 public:
  explicit BmmSolver(const BmmOptions& options = {}) : options_(options) {}

  std::string name() const override { return "bmm"; }
  bool batches_users() const override { return true; }

  /// Resolved batch size (after Prepare).
  Index batch_rows() const { return resolved_batch_rows_; }

 protected:
  Status Build() override;
  Status Query(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;

 private:
  BmmOptions options_;
  Index resolved_batch_rows_ = 0;
};

}  // namespace mips

#endif  // MIPS_SOLVERS_BMM_H_
