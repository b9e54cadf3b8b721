// FEXIPRO: fast and exact inner product retrieval (SIGMOD'17 baseline).
//
// A point-query index over the items: vectors are SVD-rotated, sorted by
// norm, and each query scans that order with a cascade of upper bounds —
//
//   1. length bound      ||u|| * ||i||          (stops the whole scan)
//   2. integer bound     int16 dot + rounding correction
//   3. SVD partial bound head product + Cauchy-Schwarz tail
//   4. exact dot         (only for survivors)
//
// The SIR variant additionally applies the non-negativity reduction before
// quantization (one extra dimension per vector).  Deliberately *not*
// batched across users: the paper attributes FEXIPRO's batch-setting
// losses to its point-query design, and OPTIMUS exploits the non-batching
// property for t-test early stopping.
//
// Reported scores are computed from the ORIGINAL (untransformed) user and
// item vectors: the bound cascade runs in SVD space, but a survivor is
// rescored against the raw rows before it enters the heap.  The SVD
// rotation preserves inner products only up to ulps — and the rotation
// itself depends on the item set — so heap scores taken in SVD space
// would make the same item score differently under different partitions
// of the catalog, breaking ShardedMipsEngine's bit-for-bit
// sharded==unsharded guarantee on exact cross-shard ties.  Original-space
// rescoring makes FEXIPRO's scores identical to BMM/LEMP/naive's for the
// same (user, item) pair, ties included.  Because the bounds then live in
// a different (rotated) space than the heap scores they prune against,
// each bound is inflated by an O(f * eps * ||u|| * ||i||) slack before it
// may prune — covering the rotation's rounding error so the cascade stays
// a sound over-approximation of the original-space score.

#ifndef MIPS_SOLVERS_FEXIPRO_FEXIPRO_H_
#define MIPS_SOLVERS_FEXIPRO_FEXIPRO_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "solvers/fexipro/transforms.h"
#include "solvers/solver.h"

namespace mips {

/// Options for the FEXIPRO reproduction.
struct FexiproOptions {
  /// Enable the "R" reduction (SIR); false = SI.
  bool use_reduction = false;
  /// Energy share captured by the SVD head dimensions.
  Real svd_energy_fraction = 0.8;
  /// Lesion switches for the bound cascade (ablation bench): disabling a
  /// stage never affects exactness, only pruning cost/effectiveness.
  bool use_int_bound = true;
  bool use_svd_bound = true;
};

/// FEXIPRO-SI / FEXIPRO-SIR exact MIPS index.
class FexiproSolver : public MipsSolver {
 public:
  explicit FexiproSolver(const FexiproOptions& options = {})
      : options_(options) {}

  std::string name() const override {
    return options_.use_reduction ? "fexipro-sir" : "fexipro-si";
  }
  bool batches_users() const override { return false; }

  /// SVD head width chosen during Prepare (for tests/benches).
  Index head_dims() const { return svd_.head_dims; }
  /// Fraction of items fully scored in the last query batch.  Under
  /// concurrent queries this reflects whichever batch finished last.
  double last_exact_fraction() const {
    return last_exact_fraction_.load(std::memory_order_relaxed);
  }

 protected:
  Status Build() override;
  Status Query(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;

 private:
  struct QueryScratch;
  /// One row's scan, passing over the masked items before their bounds.
  Index QueryOneUser(const Real* user, Index k, const ItemMask& mask,
                     QueryScratch* scratch, TopKEntry* out_row) const;

  FexiproOptions options_;

  fexipro::SvdTransform svd_;
  fexipro::ReductionTransform reduction_;  // SIR only
  fexipro::Int16Quantizer item_quantizer_;

  /// Items after SVD (and sorting by descending norm).
  Matrix sorted_items_;  // n x f, SVD space
  std::vector<Real> norms_;
  std::vector<Index> ids_;
  std::vector<Real> tail_norms_;  // ||i[h:f)|| per sorted item

  /// Integer-space data (SVD+R space for SIR, SVD space for SI).
  Index int_dims_ = 0;
  std::vector<int16_t> quantized_items_;  // n x int_dims_
  std::vector<int64_t> item_l1_;

  std::atomic<double> last_exact_fraction_{0};
};

}  // namespace mips

#endif  // MIPS_SOLVERS_FEXIPRO_FEXIPRO_H_
