// Offline analytical cost model for blocked matrix multiply
// (Section IV-A, "Offline Performance Profiling for BMM").
//
// Dense GEMM is compute-bound, so its runtime is predictable from the
// FLOP count and the machine's sustained FLOP rate: t = 2*m*n*k / rate.
// The paper reports this model accurate within ~5% for the multiply
// itself — but NOT for the full BMM top-K pipeline, because the min-heap
// selection is data-dependent and contributes >= 9.5% of runtime on large
// models.  That gap is why OPTIMUS uses online sampling instead; we
// reproduce both the model and its documented limitation
// (bench/cost_model_validation, CostModelTest in tests/serving_test.cc).
//
// Calibration measures the sustained rate once with a probe GEMM sized
// well past the L2 cache (analogous to "FLOPs per cycle of the CPU" in
// the paper, but robust to unknown clock/SIMD width).

#ifndef MIPS_CORE_COST_MODEL_H_
#define MIPS_CORE_COST_MODEL_H_

#include <cstdint>

#include "common/status.h"
#include "common/types.h"

namespace mips {

/// Calibrated analytical model of GEMM runtime.
class BmmCostModel {
 public:
  /// Builds a model with a known sustained rate (FLOP/s).  Mostly for
  /// tests; use Calibrate() in production.
  explicit BmmCostModel(double sustained_flops)
      : sustained_flops_(sustained_flops) {}

  /// Measures the sustained GEMM rate with a probe multiply, repeated
  /// `probe_repeats` times, keeping the best rate.  The default probe
  /// shape (2048 x 2048 x 50) matches the MIPS scoring regime: many score
  /// rows/columns, latent-factor-sized K — rates there are within ~15% of
  /// the real model shapes, versus ~40% optimistic for a cache-resident
  /// square probe.
  static StatusOr<BmmCostModel> Calibrate(Index probe_m = 2048,
                                          Index probe_n = 2048,
                                          Index probe_k = 50,
                                          int probe_repeats = 3);

  /// Predicted seconds for an (m x k) * (k x n) multiply.
  double PredictGemmSeconds(int64_t m, int64_t n, int64_t k) const;

  /// Predicted seconds for the full BMM top-K pipeline EXCLUDING the
  /// data-dependent heap pass — i.e. the quantity the paper says the
  /// model can predict.  Identical to PredictGemmSeconds; named
  /// separately to make call sites self-documenting.
  double PredictScoringSeconds(int64_t users, int64_t items,
                               int64_t factors) const {
    return PredictGemmSeconds(users, items, factors);
  }

  /// Sustained rate used by the model, in FLOP/s.
  double sustained_flops() const { return sustained_flops_; }

 private:
  double sustained_flops_;
};

}  // namespace mips

#endif  // MIPS_CORE_COST_MODEL_H_
