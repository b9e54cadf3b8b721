// OPTIMUS: the online, sampling-based MIPS serving optimizer (Section IV).
//
// Given a model and a set of candidate strategies (always including BMM in
// the paper's setup, plus one or more indexes), OPTIMUS:
//
//   1. Builds every index in full — construction is 0.5-2% of serving time
//      for the fast indexes (Figure 4), so this is cheap insurance.
//   2. Draws a random user sample: max(sample_ratio * |U|, enough vectors
//      to occupy the L2 cache) — the cache floor ensures the sample GEMM
//      exhibits the same blocked-kernel behavior as the full run.
//   3. Times each strategy on the sample.  Batching strategies (BMM,
//      MAXIMUS) run the whole sample at once; point-query strategies
//      (LEMP, FEXIPRO) are timed user-by-user with an incremental
//      one-sample t-test against the best batching mean, stopping early
//      when the difference is already significant.
//   4. Extrapolates per-user cost to |U|, picks the minimum, serves the
//      remaining users with the winner, and reuses the sample's results.
//
// The report records every estimate and timing component so the Table II
// bench can compute accuracy, overhead, and oracle gaps.

#ifndef MIPS_CORE_OPTIMUS_H_
#define MIPS_CORE_OPTIMUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "solvers/solver.h"

namespace mips {

/// OPTIMUS tuning knobs (paper defaults: 0.5% sample, 256 KB L2, 5% alpha).
struct OptimusOptions {
  double sample_ratio = 0.005;
  std::size_t l2_cache_bytes = kDefaultL2CacheBytes;
  /// Upper bound on the sample as a fraction of |U| (min 64 users).  The
  /// L2-fill floor is calibrated for paper-scale user sets (>= 480K users,
  /// where 0.5% easily fills the cache); on scaled-down instances the
  /// floor could swallow a third of all users and turn "optimizer
  /// overhead" into an artifact.  Set to 1.0 to disable the cap.
  double max_sample_ratio = 0.05;
  /// Enable t-test early stopping for non-batching strategies.
  bool enable_ttest = true;
  double ttest_alpha = 0.05;
  int ttest_min_observations = 8;
  uint64_t seed = 123;
};

/// Measured/estimated cost of one candidate strategy.
struct StrategyEstimate {
  std::string name;
  /// Item-catalog representation the strategy executes against ("dense",
  /// "sparse", "hybrid" — MipsSolver::representation()).
  std::string representation;
  double construction_seconds = 0;
  /// Wall time spent measuring this strategy on the sample.
  double sampling_seconds = 0;
  /// Users actually measured (may be < sample size under early stopping).
  Index measured_users = 0;
  /// Extrapolated per-user serving cost.
  double est_per_user_seconds = 0;
  /// est_per_user_seconds * |U|: the quantity strategies are ranked by.
  double est_total_seconds = 0;
  bool early_stopped = false;
};

/// Outcome of one OPTIMUS run.
struct OptimusReport {
  std::string chosen;
  /// Representation of the winning strategy ("dense", "sparse", "hybrid")
  /// so a dense-vs-sparse arbitration is attributable at a glance; the
  /// per-strategy estimates carry the measured sample timings both plans
  /// were judged by.
  std::string representation;
  /// The GEMM micro-kernel installed while the decision was measured
  /// ("portable" / "avx2" / "avx512" — see linalg/simd_dispatch.h).
  /// Every wall-clock estimate below was taken under this kernel's
  /// throughput, so recording it keeps the decision attributable when
  /// hardware regimes differ (e.g. emulated AVX-512).
  std::string gemm_kernel;
  std::vector<StrategyEstimate> estimates;
  Index sample_size = 0;
  /// Serving the non-sample users with the winner.
  double serve_seconds = 0;
  /// End-to-end wall time (construction + sampling + decision + serving).
  double total_seconds = 0;
  /// Sum of construction times over all strategies.
  double construction_seconds = 0;
  /// Sum of sampling times over all strategies.
  double sampling_seconds = 0;
};

/// The optimizer.  Strategies are borrowed (caller owns and outlives the
/// call).  Run() prepares them; Decide() measures strategies that are
/// already prepared.  Both time the candidates with the same measurement.
class Optimus {
 public:
  explicit Optimus(const OptimusOptions& options = {}) : options_(options) {}

  /// Selects and executes the fastest strategy for this (users, items, K)
  /// input: prepares every strategy, decides as Decide() does with
  /// population sizing, and serves the remaining users with the winner.
  /// Requires >= 2 strategies.  *out receives exact top-K for all users;
  /// *report (optional) receives the decision trace.
  Status Run(const ConstRowBlock& users, const ConstRowBlock& items, Index k,
             const std::vector<MipsSolver*>& strategies, TopKResult* out,
             OptimusReport* report = nullptr);

  /// Decision only, over strategies ALREADY Prepared on (users, items):
  /// measures the sample and fills *winner with the index into
  /// `strategies` of the chosen solver, without serving the full user
  /// set.  The report's construction times are zero (nothing is built).
  ///
  /// `sample_users` = 0 sizes the sample from the population (ratio, L2
  /// floor and cap above).  `sample_users` > 0 samples exactly that many
  /// users, capped at |U|: this asks "which strategy wins for a B-row
  /// batch?", so batching strategies are timed on one B-row call — a
  /// 1-row "batch" GEMM pays the full item-panel sweep for one user, while
  /// 64 coalesced rows amortize it.  MipsEngine's shape-keyed decisions
  /// (EngineOptions::batch_shape_decisions) pass their bucket here.
  Status Decide(const ConstRowBlock& users, const ConstRowBlock& items,
                Index k, const std::vector<MipsSolver*>& strategies,
                std::size_t* winner, OptimusReport* report = nullptr,
                Index sample_users = 0);

 private:
  struct SampleMeasurement;
  // The one timing routine behind Run and Decide: draws the sample, times
  // every (prepared) strategy on it and picks the minimum estimate.
  // Resets *report; leaves its construction and total times at zero.
  Status Measure(const ConstRowBlock& users, Index k,
                 const std::vector<MipsSolver*>& strategies,
                 Index sample_users, OptimusReport* report,
                 SampleMeasurement* sample);

  OptimusOptions options_;
};

}  // namespace mips

#endif  // MIPS_CORE_OPTIMUS_H_
