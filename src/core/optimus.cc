#include "core/optimus.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/timer.h"
#include "linalg/simd_dispatch.h"
#include "stats/sampling.h"
#include "stats/ttest.h"

namespace mips {

// Everything the decision phase learns that the serving phase can reuse:
// which users were measured and the top-K rows already computed for them.
struct Optimus::SampleMeasurement {
  std::vector<Index> sample;
  std::vector<TopKResult> results;  // per strategy; rows parallel `sample`
  std::size_t winner = 0;
};

namespace {

Status CheckArguments(const ConstRowBlock& users, Index k,
                      const std::vector<MipsSolver*>& strategies) {
  if (strategies.size() < 2) {
    return Status::InvalidArgument("OPTIMUS needs at least two strategies");
  }
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (users.rows() <= 0) return Status::InvalidArgument("user set is empty");
  return Status::OK();
}

}  // namespace

Status Optimus::Measure(const ConstRowBlock& users, Index k,
                        const std::vector<MipsSolver*>& strategies,
                        Index sample_users, OptimusReport* report,
                        SampleMeasurement* sample_out) {
  const Index n = users.rows();
  OptimusReport& rep = *report;
  rep = OptimusReport();
  // Force the kernel install before the first timed GEMM so the probe's
  // cost never lands inside a strategy measurement.
  rep.gemm_kernel = ToString(ActiveGemmKernel());
  rep.estimates.resize(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    rep.estimates[s].name = strategies[s]->name();
    rep.estimates[s].representation = strategies[s]->representation();
  }

  // --- Step 2: draw the user sample (ratio floor + L2 cache floor,
  // capped to a strict minority of the users on small instances).  A
  // requested sample_users skips the population sizing entirely: the
  // caller is asking about a concrete batch shape, so the sample IS the
  // batch. ---
  Rng rng(options_.seed);
  Index sample_size;
  if (sample_users > 0) {
    sample_size = std::min(sample_users, n);
  } else {
    sample_size = OptimizerSampleSize(
        n, options_.sample_ratio, users.cols(), options_.l2_cache_bytes);
    // Floor of 64: even when the cap binds, BMM's sample GEMM needs enough
    // rows to exercise the blocked kernel (the L2-fill rationale, scaled).
    const Index cap = std::max<Index>(
        64, static_cast<Index>(std::ceil(options_.max_sample_ratio *
                                         static_cast<double>(n))));
    sample_size = std::min(sample_size, std::min(cap, n));
  }
  sample_out->sample = SampleWithoutReplacement(n, sample_size, &rng);
  const std::vector<Index>& sample = sample_out->sample;
  rep.sample_size = static_cast<Index>(sample.size());

  // --- Step 3: measure every strategy on the sample. ---
  // Batching strategies first: their per-user means provide mu0 for the
  // t-test on the point-query strategies.
  sample_out->results.assign(strategies.size(), TopKResult());
  // Fixed-shape decisions over tiny batches (1-8 rows) would otherwise
  // ride on a single sub-millisecond timing; repeat the measurement a few
  // times and keep the best (interference only ever slows a run down).
  const int reps = sample_users > 0
                       ? static_cast<int>(std::clamp<Index>(
                             32 / static_cast<Index>(sample.size()), 1, 8))
                       : 1;
  double best_batching_mean = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    if (!strategies[s]->batches_users()) continue;
    StrategyEstimate& est = rep.estimates[s];
    double best_call = std::numeric_limits<double>::infinity();
    WallTimer timer;
    for (int r = 0; r < reps; ++r) {
      WallTimer call_timer;
      MIPS_RETURN_IF_ERROR(
          strategies[s]->TopKForUsers(k, sample, &sample_out->results[s]));
      best_call = std::min(best_call, call_timer.Seconds());
    }
    est.sampling_seconds = timer.Seconds();
    est.measured_users = static_cast<Index>(sample.size());
    est.est_per_user_seconds = best_call / static_cast<double>(sample.size());
    est.est_total_seconds = est.est_per_user_seconds * n;
    best_batching_mean =
        std::min(best_batching_mean, est.est_per_user_seconds);
    // mips-tidy: allow(float-accumulation): wall-clock bookkeeping.
    rep.sampling_seconds += est.sampling_seconds;
  }
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    if (strategies[s]->batches_users()) continue;
    StrategyEstimate& est = rep.estimates[s];
    sample_out->results[s] = TopKResult(static_cast<Index>(sample.size()), k);
    const bool can_early_stop =
        options_.enable_ttest &&
        best_batching_mean < std::numeric_limits<double>::infinity();
    IncrementalTTest ttest(best_batching_mean, options_.ttest_alpha,
                           options_.ttest_min_observations);
    WallTimer timer;
    Index measured = 0;
    TopKResult one_row;
    for (int r = 0; r < reps && !est.early_stopped; ++r) {
      for (std::size_t i = 0; i < sample.size(); ++i) {
        WallTimer per_user;
        const Index id = sample[i];
        MIPS_RETURN_IF_ERROR(strategies[s]->TopKForUsers(
            k, std::span<const Index>(&id, 1), &one_row));
        const double elapsed = per_user.Seconds();
        if (r == 0) {
          sample_out->results[s].CopyRowFrom(one_row, 0,
                                             static_cast<Index>(i));
          ++measured;
        }
        if (can_early_stop && ttest.Add(elapsed).significant) {
          est.early_stopped = true;
          break;
        }
        if (!can_early_stop) ttest.Add(elapsed);
      }
    }
    est.sampling_seconds = timer.Seconds();
    est.measured_users = measured;
    est.est_per_user_seconds = ttest.accumulator().mean();
    est.est_total_seconds = est.est_per_user_seconds * n;
    // mips-tidy: allow(float-accumulation): wall-clock bookkeeping.
    rep.sampling_seconds += est.sampling_seconds;
  }

  // --- Step 4: choose the minimum-estimate strategy. ---
  std::size_t winner = 0;
  for (std::size_t s = 1; s < strategies.size(); ++s) {
    if (rep.estimates[s].est_total_seconds <
        rep.estimates[winner].est_total_seconds) {
      winner = s;
    }
  }
  sample_out->winner = winner;
  rep.chosen = strategies[winner]->name();
  rep.representation = strategies[winner]->representation();
  return Status::OK();
}

Status Optimus::Decide(const ConstRowBlock& users,
                       const ConstRowBlock& /*items*/, Index k,
                       const std::vector<MipsSolver*>& strategies,
                       std::size_t* winner, OptimusReport* report,
                       Index sample_users) {
  MIPS_RETURN_IF_ERROR(CheckArguments(users, k, strategies));
  WallTimer total_timer;
  OptimusReport local_report;
  OptimusReport& rep = report != nullptr ? *report : local_report;
  SampleMeasurement sample;
  MIPS_RETURN_IF_ERROR(
      Measure(users, k, strategies, sample_users, &rep, &sample));
  *winner = sample.winner;
  rep.total_seconds = total_timer.Seconds();
  return Status::OK();
}

Status Optimus::Run(const ConstRowBlock& users, const ConstRowBlock& items,
                    Index k, const std::vector<MipsSolver*>& strategies,
                    TopKResult* out, OptimusReport* report) {
  MIPS_RETURN_IF_ERROR(CheckArguments(users, k, strategies));
  WallTimer total_timer;
  OptimusReport local_report;
  OptimusReport& rep = report != nullptr ? *report : local_report;

  // --- Step 1: build every index in full (cheap relative to serving),
  // under the kernel that will be measured. ---
  ActiveGemmKernel();
  std::vector<double> construction_seconds(strategies.size());
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    WallTimer timer;
    MIPS_RETURN_IF_ERROR(strategies[s]->Prepare(users, items));
    construction_seconds[s] = timer.Seconds();
  }
  SampleMeasurement sample;
  MIPS_RETURN_IF_ERROR(Measure(users, k, strategies, 0, &rep, &sample));
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    rep.estimates[s].construction_seconds = construction_seconds[s];
    // mips-tidy: allow(float-accumulation): wall-clock bookkeeping.
    rep.construction_seconds += construction_seconds[s];
  }
  const std::size_t winner = sample.winner;
  const Index n = users.rows();

  // --- Step 5: serve everyone not already answered by the winner's
  // sample run, then merge. ---
  *out = TopKResult(n, k);
  std::vector<bool> answered(static_cast<std::size_t>(n), false);
  const Index winner_measured = rep.estimates[winner].measured_users;
  for (Index i = 0; i < winner_measured; ++i) {
    const Index id = sample.sample[static_cast<std::size_t>(i)];
    out->CopyRowFrom(sample.results[winner], i, id);
    answered[static_cast<std::size_t>(id)] = true;
  }
  std::vector<Index> remaining;
  remaining.reserve(static_cast<std::size_t>(n));
  for (Index id = 0; id < n; ++id) {
    if (!answered[static_cast<std::size_t>(id)]) remaining.push_back(id);
  }
  WallTimer serve_timer;
  if (!remaining.empty()) {
    TopKResult rest;
    MIPS_RETURN_IF_ERROR(
        strategies[winner]->TopKForUsers(k, remaining, &rest));
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      out->CopyRowFrom(rest, static_cast<Index>(i), remaining[i]);
    }
  }
  rep.serve_seconds = serve_timer.Seconds();
  rep.total_seconds = total_timer.Seconds();
  return Status::OK();
}

}  // namespace mips
