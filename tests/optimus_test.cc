// Tests for OPTIMUS: correctness of the merged results regardless of the
// choice, sensible report contents, regime-dependent behavior (index wins
// on skewed norms; its advantage erodes on flat norms), t-test early
// stopping, and the three-way configuration.  Regime assertions avoid
// wall-clock *winner* comparisons — on degraded-SIMD VMs the absolute
// BMM-vs-index ordering flips, so tests pin deterministic pruning depths
// and per-strategy cross-instance ratios instead.

#include <gtest/gtest.h>

#include <memory>

#include "core/maximus.h"
#include "core/optimus.h"
#include "solvers/bmm.h"
#include "solvers/fexipro/fexipro.h"
#include "solvers/lemp/lemp.h"
#include "solvers/naive.h"
#include "solvers/registry.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::ExpectValidTopK;
using ::mips::testing::kSanitizerSkewsWallClock;
using ::mips::testing::MakeTestModel;

OptimusOptions SmallSampleOptions() {
  OptimusOptions options;
  // Test models are small; keep the sample floor small so sampling stays a
  // strict subset of the users.
  options.l2_cache_bytes = 16 * 1024;
  options.sample_ratio = 0.02;
  return options;
}

TEST(OptimusTest, RequiresTwoStrategies) {
  const MFModel model = MakeTestModel(50, 50, 8, 3);
  BmmSolver bmm;
  Optimus optimus;
  TopKResult out;
  EXPECT_FALSE(optimus
                   .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                        1, {&bmm}, &out)
                   .ok());
}

TEST(OptimusTest, ResultsExactWhateverTheChoice) {
  const MFModel model = MakeTestModel(400, 200, 10, 5, /*norm_sigma=*/0.5);
  BmmSolver bmm;
  MaximusSolver maximus;
  Optimus optimus(SmallSampleOptions());
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       5, {&bmm, &maximus}, &out, &report)
                  .ok());
  // Compare against an independent brute-force run.
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
  ExpectSameTopKScores(out, expected, 1e-7);
  ExpectValidTopK(out, AllUsers(400), model, 1e-7);
}

TEST(OptimusTest, ReportIsPopulated) {
  const MFModel model = MakeTestModel(300, 150, 8, 7);
  BmmSolver bmm;
  MaximusSolver maximus;
  Optimus optimus(SmallSampleOptions());
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       3, {&bmm, &maximus}, &out, &report)
                  .ok());
  ASSERT_EQ(report.estimates.size(), 2u);
  EXPECT_TRUE(report.chosen == "bmm" || report.chosen == "maximus");
  EXPECT_GT(report.sample_size, 0);
  EXPECT_LE(report.sample_size, 300);
  for (const auto& est : report.estimates) {
    EXPECT_FALSE(est.name.empty());
    EXPECT_GE(est.construction_seconds, 0.0);
    EXPECT_GT(est.measured_users, 0);
    EXPECT_GT(est.est_per_user_seconds, 0.0);
    EXPECT_GT(est.est_total_seconds, 0.0);
  }
  EXPECT_GT(report.total_seconds, 0.0);
  // The winner must be the strategy with the smallest estimate.
  double best = 1e300;
  std::string best_name;
  for (const auto& est : report.estimates) {
    if (est.est_total_seconds < best) {
      best = est.est_total_seconds;
      best_name = est.name;
    }
  }
  EXPECT_EQ(report.chosen, best_name);
}

TEST(OptimusTest, SampleSizeRespectsCacheFloor) {
  const MFModel model = MakeTestModel(2000, 50, 16, 9);
  BmmSolver bmm;
  MaximusSolver maximus;
  OptimusOptions options;
  options.sample_ratio = 0.0001;            // ratio alone would give 1 user
  options.l2_cache_bytes = 64 * 1024;       // 64 KB / (16*8B) = 512 vectors
  options.max_sample_ratio = 1.0;           // measure the floor itself
  Optimus optimus(options);
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       1, {&bmm, &maximus}, &out, &report)
                  .ok());
  EXPECT_GE(report.sample_size, 512);
}

TEST(OptimusTest, PicksIndexOnPrunableModel) {
  if (kSanitizerSkewsWallClock) {
    GTEST_SKIP() << "OPTIMUS winner assertions are wall-clock regime "
                    "checks; sanitizer instrumentation slowdown skews them";
  }
  // Strongly skewed item norms + tight user clusters: MAXIMUS visits a
  // handful of items per user while BMM computes all of them.  Enough
  // users that the capped sample still feeds MAXIMUS's per-cluster
  // batching a meaningful batch (a tiny per-cluster GEMM would distort
  // the estimate — the paper's point about batching indexes and samples).
  const MFModel model = MakeTestModel(2000, 3000, 16, 11, /*norm_sigma=*/1.3,
                                      /*dispersion=*/0.15);
  // OPTIMUS itself is not 100% accurate (the paper reports 85-98%), and
  // timing measurements are noisy under suite load; accept the regime
  // conclusion if any of three independently-seeded runs reaches it.
  std::string chosen;
  for (const uint64_t seed : {123u, 456u, 789u}) {
    BmmSolver bmm;
    MaximusSolver maximus;
    OptimusOptions options = SmallSampleOptions();
    options.seed = seed;
    Optimus optimus(options);
    TopKResult out;
    OptimusReport report;
    ASSERT_TRUE(optimus
                    .Run(ConstRowBlock(model.users),
                         ConstRowBlock(model.items), 1, {&bmm, &maximus},
                         &out, &report)
                    .ok());
    chosen = report.chosen;
    if (chosen == "maximus") break;
  }
  EXPECT_EQ(chosen, "maximus");
}

TEST(OptimusTest, FlatNormsErodeIndexAdvantage) {
  // The Figure 5 regime behind "pick BMM on flat norms": flat item norms
  // starve length-based pruning, so a point-query index loses (most of)
  // its per-user advantage while BMM's dense cost is norm-oblivious.  On
  // GEMM-friendly hardware OPTIMUS then picks BMM outright — but the
  // winner string is wall-clock-derived and flips on machines whose
  // blocked-GEMM throughput is degraded (this repo's CI VMs emulate or
  // down-clock AVX-512), which made the old winner assertion flaky.  The
  // test instead pins the signals that identify the regime on any
  // hardware:
  //   (1) pruning collapse — FEXIPRO must fully score several times more
  //       of the item set on flat norms than on skewed norms.  Scan
  //       depths are data-determined, so this is exactly reproducible.
  //   (2) each strategy's estimate compared against ITSELF across the
  //       two instances: FEXIPRO's per-user estimate degrades by a wide
  //       (>= 2x) margin on flat norms while BMM's stays flat (within
  //       2x).  Per-strategy cross-instance ratios cancel absolute
  //       machine speed; the true margins are ~4x and ~1.0x.
  //   (3) the decision stays consistent: chosen == argmin estimate, and
  //       the merged output stays exact.
  const MFModel flat = MakeTestModel(400, 2000, 64, 13, /*norm_sigma=*/0.0,
                                     /*dispersion=*/2.0);
  const MFModel skewed = MakeTestModel(400, 2000, 64, 13, /*norm_sigma=*/1.3,
                                       /*dispersion=*/2.0);

  // (1) Deterministic pruning collapse, measured directly on the solver.
  double flat_exact_fraction = 0;
  double skewed_exact_fraction = 0;
  {
    FexiproSolver fexipro;
    TopKResult out;
    ASSERT_TRUE(fexipro.Prepare(ConstRowBlock(flat.users),
                                ConstRowBlock(flat.items)).ok());
    ASSERT_TRUE(fexipro.TopKAll(10, &out).ok());
    flat_exact_fraction = fexipro.last_exact_fraction();
  }
  {
    FexiproSolver fexipro;
    TopKResult out;
    ASSERT_TRUE(fexipro.Prepare(ConstRowBlock(skewed.users),
                                ConstRowBlock(skewed.items)).ok());
    ASSERT_TRUE(fexipro.TopKAll(10, &out).ok());
    skewed_exact_fraction = fexipro.last_exact_fraction();
  }
  EXPECT_GT(flat_exact_fraction, 1.5 * skewed_exact_fraction)
      << "flat=" << flat_exact_fraction << " skewed=" << skewed_exact_fraction;

  // (2) + (3): OPTIMUS runs on both instances with the same knobs.
  const auto run = [](const MFModel& model, uint64_t seed,
                      OptimusReport* report) {
    BmmSolver bmm;
    FexiproSolver fexipro;
    OptimusOptions options = SmallSampleOptions();
    options.seed = seed;
    Optimus optimus(options);
    TopKResult out;
    ASSERT_TRUE(optimus
                    .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                         10, {&bmm, &fexipro}, &out, report)
                    .ok());
    // Whatever was chosen, the merged result must be exact.
    BmmSolver reference;
    ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                  ConstRowBlock(model.items)).ok());
    TopKResult expected;
    ASSERT_TRUE(reference.TopKAll(10, &expected).ok());
    ExpectSameTopKScores(out, expected, 1e-7);
  };
  const auto per_user = [](const OptimusReport& report,
                           const std::string& name) {
    for (const auto& est : report.estimates) {
      if (est.name == name) return est.est_per_user_seconds;
    }
    ADD_FAILURE() << "no estimate for " << name;
    return 0.0;
  };

  // The cross-instance ratios are wall-clock means over a few dozen
  // sampled users, so one scheduler preemption during a run can swamp
  // them; allow five independently-seeded attempts (the suite's usual
  // idiom, widened after the PR 4 load audit: a sustained load burst on
  // a single-core VM can pollute several consecutive attempts) before
  // declaring the regime signal absent.  The true margins (~4x and
  // ~1.0x against thresholds of 2x and [1/3, 3]) make a clean attempt
  // decisive.
  double fex_ratio = 0;
  double bmm_ratio = 0;
  for (const uint64_t seed : {123u, 456u, 789u, 1011u, 1213u}) {
    OptimusReport flat_report;
    OptimusReport skewed_report;
    run(flat, seed, &flat_report);
    run(skewed, seed, &skewed_report);
    if (HasFatalFailure()) return;
    // (3) The decision must stay consistent on every attempt.
    for (const OptimusReport* report : {&flat_report, &skewed_report}) {
      double best = 1e300;
      std::string best_name;
      for (const auto& est : report->estimates) {
        if (est.est_total_seconds < best) {
          best = est.est_total_seconds;
          best_name = est.name;
        }
      }
      EXPECT_EQ(report->chosen, best_name);
    }
    fex_ratio = per_user(flat_report, "fexipro-si") /
                per_user(skewed_report, "fexipro-si");
    bmm_ratio = per_user(flat_report, "bmm") / per_user(skewed_report, "bmm");
    if (fex_ratio > 2.0 && bmm_ratio > 1.0 / 3 && bmm_ratio < 3.0) break;
  }
  EXPECT_GT(fex_ratio, 2.0) << "index advantage should erode on flat norms";
  EXPECT_GT(bmm_ratio, 1.0 / 3) << "BMM cost must be norm-oblivious";
  EXPECT_LT(bmm_ratio, 3.0) << "BMM cost must be norm-oblivious";
}

TEST(OptimusTest, TTestEarlyStopsOnClearCutInput) {
  if (testing::kSanitizerSkewsWallClock) {
    // The t-statistic is built from wall-clock per-user timings; TSan's
    // ~10x instrumented slowdown inflates their variance enough that the
    // retry loop below still flakes.  The exactness half of this test is
    // covered sanitizer-clean by TTestCanBeDisabled and the differential
    // suite.
    GTEST_SKIP() << "t-test significance is wall-clock-derived";
  }
  // A full-scan point-query strategy (naive) against BMM: their per-user
  // means differ by a wide factor in SOME direction on every machine
  // (which direction depends on the GEMM's throughput — the t-test is
  // two-sided, so it does not matter), and naive's per-user times are
  // hundreds of microseconds with tiny relative variance, so the t-test
  // reaches significance within a few observations.  The early-stop
  // signal is asserted via measured_users from the report — NOT via
  // elapsed-seconds comparisons, which made the old FEXIPRO-based
  // version of this test flake on noisy VMs.
  const MFModel model = MakeTestModel(800, 3000, 64, 15, /*norm_sigma=*/0.0,
                                      /*dispersion=*/0.4);
  // The t-statistic is computed from wall-clock per-user times: a
  // machine-wide load burst can inflate naive's variance enough to keep
  // |t| under the critical value through the whole sample (observed
  // during the PR 4 load audit with a parallel build pegging the core).
  // The gap itself is enormous on any hardware, so allow the suite's
  // usual independently-seeded attempts before declaring early stopping
  // broken; the within-attempt assertions stay counter-based.
  OptimusReport report;
  const StrategyEstimate* est = nullptr;
  TopKResult out;
  for (const uint64_t seed : {123u, 456u, 789u}) {
    BmmSolver bmm;
    NaiveSolver naive;
    OptimusOptions options = SmallSampleOptions();
    options.l2_cache_bytes = 64 * 1024;  // 128-user sample: room for the test
    options.enable_ttest = true;
    options.seed = seed;
    Optimus optimus(options);
    ASSERT_TRUE(optimus
                    .Run(ConstRowBlock(model.users),
                         ConstRowBlock(model.items), 1, {&bmm, &naive}, &out,
                         &report)
                    .ok());
    est = nullptr;
    for (const auto& e : report.estimates) {
      if (e.name == "naive") est = &e;
    }
    ASSERT_NE(est, nullptr);
    if (est->early_stopped) break;
  }
  // Early stopping asserted through the report's sample accounting.
  EXPECT_LT(est->measured_users, report.sample_size);
  EXPECT_TRUE(est->early_stopped);
  EXPECT_GE(est->measured_users, 8);  // the ttest_min_observations floor
  // Early stopping must not affect correctness of the merged output.
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(1, &expected).ok());
  ExpectSameTopKScores(out, expected, 1e-7);
}

TEST(OptimusTest, TTestCanBeDisabled) {
  const MFModel model = MakeTestModel(300, 300, 8, 17, 0.0, 2.0);
  BmmSolver bmm;
  FexiproSolver fexipro;
  OptimusOptions options = SmallSampleOptions();
  options.enable_ttest = false;
  Optimus optimus(options);
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       1, {&bmm, &fexipro}, &out, &report)
                  .ok());
  for (const auto& est : report.estimates) {
    EXPECT_FALSE(est.early_stopped);
    EXPECT_EQ(est.measured_users, report.sample_size);
  }
}

TEST(OptimusTest, ThreeWayOptimization) {
  const MFModel model = MakeTestModel(400, 400, 12, 19, 0.8, 0.3);
  BmmSolver bmm;
  LempSolver lemp;
  MaximusSolver maximus;
  Optimus optimus(SmallSampleOptions());
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       5, {&bmm, &lemp, &maximus}, &out, &report)
                  .ok());
  EXPECT_EQ(report.estimates.size(), 3u);
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
  ExpectSameTopKScores(out, expected, 1e-7);
}

TEST(OptimusTest, DecideSamplesExactlyTheRequestedUsers) {
  // The batch-shape sample size (MipsEngine's shape-keyed decisions):
  // sample_users > 0 measures exactly that many users, capped at |U|, and
  // 0 keeps Run's population sizing.  No winner is asserted, so this runs
  // under sanitizers too.
  const MFModel model = MakeTestModel(300, 200, 8, 21);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  BmmSolver bmm;
  MaximusSolver maximus;
  LempSolver lemp;
  const std::vector<MipsSolver*> strategies = {&bmm, &maximus, &lemp};
  for (MipsSolver* solver : strategies) {
    ASSERT_TRUE(solver->Prepare(users, items).ok()) << solver->name();
  }
  OptimusOptions options = SmallSampleOptions();
  // Uncapped population sizing is the 256-user L2 floor (16 KB / 8 dims),
  // distinct from every requested size below.
  options.max_sample_ratio = 1.0;
  Optimus optimus(options);
  const auto decide = [&](Index sample_users, OptimusReport* report) {
    std::size_t winner = strategies.size();
    ASSERT_TRUE(optimus
                    .Decide(users, items, 5, strategies, &winner, report,
                            sample_users)
                    .ok());
    EXPECT_LT(winner, strategies.size());
  };

  for (const Index requested : {1, 8, 64}) {
    OptimusReport report;
    decide(requested, &report);
    EXPECT_EQ(report.sample_size, requested);
    ASSERT_EQ(report.estimates.size(), strategies.size());
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      const StrategyEstimate& est = report.estimates[s];
      if (strategies[s]->batches_users()) {
        EXPECT_EQ(est.measured_users, requested) << est.name;
      } else {
        // The t-test may stop the point-query strategy early.
        EXPECT_LE(est.measured_users, requested) << est.name;
      }
    }
  }

  OptimusReport capped;
  decide(1000, &capped);
  EXPECT_EQ(capped.sample_size, 300);

  OptimusReport population;
  decide(0, &population);
  BmmSolver bmm_run;
  MaximusSolver maximus_run;
  LempSolver lemp_run;
  TopKResult out;
  OptimusReport run_report;
  ASSERT_TRUE(Optimus(options)
                  .Run(users, items, 5, {&bmm_run, &maximus_run, &lemp_run},
                       &out, &run_report)
                  .ok());
  EXPECT_EQ(population.sample_size, run_report.sample_size);
}

TEST(RegistryTest, CreatesEverySolver) {
  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverFromSpec(name);
    ASSERT_TRUE(solver.ok()) << name;
    EXPECT_EQ((*solver)->name(), name);
  }
  EXPECT_FALSE(CreateSolverFromSpec("does-not-exist").ok());
}

TEST(RegistryTest, RegistrySolversAreExact) {
  const MFModel model = MakeTestModel(60, 80, 8, 21);
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(4, &expected).ok());
  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverFromSpec(name);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items)).ok());
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(4, &got).ok());
    ExpectSameTopKScores(got, expected, 1e-7);
  }
}

}  // namespace
}  // namespace mips
