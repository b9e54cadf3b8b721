// Tests for the serving path: mini-batches and new users served through
// MipsEngine's OPTIMUS decision (overlapping, out-of-order batches with
// repeated ids; new users under a non-MAXIMUS index), Decide agreeing
// with Run, and the Section IV-A analytical BMM cost model.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/timer.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/maximus.h"
#include "core/optimus.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "solvers/bmm.h"
#include "test_util.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::MakeTestModel;

EngineOptions SmallServingOptions(Index k = 5) {
  EngineOptions options;
  options.k = k;
  options.optimus.l2_cache_bytes = 16 * 1024;
  return options;
}

// ------------------------------------------------------------- Serving

TEST(ServingTest, BatchesAreExact) {
  const MFModel model = MakeTestModel(300, 200, 10, 3, /*norm_sigma=*/0.6);
  auto engine =
      MipsEngine::Open(ConstRowBlock(model.users),
                       ConstRowBlock(model.items), SmallServingOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->strategy() == "bmm" ||
              (*engine)->strategy() == "maximus");

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  // Several mini-batches, overlapping and out of order.
  const std::vector<std::vector<Index>> batches = {
      {0, 5, 7}, {299, 1, 1, 42}, {100}, {250, 249, 248, 0}};
  for (const auto& batch : batches) {
    TopKResult got;
    TopKResult expected;
    ASSERT_TRUE((*engine)->TopK(5, batch, &got).ok());
    ASSERT_TRUE(reference.TopKForUsers(5, batch, &expected).ok());
    ExpectSameTopKScores(got, expected, 1e-7);
  }
  EXPECT_EQ((*engine)->stats().batches_served, 4);
  EXPECT_EQ((*engine)->stats().users_served, 12);
  EXPECT_GT((*engine)->stats().serve_seconds, 0.0);
}

TEST(ServingTest, NewUsersAreExact) {
  const MFModel model = MakeTestModel(400, 150, 8, 5, 0.5, 0.3);
  const MFModel extra = MakeTestModel(20, 150, 8, 6, 0.5, 1.2);
  for (const char* index : {"maximus", "lemp"}) {
    EngineOptions options = SmallServingOptions();
    options.solvers = {"bmm", index};
    auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items), options);
    ASSERT_TRUE(engine.ok());
    std::vector<TopKEntry> row(5);
    for (Index u = 0; u < 20; ++u) {
      ASSERT_TRUE(
          (*engine)->TopKNewUser(extra.users.Row(u), 5, row.data()).ok());
      // Reference by direct scan.
      TopKHeap heap(5);
      for (Index i = 0; i < 150; ++i) {
        heap.Push(i, Dot(extra.users.Row(u), model.items.Row(i), 8));
      }
      std::vector<TopKEntry> expected(5);
      heap.ExtractDescending(expected.data());
      for (Index e = 0; e < 5; ++e) {
        EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                    expected[static_cast<std::size_t>(e)].score, 1e-7)
            << index << " user " << u << " entry " << e;
      }
    }
    EXPECT_EQ((*engine)->stats().new_users_served, 20);
  }
}

TEST(ServingTest, DecisionReportPopulated) {
  const MFModel model = MakeTestModel(300, 100, 8, 7);
  auto engine =
      MipsEngine::Open(ConstRowBlock(model.users),
                       ConstRowBlock(model.items), SmallServingOptions());
  ASSERT_TRUE(engine.ok());
  const OptimusReport& report = (*engine)->decision_report();
  EXPECT_EQ(report.estimates.size(), 2u);
  EXPECT_EQ(report.chosen, (*engine)->strategy());
  EXPECT_GT(report.sample_size, 0);
  // Opening decides on a sample; it must not have served the whole
  // user set.
  EXPECT_EQ(report.serve_seconds, 0.0);
}

TEST(OptimusDecideTest, AgreesWithRunChoice) {
  const MFModel model = MakeTestModel(800, 1000, 12, 9, /*norm_sigma=*/1.2,
                                      /*dispersion=*/0.2);
  const auto margin = [](const OptimusReport& report) {
    double best = 1e300;
    double second = 1e300;
    for (const auto& est : report.estimates) {
      if (est.est_total_seconds < best) {
        second = best;
        best = est.est_total_seconds;
      } else if (est.est_total_seconds < second) {
        second = est.est_total_seconds;
      }
    }
    return second / best;
  };
  // The winner is only required to agree when both runs saw a clear-cut
  // (>1.5x) gap — near-tied estimates may legitimately flip between two
  // timings (the paper's own optimizer accuracy is 85-98%), and either
  // choice serves exactly.  A machine-wide load burst can inflate a
  // *wrong* clear-cut margin for the duration of one measurement, so a
  // clear-cut DISAGREEMENT retries under a fresh seed (the suite's
  // three-attempt idiom) instead of failing outright.
  bool agreed = false;
  std::string decide_chosen;
  std::string run_chosen;
  for (const uint64_t seed : {123u, 456u, 789u}) {
    OptimusOptions options;
    options.l2_cache_bytes = 16 * 1024;
    options.seed = seed;
    // Decide.
    BmmSolver bmm_a;
    MaximusSolver maximus_a;
    ASSERT_TRUE(bmm_a.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
    ASSERT_TRUE(maximus_a.Prepare(ConstRowBlock(model.users),
                                  ConstRowBlock(model.items)).ok());
    Optimus optimus_a(options);
    std::size_t winner = 99;
    OptimusReport decide_report;
    ASSERT_TRUE(optimus_a
                    .Decide(ConstRowBlock(model.users),
                            ConstRowBlock(model.items), 1,
                            {&bmm_a, &maximus_a}, &winner, &decide_report)
                    .ok());
    ASSERT_LT(winner, 2u);
    // Run with the same seed.
    BmmSolver bmm_b;
    MaximusSolver maximus_b;
    Optimus optimus_b(options);
    TopKResult out;
    OptimusReport run_report;
    ASSERT_TRUE(optimus_b
                    .Run(ConstRowBlock(model.users),
                         ConstRowBlock(model.items), 1, {&bmm_b, &maximus_b},
                         &out, &run_report)
                    .ok());
    // The sampling procedure is seed-deterministic, so Decide and Run
    // must draw identical samples and apply the same selection rule —
    // these invariants hold on every attempt, whatever the load.
    EXPECT_EQ(decide_report.sample_size, run_report.sample_size);
    for (const OptimusReport* report : {&decide_report, &run_report}) {
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
    decide_chosen = decide_report.chosen;
    run_chosen = run_report.chosen;
    if (margin(decide_report) <= 1.5 || margin(run_report) <= 1.5 ||
        decide_chosen == run_chosen) {
      agreed = true;
      break;
    }
  }
  EXPECT_TRUE(agreed) << "clear-cut margins disagreed on every attempt: "
                      << "Decide chose " << decide_chosen << ", Run chose "
                      << run_chosen;
}

// ----------------------------------------------------------- Cost model

TEST(CostModelTest, ValidatesProbeArguments) {
  EXPECT_FALSE(BmmCostModel::Calibrate(0, 10, 10).ok());
  EXPECT_FALSE(BmmCostModel::Calibrate(10, 10, 10, 0).ok());
}

TEST(CostModelTest, PredictionScalesLinearlyInFlops) {
  const BmmCostModel model(/*sustained_flops=*/10e9);
  const double t1 = model.PredictGemmSeconds(100, 100, 100);
  EXPECT_DOUBLE_EQ(t1, 2.0 * 100 * 100 * 100 / 10e9);
  EXPECT_DOUBLE_EQ(model.PredictGemmSeconds(200, 100, 100), 2.0 * t1);
  EXPECT_DOUBLE_EQ(model.PredictGemmSeconds(100, 300, 100), 3.0 * t1);
  EXPECT_EQ(model.PredictGemmSeconds(0, 10, 10), 0.0);
}

TEST(CostModelTest, CalibratedModelPredictsGemmRuntime) {
  // Measure a differently-shaped GEMM and compare (paper: within ~5%; we
  // allow a generous band for a noisy shared VM — the point is the right
  // magnitude, not cycle accuracy).  The shape keeps the score block in
  // the memory-streaming regime of the calibration probe (C = 16 MB vs
  // the probe's 32 MB): the runtime-dispatched kernels sustain 27+
  // GFLOP/s, where a cache-resident C runs measurably hotter than a
  // streamed one and a single-constant flops model cannot bridge the two
  // regimes (it never could — the slow compile-time portable kernel just
  // hid the spread under its compute-bound constant).
  //
  // Even best-of-5 wall-clock bands flake when the whole attempt lands
  // under interference, so this uses the suite's retry idiom (cf. the
  // independently-seeded attempts in optimus_test): pass if any of three
  // independent calibrate-and-measure attempts lands inside the band.
  const Index m = 1024;
  const Index n = 2048;
  const Index k = 64;
  Matrix a = testing::RandomMatrix(m, k, 1);
  Matrix b = testing::RandomMatrix(n, k, 2);
  Matrix c(m, n);
  bool within_band = false;
  double predicted = 0;
  double measured = 0;
  for (int attempt = 0; attempt < 3 && !within_band; ++attempt) {
    auto model = BmmCostModel::Calibrate();
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    EXPECT_GT(model->sustained_flops(), 1e8);  // any real machine exceeds
    GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);  // warm up
    const int reps = 5;
    measured = 1e300;  // best-of: interference only slows runs down
    for (int r = 0; r < reps; ++r) {
      WallTimer timer;
      GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
      measured = std::min(measured, timer.Seconds());
    }
    predicted = model->PredictGemmSeconds(m, n, k);
    within_band = predicted > measured * 0.5 && predicted < measured * 2.0;
  }
  EXPECT_TRUE(within_band)
      << "predicted " << predicted << "s vs measured " << measured
      << "s after three attempts";
}

// The paper's documented limitation: the analytical model covers the
// multiply but NOT the top-K heap pass, so it must underpredict the full
// BMM pipeline (heap >= 9.5% on large models).
TEST(CostModelTest, UnderpredictsFullBmmPipeline) {
  auto cost_model = BmmCostModel::Calibrate();
  ASSERT_TRUE(cost_model.ok());
  const MFModel model = MakeTestModel(2000, 3000, 50, 11);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(bmm.TopKAll(50, &out).ok());  // warm up
  WallTimer timer;
  ASSERT_TRUE(bmm.TopKAll(50, &out).ok());
  const double measured = timer.Seconds();
  const double predicted =
      cost_model->PredictScoringSeconds(2000, 3000, 50);
  EXPECT_LT(predicted, measured);  // the heap pass is unmodeled
}

}  // namespace
}  // namespace mips
