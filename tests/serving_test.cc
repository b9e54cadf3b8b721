// Tests for the serving path: mini-batches and new users served through
// MipsEngine's OPTIMUS decision (overlapping, out-of-order batches with
// repeated ids; new users under a non-MAXIMUS index), the one checked
// entry every serving facade shares (ServingFacade), Decide agreeing
// with Run, and the Section IV-A analytical BMM cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "catalog/live_catalog.h"
#include "common/timer.h"
#include "core/cost_model.h"
#include "core/engine.h"
#include "core/maximus.h"
#include "core/optimus.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "shard/sharded_engine.h"
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

// ------------------------------------------------ the one query entry

/// Counters a facade's stats() exposes for served queries; the catalog
/// reports no decisions, so its probe reads zero lookups.
struct ServedCounters {
  int64_t served = 0;       // batches + known rows + new rows
  int64_t lookups = 0;      // decision-cache hits + misses
  int64_t redecisions = 0;
};

int64_t ServedTotal(const ServedStats& stats) {
  return stats.batches_served + stats.users_served + stats.new_users_served;
}

template <typename Stats>
ServedCounters CountersOf(const Stats& stats) {
  return {ServedTotal(stats),
          stats.decision_cache_hits + stats.decision_cache_misses,
          stats.redecisions};
}

/// The call-form contract every facade keeps, written against the base
/// class: each refusal carries the message the facade has always
/// returned, no refused call reaches a serve body, an empty known-user
/// batch is served without a strategy lookup (a k no decision was made
/// at would otherwise run a full OPTIMUS decision for nothing), and an
/// accepted query is counted once, by the facade it entered.
void ExpectCheckedOnceAtEntry(ServingFacade& facade,
                              const std::function<ServedCounters()>& counters,
                              const std::string& name) {
  SCOPED_TRACE(name);
  ASSERT_EQ(facade.num_users(), 50);
  ASSERT_EQ(facade.num_factors(), 4);
  const ServedCounters before = counters();
  const auto expect_refused = [](const Status& status, StatusCode code,
                                 const std::vector<std::string>& named) {
    EXPECT_EQ(status.code(), code) << status.ToString();
    for (const std::string& part : named) {
      EXPECT_NE(status.message().find(part), std::string::npos)
          << status.ToString() << " does not name " << part;
    }
  };

  const Matrix vectors = ::mips::testing::RandomMatrix(3, 4, 71, 0.5);
  const std::vector<Index> ids = {0, 49};
  TopKResult out;
  std::vector<TopKEntry> row(5);
  for (const Index k : {0, -7}) {
    const std::string named = "k must be positive, got " + std::to_string(k);
    expect_refused(facade.TopK(k, ids, &out), StatusCode::kInvalidArgument,
                   {named});
    expect_refused(facade.TopKAll(k, &out), StatusCode::kInvalidArgument,
                   {named});
    expect_refused(facade.TopKNewUser(vectors.Row(0), k, row.data()),
                   StatusCode::kInvalidArgument, {named});
    expect_refused(facade.TopKNewUsers(vectors.data(), 3, k, &out),
                   StatusCode::kInvalidArgument, {named});
  }

  for (const Index bad : {50, -3}) {
    const std::vector<Index> batch = {1, bad, 2};
    expect_refused(facade.TopK(5, batch, &out), StatusCode::kOutOfRange,
                   {"user id out of range: " + std::to_string(bad)});
  }

  expect_refused(facade.TopKNewUser(nullptr, 5, row.data()),
                 StatusCode::kInvalidArgument, {"null"});
  expect_refused(facade.TopKNewUsers(nullptr, 3, 5, &out),
                 StatusCode::kInvalidArgument, {"null"});
  expect_refused(facade.TopKNewUsers(vectors.data(), 0, 5, &out),
                 StatusCode::kInvalidArgument, {"num_rows"});
  for (const Real bad : {std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity(),
                         -std::numeric_limits<Real>::infinity()}) {
    Matrix batch = vectors;
    batch.Row(1)[2] = bad;
    expect_refused(facade.TopKNewUsers(batch.data(), 3, 5, &out),
                   StatusCode::kInvalidArgument, {"row 1", "factor 2"});
    // Alone, the same vector is row 0 of a 1-row batch.
    expect_refused(facade.TopKNewUser(batch.Row(1), 5, row.data()),
                   StatusCode::kInvalidArgument, {"row 0", "factor 2"});
  }

  // k = 7 has no cached decision anywhere.
  ASSERT_TRUE(facade.TopK(7, {}, &out).ok());
  EXPECT_EQ(out.num_queries(), 0);
  EXPECT_EQ(out.k(), 7);

  const ServedCounters after = counters();
  EXPECT_EQ(after.served, before.served);
  EXPECT_EQ(after.lookups, before.lookups);
  EXPECT_EQ(after.redecisions, before.redecisions);
  EXPECT_EQ(after.redecisions, 0);

  // The entry still serves what it accepts, and counts it once.
  const ServedStats start = facade.served();
  ASSERT_TRUE(facade.TopK(5, ids, &out).ok());
  EXPECT_EQ(out.num_queries(), 2);
  EXPECT_EQ(out.k(), 5);
  const ServedStats known = facade.served();
  EXPECT_EQ(known.batches_served, start.batches_served + 1);
  EXPECT_EQ(known.users_served, start.users_served + 2);
  EXPECT_EQ(known.new_users_served, start.new_users_served);
  ASSERT_TRUE(facade.TopKNewUser(vectors.Row(2), 5, row.data()).ok());
  EXPECT_GE(row[0].item, 0);
  const ServedStats fresh = facade.served();
  EXPECT_EQ(fresh.batches_served, known.batches_served);
  EXPECT_EQ(fresh.users_served, known.users_served);
  EXPECT_EQ(fresh.new_users_served, known.new_users_served + 1);
  EXPECT_GT(fresh.serve_seconds, start.serve_seconds);
  // stats() reports the same counts: 1 batch, 2 rows and 1 new row.
  EXPECT_EQ(counters().served, before.served + 4);
}

TEST(ServingFacadeTest, EveryFacadeChecksEachQueryOnceAtItsEntry) {
  const MFModel model = MakeTestModel(50, 60, 4, 73, /*norm_sigma=*/0.6);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  EngineOptions engine_options = SmallServingOptions(10);
  engine_options.solvers = {"bmm", "maximus"};

  auto engine = MipsEngine::Open(users, items, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExpectCheckedOnceAtEntry(
      **engine, [&] { return CountersOf((*engine)->stats()); }, "engine");

  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.engine = engine_options;
  auto sharded = ShardedMipsEngine::Open(users, items, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ExpectCheckedOnceAtEntry(
      **sharded, [&] { return CountersOf((*sharded)->stats()); },
      "3-shard engine");
  // The shards serve only through the sharded engine's serve body, so
  // they count nothing.
  for (const auto& shard : (*sharded)->stats().shards) {
    EXPECT_EQ(ServedTotal(shard.stats), 0);
  }

  LiveCatalogOptions catalog_options;
  catalog_options.num_shards = 2;
  catalog_options.engine = engine_options;
  auto catalog = LiveCatalog::Open(users, items, catalog_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  const std::vector<Real> inserted(model.items.Row(5), model.items.Row(5) + 4);
  ASSERT_TRUE((*catalog)->Insert(inserted).ok());
  ASSERT_TRUE((*catalog)->Remove(3).ok());
  ASSERT_EQ((*catalog)->stats().buffered_rows, 1);
  ExpectCheckedOnceAtEntry(
      **catalog,
      [&] { return ServedCounters{ServedTotal((*catalog)->stats()), 0, 0}; },
      "2-shard catalog");
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
