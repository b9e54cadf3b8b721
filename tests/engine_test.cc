// Tests for the MipsEngine facade: spec-driven opening, equivalence with
// a direct Optimus::Run, per-call k handling (re-decide and fallback),
// strategy override, the new-user path, and cumulative stats.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/maximus.h"
#include "core/optimus.h"
#include "linalg/blas.h"
#include "linalg/simd_dispatch.h"
#include "solvers/bmm.h"
#include "test_util.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectBitIdenticalTopK;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::MakeTestModel;

EngineOptions SmallEngineOptions(Index k = 5) {
  EngineOptions options;
  options.k = k;
  options.optimus.l2_cache_bytes = 16 * 1024;
  return options;
}

TEST(EngineOpenTest, ValidatesOptions) {
  const MFModel model = MakeTestModel(100, 50, 8, 1);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  EXPECT_FALSE(MipsEngine::Open(users, items, SmallEngineOptions(0)).ok());

  EngineOptions no_solvers = SmallEngineOptions();
  no_solvers.solvers.clear();
  EXPECT_FALSE(MipsEngine::Open(users, items, no_solvers).ok());

  EngineOptions unknown = SmallEngineOptions();
  unknown.solvers = {"bmm", "no-such-solver"};
  auto status = MipsEngine::Open(users, items, unknown);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.status().message().find("no-such-solver"),
            std::string::npos);

  // A malformed candidate spec surfaces the registry error naming the
  // offending key.
  EngineOptions bad_key = SmallEngineOptions();
  bad_key.solvers = {"bmm", "maximus:warp_speed=9"};
  auto bad = MipsEngine::Open(users, items, bad_key);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("warp_speed"), std::string::npos);
}

TEST(EngineTest, MatchesDirectOptimusRun) {
  // The integration requirement: MipsEngine must return results
  // identical to driving Optimus::Run by hand with the same candidates
  // and knobs.
  const MFModel model = MakeTestModel(300, 200, 10, 3, /*norm_sigma=*/0.6);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  auto engine = MipsEngine::Open(users, items, SmallEngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TopKResult got;
  ASSERT_TRUE((*engine)->TopKAll(5, &got).ok());

  BmmSolver bmm;
  MaximusSolver maximus;
  OptimusOptions optimus_options;
  optimus_options.l2_cache_bytes = 16 * 1024;
  Optimus optimus(optimus_options);
  TopKResult expected;
  OptimusReport report;
  ASSERT_TRUE(
      optimus.Run(users, items, 5, {&bmm, &maximus}, &expected, &report)
          .ok());

  // The sample is seed-deterministic; the winner may legitimately vary
  // with timing noise, but exactness may not.
  EXPECT_EQ((*engine)->decision_report().sample_size, report.sample_size);
  ExpectSameTopKScores(got, expected, 1e-7);
}

TEST(EngineTest, PerCallKRedecidesAndStaysExact) {
  const MFModel model = MakeTestModel(250, 120, 8, 7);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  auto engine = MipsEngine::Open(users, items, SmallEngineOptions(5));
  ASSERT_TRUE(engine.ok());

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());

  // A diverging k triggers exactly one re-decision; repeats hit the
  // cache.
  const std::vector<Index> batch = {0, 17, 249, 3};
  for (int repeat = 0; repeat < 3; ++repeat) {
    TopKResult got;
    TopKResult expected;
    ASSERT_TRUE((*engine)->TopK(9, batch, &got).ok());
    ASSERT_TRUE(reference.TopKForUsers(9, batch, &expected).ok());
    ExpectSameTopKScores(got, expected, 1e-7);
  }
  EXPECT_EQ((*engine)->stats().redecisions, 1);
  EXPECT_GT((*engine)->stats().redecision_seconds, 0.0);

  // The decision k itself never re-decides.
  TopKResult at_decision_k;
  ASSERT_TRUE((*engine)->TopK(5, batch, &at_decision_k).ok());
  EXPECT_EQ((*engine)->stats().redecisions, 1);
}

TEST(EngineTest, SingleCandidateSkipsDecision) {
  const MFModel model = MakeTestModel(120, 60, 6, 11);
  EngineOptions options = SmallEngineOptions();
  options.solvers = {"lemp:bucket_size=64"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->strategy(), "lemp");
  EXPECT_TRUE((*engine)->decision_report().estimates.empty());

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE((*engine)->TopKAll(5, &got).ok());
  ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

TEST(EngineTest, ForceStrategyOverridesDecision) {
  const MFModel model = MakeTestModel(150, 80, 8, 13);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  EngineOptions options = SmallEngineOptions();
  options.solvers = {"bmm", "maximus", "lemp"};
  auto engine = MipsEngine::Open(users, items, options);
  ASSERT_TRUE(engine.ok());

  EXPECT_FALSE((*engine)->ForceStrategy("fexipro-si").ok());

  ASSERT_TRUE((*engine)->ForceStrategy("lemp").ok());
  EXPECT_EQ((*engine)->strategy(), "lemp");
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE((*engine)->TopKAll(4, &got).ok());
  ASSERT_TRUE(reference.TopKAll(4, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);

  (*engine)->ClearForcedStrategy();
  EXPECT_EQ((*engine)->strategy(), (*engine)->decision_report().chosen);
}

TEST(EngineTest, TunedVariantsAreAddressableBySpec) {
  // Two tuned variants of the same solver share a name; the exact
  // opening spec must still select each.
  const MFModel model = MakeTestModel(150, 80, 8, 21);
  EngineOptions options = SmallEngineOptions();
  options.solvers = {"maximus:clusters=2", "maximus:clusters=8"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ((*engine)->candidate_specs().size(), 2u);
  EXPECT_EQ((*engine)->candidate_names()[0], (*engine)->candidate_names()[1]);

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(4, &expected).ok());
  for (const char* spec : {"maximus:clusters=8", "maximus:clusters=2"}) {
    ASSERT_TRUE((*engine)->ForceStrategy(spec).ok()) << spec;
    TopKResult got;
    ASSERT_TRUE((*engine)->TopKAll(4, &got).ok());
    ExpectSameTopKScores(got, expected, 1e-7);
  }
}

TEST(EngineTest, NewUsersAreExactUnderEveryStrategy) {
  const MFModel model = MakeTestModel(400, 150, 8, 5, 0.5, 0.3);
  const MFModel extra = MakeTestModel(20, 150, 8, 6, 0.5, 1.2);
  for (const char* forced : {"bmm", "maximus"}) {
    EngineOptions options = SmallEngineOptions();
    options.solvers = {"bmm", "maximus"};
    auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items), options);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->ForceStrategy(forced).ok());
    std::vector<TopKEntry> row(5);
    for (Index u = 0; u < 10; ++u) {
      ASSERT_TRUE(
          (*engine)->TopKNewUser(extra.users.Row(u), 5, row.data()).ok());
      TopKHeap heap(5);
      for (Index i = 0; i < 150; ++i) {
        heap.Push(i, Dot(extra.users.Row(u), model.items.Row(i), 8));
      }
      std::vector<TopKEntry> expected(5);
      heap.ExtractDescending(expected.data());
      for (Index e = 0; e < 5; ++e) {
        EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                    expected[static_cast<std::size_t>(e)].score, 1e-7)
            << forced << " user " << u << " entry " << e;
      }
    }
    EXPECT_EQ((*engine)->stats().new_users_served, 10);
  }
}

TEST(EngineTest, ValidatesQueryArguments) {
  const MFModel model = MakeTestModel(50, 30, 4, 15);
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items),
                                 SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  TopKResult out;

  // Out-of-range user ids are rejected before any solver runs, naming the
  // offending id.
  const std::vector<Index> bad = {0, 50};
  auto status = (*engine)->TopK(5, bad, &out);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("50"), std::string::npos)
      << status.ToString();
  const std::vector<Index> negative = {-3, 1};
  status = (*engine)->TopK(5, negative, &out);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find("-3"), std::string::npos)
      << status.ToString();

  // Non-positive k is rejected with the offending value.
  const std::vector<Index> ok = {0, 49};
  status = (*engine)->TopK(0, ok, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("0"), std::string::npos)
      << status.ToString();
  status = (*engine)->TopK(-7, ok, &out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("-7"), std::string::npos)
      << status.ToString();

  // The new-user path applies the same k validation plus a null check.
  std::vector<TopKEntry> row(5);
  status = (*engine)->TopKNewUser(model.users.Row(0), -2, row.data());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("-2"), std::string::npos)
      << status.ToString();
  EXPECT_EQ((*engine)->TopKNewUser(nullptr, 5, row.data()).code(),
            StatusCode::kInvalidArgument);

  // A NaN or +-Inf component is refused before the strategy lookup or
  // any scoring, naming the offending row and factor.
  for (const Real bad : {std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity(),
                         -std::numeric_limits<Real>::infinity()}) {
    Matrix batch = ::mips::testing::RandomMatrix(3, 4, 54, 0.5);
    batch.Row(1)[2] = bad;
    status = (*engine)->TopKNewUsers(batch.data(), 3, 5, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("row 1"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("factor 2"), std::string::npos)
        << status.ToString();
    EXPECT_EQ((*engine)->TopKNewUser(batch.Row(1), 5, row.data()).code(),
              StatusCode::kInvalidArgument);
  }

  // Failed validations must not pollute the serving counters.
  const MipsEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.batches_served, 0);
  EXPECT_EQ(stats.new_users_served, 0);
  EXPECT_EQ(stats.decision_cache_hits + stats.decision_cache_misses, 0);
}

TEST(EngineTest, StatsAccumulate) {
  const MFModel model = MakeTestModel(100, 60, 6, 17);
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items),
                                 SmallEngineOptions());
  ASSERT_TRUE(engine.ok());
  TopKResult out;
  const std::vector<Index> batch = {0, 1, 2};
  ASSERT_TRUE((*engine)->TopK(5, batch, &out).ok());
  ASSERT_TRUE((*engine)->TopK(5, batch, &out).ok());
  std::vector<TopKEntry> row(5);
  ASSERT_TRUE(
      (*engine)->TopKNewUser(model.users.Row(0), 5, row.data()).ok());
  EXPECT_EQ((*engine)->stats().batches_served, 2);
  EXPECT_EQ((*engine)->stats().users_served, 6);
  EXPECT_EQ((*engine)->stats().new_users_served, 1);
  EXPECT_GT((*engine)->stats().serve_seconds, 0.0);
}

TEST(EngineTest, DecisionCacheCountsHitsAndMisses) {
  const MFModel model = MakeTestModel(120, 60, 6, 25);
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items),
                                 SmallEngineOptions(5));
  ASSERT_TRUE(engine.ok());
  TopKResult out;
  const std::vector<Index> batch = {0, 1};

  // Opening k: pure hits.
  ASSERT_TRUE((*engine)->TopK(5, batch, &out).ok());
  ASSERT_TRUE((*engine)->TopK(5, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().decision_cache_hits, 2);
  EXPECT_EQ((*engine)->stats().decision_cache_misses, 0);
  EXPECT_EQ((*engine)->stats().decision_cache_size, 1);

  // New k: one miss + re-decision, then hits.
  ASSERT_TRUE((*engine)->TopK(9, batch, &out).ok());
  ASSERT_TRUE((*engine)->TopK(9, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().decision_cache_misses, 1);
  EXPECT_EQ((*engine)->stats().decision_cache_hits, 3);
  EXPECT_EQ((*engine)->stats().decision_cache_size, 2);
  EXPECT_EQ((*engine)->stats().decision_cache_evictions, 0);

  // A forced strategy bypasses the cache entirely.
  ASSERT_TRUE((*engine)->ForceStrategy("bmm").ok());
  ASSERT_TRUE((*engine)->TopK(7, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().decision_cache_misses, 1);
  EXPECT_EQ((*engine)->stats().decision_cache_hits, 3);
}

TEST(EngineTest, WarmBatchShapesPreDecideAtOpen) {
  const MFModel model = MakeTestModel(160, 80, 8, 31);
  EngineOptions options = SmallEngineOptions(5);
  options.batch_shape_decisions = true;
  options.warm_batch_shapes = {1, 64};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // A 48-row batch buckets to 64, which Open pre-decided: the first
  // query at that shape is a pure cache hit, no inline sampling.
  TopKResult out;
  std::vector<Index> batch;
  for (Index i = 0; i < 48; ++i) batch.push_back(i);
  ASSERT_TRUE((*engine)->TopK(5, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().decision_cache_misses, 0);
  EXPECT_EQ((*engine)->stats().decision_cache_hits, 1);
  EXPECT_EQ((*engine)->stats().redecisions, 0);

  // Singletons were warmed too.
  ASSERT_TRUE((*engine)->TopK(5, {batch.data(), 1}, &out).ok());
  EXPECT_EQ((*engine)->stats().decision_cache_misses, 0);
  EXPECT_EQ((*engine)->stats().decision_cache_hits, 2);

  // An unwarmed shape still pays its decision inline, as before.
  ASSERT_TRUE((*engine)->TopK(5, {batch.data(), 8}, &out).ok());
  EXPECT_EQ((*engine)->stats().decision_cache_misses, 1);
}

TEST(EngineOpenTest, ValidatesWarmBatchShapes) {
  const MFModel model = MakeTestModel(100, 50, 8, 1);
  EngineOptions options = SmallEngineOptions();
  options.batch_shape_decisions = true;
  options.warm_batch_shapes = {16, 0};
  EXPECT_FALSE(MipsEngine::Open(ConstRowBlock(model.users),
                                ConstRowBlock(model.items), options)
                   .ok());
}

TEST(EngineTest, KernelReinstallKeepsCachedDecisions) {
  // A cached winner retires only by LRU eviction.  A mid-flight
  // ForceGemmKernel re-install leaves it in place: the next query at the
  // same (k, shape) is a hit, no re-decision runs, and the answer is bit
  // for bit the one before (every kernel variant scores identically).
  const MFModel model = MakeTestModel(120, 60, 6, 41);
  EngineOptions options = SmallEngineOptions(5);
  options.solvers = {"bmm", "naive"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<Index> batch = {0, 1};
  TopKResult before;
  ASSERT_TRUE((*engine)->TopK(5, batch, &before).ok());
  const MipsEngine::Stats stats_before = (*engine)->stats();

  // Another supported kernel when there is one, else the active one again.
  GemmKernel other = ActiveGemmKernel();
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const GemmKernel kernel = static_cast<GemmKernel>(v);
    if (kernel != other && GemmKernelSupported(kernel)) {
      other = kernel;
      break;
    }
  }
  ASSERT_TRUE(ForceGemmKernel(other).ok());

  TopKResult after;
  ASSERT_TRUE((*engine)->TopK(5, batch, &after).ok());
  const MipsEngine::Stats stats_after = (*engine)->stats();
  EXPECT_EQ(stats_after.decision_cache_hits,
            stats_before.decision_cache_hits + 1);
  EXPECT_EQ(stats_after.decision_cache_misses,
            stats_before.decision_cache_misses);
  EXPECT_EQ(stats_after.redecisions, stats_before.redecisions);
  ExpectBitIdenticalTopK(after, before);
  ResetGemmKernelForTest();
}

TEST(EngineTest, GemmKernelSurfacedInStatsAndReport) {
  const MFModel model = MakeTestModel(100, 50, 6, 35);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  // Forced before Open: installed process-wide, recorded in both the
  // stats snapshot and the opening decision report.
  ASSERT_TRUE(ForceGemmKernel(GemmKernel::kPortable).ok());
  auto engine = MipsEngine::Open(users, items, SmallEngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->stats().gemm_kernel, "portable");
  EXPECT_EQ((*engine)->decision_report().gemm_kernel, "portable");
  EXPECT_EQ(ActiveGemmKernel(), GemmKernel::kPortable);

  // Single-candidate engines skip the decision but still attribute it.
  EngineOptions single = SmallEngineOptions();
  single.solvers = {"bmm"};
  auto single_engine = MipsEngine::Open(users, items, single);
  ASSERT_TRUE(single_engine.ok());
  EXPECT_EQ((*single_engine)->decision_report().gemm_kernel, "portable");

  // Unforced, it records whatever the process-wide dispatch resolved to.
  ResetGemmKernelForTest();
  auto auto_engine = MipsEngine::Open(users, items, SmallEngineOptions());
  ASSERT_TRUE(auto_engine.ok());
  EXPECT_EQ((*auto_engine)->stats().gemm_kernel,
            ToString(ActiveGemmKernel()));
  ResetGemmKernelForTest();
}

TEST(EngineTest, DecisionCacheEvictsLeastRecentlyUsedK) {
  // Flood the engine with distinct ks: the per-k winner cache must stay
  // within kDecisionCacheCapacity, evicting LRU entries (never the
  // pinned opening k), and an evicted k must re-decide when it returns.
  const MFModel model = MakeTestModel(100, 100, 6, 27);
  EngineOptions options = SmallEngineOptions(5);
  options.solvers = {"bmm", "naive"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  constexpr int64_t kCapacity =
      static_cast<int64_t>(MipsEngine::kDecisionCacheCapacity);
  constexpr int64_t kInserted = kCapacity + 8;
  TopKResult out;
  const std::vector<Index> batch = {0, 1, 2};
  Index last_k = 0;
  for (int64_t inserted = 0; inserted < kInserted;) {
    if (++last_k == 5) continue;  // the opening k is already cached
    ASSERT_TRUE((*engine)->TopK(last_k, batch, &out).ok());
    ++inserted;
  }
  MipsEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.decision_cache_misses, kInserted);
  EXPECT_EQ(stats.redecisions, kInserted);
  EXPECT_EQ(stats.decision_cache_size, kCapacity);
  // 1 pinned + kInserted inserted - kCapacity kept.
  EXPECT_EQ(stats.decision_cache_evictions, 1 + kInserted - kCapacity);

  // The pinned opening k never re-decides, no matter how much was
  // evicted around it.
  ASSERT_TRUE((*engine)->TopK(5, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().redecisions, kInserted);

  // An evicted k (k=1 is long gone) pays a fresh re-decision; a resident
  // one (the last k, just used) does not.
  ASSERT_TRUE((*engine)->TopK(last_k, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().redecisions, kInserted);
  ASSERT_TRUE((*engine)->TopK(1, batch, &out).ok());
  EXPECT_EQ((*engine)->stats().redecisions, kInserted + 1);

  // Every answer stayed exact throughout the churn.
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE((*engine)->TopK(8, batch, &out).ok());
  ASSERT_TRUE(reference.TopKForUsers(8, batch, &expected).ok());
  ExpectSameTopKScores(out, expected, 1e-7);
}

// ----------------------------------------------------------- concurrency
//
// These suites exercise the thread-safety contract: many simultaneous
// TopK callers with mixed k values (forcing concurrent per-k
// re-decisions through the shared-mutex cache) plus concurrent stats()
// and strategy() readers, with every answer checked against a serial
// reference.  Mismatches are counted in atomics and asserted after the
// join so no gtest machinery runs on worker threads.

struct ConcurrentHarnessResult {
  std::atomic<int64_t> status_failures{0};
  std::atomic<int64_t> score_mismatches{0};
};

// Hammers `engine` from `num_threads` client threads with mini-batches at
// rotating k values, comparing scores against `references[k]`.
void HammerEngine(MipsEngine* engine, const std::vector<Index>& ks,
                  const std::map<Index, TopKResult>& references,
                  int num_threads, int iterations, Index num_users,
                  ConcurrentHarnessResult* result) {
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    clients.emplace_back([&, t]() {
      for (int i = 0; i < iterations; ++i) {
        const Index k =
            ks[static_cast<std::size_t>(t + i) % ks.size()];
        // Deterministic per-(thread, iteration) mini-batch.
        std::vector<Index> batch;
        for (Index u = 0; u < 7; ++u) {
          batch.push_back((static_cast<Index>(t) * 31 +
                           static_cast<Index>(i) * 13 + u * 17) %
                          num_users);
        }
        TopKResult got;
        if (!engine->TopK(k, batch, &got).ok()) {
          result->status_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const TopKResult& expected = references.at(k);
        for (std::size_t r = 0; r < batch.size(); ++r) {
          for (Index e = 0; e < k; ++e) {
            const Real got_score = got.Row(static_cast<Index>(r))[e].score;
            const Real want_score = expected.Row(batch[r])[e].score;
            if (std::abs(got_score - want_score) > 1e-7) {
              result->score_mismatches.fetch_add(1,
                                                 std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  // Concurrent metadata readers: stats() snapshots and strategy() lookups
  // must never tear or throw while the clients run.
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    int64_t last_users = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const MipsEngine::Stats snapshot = engine->stats();
      if (snapshot.users_served < last_users) {
        result->status_failures.fetch_add(1, std::memory_order_relaxed);
      }
      last_users = snapshot.users_served;
      (void)engine->strategy();
    }
  });
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

class ConcurrentTopK : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentTopK, MixedKMatchesSerialReference) {
  const int engine_threads = GetParam();
  const Index num_users = 300;
  const MFModel model = MakeTestModel(num_users, 150, 8, 23,
                                      /*norm_sigma=*/0.6);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  EngineOptions options = SmallEngineOptions(5);
  options.threads = engine_threads;  // engine pool shared by all callers
  // Three candidate families so concurrent re-decisions measure a
  // batching index AND the point-query LEMP path (lazy per-k calibration)
  // while query traffic is in flight.
  options.solvers = {"bmm", "maximus", "lemp"};
  auto engine = MipsEngine::Open(users, items, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Serial ground truth per k, computed before any concurrent traffic.
  const std::vector<Index> ks = {3, 5, 9, 12};
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());
  std::map<Index, TopKResult> references;
  for (const Index k : ks) {
    ASSERT_TRUE(reference.TopKAll(k, &references[k]).ok());
  }

  ConcurrentHarnessResult result;
  HammerEngine(engine->get(), ks, references, /*num_threads=*/8,
               /*iterations=*/24, num_users, &result);
  EXPECT_EQ(result.status_failures.load(), 0);
  EXPECT_EQ(result.score_mismatches.load(), 0);

  // 8 threads x 24 iterations x 7 users, every batch served.
  EXPECT_EQ((*engine)->stats().batches_served, 8 * 24);
  EXPECT_EQ((*engine)->stats().users_served, 8 * 24 * 7);
  // The decision cache serializes re-decisions under the exclusive lock:
  // exactly one per k that diverges from the opening k, no matter how
  // many threads raced to trigger it.
  EXPECT_EQ((*engine)->stats().redecisions,
            static_cast<int64_t>(ks.size()) - 1);
}

INSTANTIATE_TEST_SUITE_P(EnginePoolSizes, ConcurrentTopK,
                         ::testing::Values(0, 2));

TEST(ConcurrentTopKTest, ForcedStrategyFlipsStayExact) {
  // ForceStrategy/ClearForcedStrategy race against traffic: every answer
  // must still be exact regardless of which strategy served it.
  const Index num_users = 200;
  const MFModel model = MakeTestModel(num_users, 100, 8, 29);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  auto engine = MipsEngine::Open(users, items, SmallEngineOptions(4));
  ASSERT_TRUE(engine.ok());

  const std::vector<Index> ks = {4};
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());
  std::map<Index, TopKResult> references;
  ASSERT_TRUE(reference.TopKAll(4, &references[4]).ok());

  std::atomic<bool> stop{false};
  std::thread flipper([&]() {
    int flips = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (flips % 2 == 0) {
        (void)(*engine)->ForceStrategy("maximus");
      } else {
        (*engine)->ClearForcedStrategy();
      }
      ++flips;
    }
  });
  ConcurrentHarnessResult result;
  HammerEngine(engine->get(), ks, references, /*num_threads=*/4,
               /*iterations=*/16, num_users, &result);
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  EXPECT_EQ(result.status_failures.load(), 0);
  EXPECT_EQ(result.score_mismatches.load(), 0);
}

TEST(EngineTest, ThreadedEngineStaysExact) {
  const MFModel model = MakeTestModel(300, 150, 8, 19);
  EngineOptions options = SmallEngineOptions();
  options.threads = 3;
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok());
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE((*engine)->TopKAll(5, &got).ok());
  ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

}  // namespace
}  // namespace mips
