// Cross-module integration tests: all solvers agree on realistic preset
// workloads; OPTIMUS end-to-end on presets; dynamic-user serving
// (Section III-E); and a train -> save -> load -> serve pipeline.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "core/maximus.h"
#include "core/optimus.h"
#include "data/datasets.h"
#include "data/io.h"
#include "data/mf_trainer.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::ExpectValidTopK;
using ::mips::testing::MakeTestModel;

// Every solver must produce identical exact top-K on down-scaled versions
// of paper presets from both regimes.
class PresetParityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PresetParityTest, AllSolversAgree) {
  auto preset = FindModelPreset(GetParam());
  ASSERT_TRUE(preset.ok());
  auto model = MakeModel(*preset, /*scale_multiplier=*/0.12);
  ASSERT_TRUE(model.ok());
  // Keep the instance small enough for the naive solver.
  ASSERT_LE(static_cast<int64_t>(model->num_users()) * model->num_items(),
            int64_t{40000000});

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model->users),
                                ConstRowBlock(model->items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(10, &expected).ok());

  for (const std::string& name : RegisteredSolverNames()) {
    if (name == "naive") continue;  // covered by solvers_test; slow here
    auto solver = CreateSolverFromSpec(name);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model->users),
                                   ConstRowBlock(model->items)).ok());
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(10, &got).ok());
    ExpectSameTopKScores(got, expected, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, PresetParityTest,
                         ::testing::Values("netflix-nomad-10",
                                           "netflix-bpr-25", "r2-nomad-10",
                                           "kdd-nomad-25", "glove-twitter-50"));

TEST(IntegrationTest, OptimusOnPresets) {
  for (const char* id : {"netflix-nomad-10", "r2-nomad-10"}) {
    auto preset = FindModelPreset(id);
    ASSERT_TRUE(preset.ok());
    auto model = MakeModel(*preset, 0.1);
    ASSERT_TRUE(model.ok());

    BmmSolver bmm;
    MaximusSolver maximus;
    OptimusOptions options;
    options.l2_cache_bytes = 32 * 1024;
    Optimus optimus(options);
    TopKResult out;
    OptimusReport report;
    ASSERT_TRUE(optimus
                    .Run(ConstRowBlock(model->users),
                         ConstRowBlock(model->items), 5, {&bmm, &maximus},
                         &out, &report)
                    .ok());
    BmmSolver reference;
    ASSERT_TRUE(reference.Prepare(ConstRowBlock(model->users),
                                  ConstRowBlock(model->items)).ok());
    TopKResult expected;
    ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
    ExpectSameTopKScores(out, expected, 1e-6);
  }
}

// Section III-E claim, scaled: clustering only 10% of users and assigning
// the rest barely changes the end-to-end result (and stays exact).
TEST(IntegrationTest, DynamicUsersStayExact) {
  const MFModel model = MakeTestModel(500, 300, 10, 73, 0.6, 0.3);
  // Prepare MAXIMUS on the first 10% of users only.
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users, 0, 50),
                              ConstRowBlock(model.items)).ok());
  // Serve the remaining 90% as dynamic users; verify against brute force.
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
  std::vector<TopKEntry> row(5);
  for (Index u = 50; u < 500; ++u) {
    ASSERT_TRUE(
        maximus.QueryDynamicUser(model.users.Row(u), 5, row.data()).ok());
    for (Index e = 0; e < 5; ++e) {
      EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                  expected.Row(u)[e].score, 1e-7)
          << "user " << u << " entry " << e;
    }
  }
}

TEST(IntegrationTest, TrainSaveLoadServe) {
  // Train a small MF model, persist it, reload it, and serve with OPTIMUS.
  const Index users = 120;
  const Index items = 90;
  const auto ratings =
      GenerateSyntheticRatings(users, items, 8000, 4, 0.05, 79);
  MFTrainConfig config;
  config.num_factors = 6;
  config.epochs = 12;
  auto trained = TrainMF(ratings, users, items, config);
  ASSERT_TRUE(trained.ok());

  const std::string upath = ::testing::TempDir() + "/users.bin";
  const std::string ipath = ::testing::TempDir() + "/items.bin";
  ASSERT_TRUE(SaveMatrixBinary(trained->users, upath).ok());
  ASSERT_TRUE(SaveMatrixBinary(trained->items, ipath).ok());
  auto loaded_users = LoadMatrixBinary(upath);
  auto loaded_items = LoadMatrixBinary(ipath);
  ASSERT_TRUE(loaded_users.ok());
  ASSERT_TRUE(loaded_items.ok());

  BmmSolver bmm;
  MaximusSolver maximus;
  OptimusOptions options;
  options.l2_cache_bytes = 8 * 1024;
  Optimus optimus(options);
  TopKResult out;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(*loaded_users),
                       ConstRowBlock(*loaded_items), 3, {&bmm, &maximus},
                       &out)
                  .ok());
  MFModel loaded;
  loaded.users = std::move(*loaded_users);
  loaded.items = std::move(*loaded_items);
  ExpectValidTopK(out, AllUsers(users), loaded, 1e-7);
  std::remove(upath.c_str());
  std::remove(ipath.c_str());
}

// The regime claim behind the whole paper, verified end-to-end: on the
// R2-like preset the index prunes most work; on the Netflix-like preset it
// cannot.
TEST(IntegrationTest, PruningRegimesMatchPresets) {
  auto netflix = FindModelPreset("netflix-nomad-50");
  auto r2 = FindModelPreset("r2-nomad-50");
  ASSERT_TRUE(netflix.ok());
  ASSERT_TRUE(r2.ok());
  auto netflix_model = MakeModel(*netflix, 0.08);
  auto r2_model = MakeModel(*r2, 0.08);
  ASSERT_TRUE(netflix_model.ok());
  ASSERT_TRUE(r2_model.ok());

  MaximusSolver m_netflix;
  MaximusSolver m_r2;
  ASSERT_TRUE(m_netflix.Prepare(ConstRowBlock(netflix_model->users),
                                ConstRowBlock(netflix_model->items)).ok());
  ASSERT_TRUE(m_r2.Prepare(ConstRowBlock(r2_model->users),
                           ConstRowBlock(r2_model->items)).ok());
  TopKResult out;
  ASSERT_TRUE(m_netflix.TopKAll(1, &out).ok());
  const double netflix_fraction = m_netflix.mean_items_visited() /
                                  netflix_model->num_items();
  ASSERT_TRUE(m_r2.TopKAll(1, &out).ok());
  const double r2_fraction = m_r2.mean_items_visited() / r2_model->num_items();
  // R2-like data must be dramatically more prunable.
  EXPECT_LT(r2_fraction, 0.5 * netflix_fraction);
}

}  // namespace
}  // namespace mips
