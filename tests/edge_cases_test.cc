// Adversarial and degenerate inputs across all solvers: exact ties,
// duplicate items, zero vectors, single-dimension factors, identical
// users, and large-k GEMM paths.  Every solver must stay exact (same
// score sequences as brute force) on all of them.

#include <gtest/gtest.h>

#include <cstring>

#include "core/maximus.h"
#include "core/optimus.h"
#include "linalg/gemm.h"
#include "mips.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::MakeTestModel;
using ::mips::testing::RandomMatrix;

// Runs every registry solver on `model` and compares scores to BMM.
void ExpectAllSolversExact(const MFModel& model, Index k, Real tol = 1e-7) {
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(k, &expected).ok());
  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverFromSpec(name);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items)).ok())
        << name;
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(k, &got).ok()) << name;
    {
      SCOPED_TRACE(name);
      ExpectSameTopKScores(got, expected, tol);
    }
  }
}

TEST(EdgeCasesTest, DuplicateItems) {
  // Every item appears twice: massive exact score ties.
  MFModel model = MakeTestModel(30, 40, 6, 1);
  for (Index i = 0; i < 20; ++i) {
    std::memcpy(model.items.Row(i + 20), model.items.Row(i),
                6 * sizeof(Real));
  }
  ExpectAllSolversExact(model, 5);
}

TEST(EdgeCasesTest, AllItemsIdentical) {
  MFModel model = MakeTestModel(20, 30, 5, 2);
  for (Index i = 1; i < 30; ++i) {
    std::memcpy(model.items.Row(i), model.items.Row(0), 5 * sizeof(Real));
  }
  ExpectAllSolversExact(model, 4);
}

TEST(EdgeCasesTest, AllUsersIdentical) {
  // theta_b collapses to 0 for MAXIMUS; LEMP calibration sees one user.
  MFModel model = MakeTestModel(25, 60, 7, 3);
  for (Index u = 1; u < 25; ++u) {
    std::memcpy(model.users.Row(u), model.users.Row(0), 7 * sizeof(Real));
  }
  ExpectAllSolversExact(model, 3);
}

TEST(EdgeCasesTest, ZeroItemsAmongNormal) {
  MFModel model = MakeTestModel(20, 50, 6, 4);
  for (Index i : {0, 7, 49}) {
    for (Index c = 0; c < 6; ++c) model.items(i, c) = 0;
  }
  ExpectAllSolversExact(model, 5);
}

TEST(EdgeCasesTest, AllZeroUsers) {
  MFModel model = MakeTestModel(10, 20, 4, 5);
  model.users.Fill(0);
  ExpectAllSolversExact(model, 3);
}

TEST(EdgeCasesTest, SingleFactorDimension) {
  // f=1: all angles are 0 or pi; checkpoints collapse; SVD is trivial.
  MFModel model = MakeTestModel(40, 30, 1, 6);
  ExpectAllSolversExact(model, 4);
}

TEST(EdgeCasesTest, SingleItem) {
  MFModel model = MakeTestModel(15, 1, 5, 7);
  ExpectAllSolversExact(model, 1);
}

TEST(EdgeCasesTest, SingleUser) {
  MFModel model = MakeTestModel(1, 100, 8, 8);
  ExpectAllSolversExact(model, 10);
}

TEST(EdgeCasesTest, KEqualsItemCount) {
  MFModel model = MakeTestModel(12, 17, 6, 9);
  ExpectAllSolversExact(model, 17);
}

TEST(EdgeCasesTest, NegativeOnlyFactors) {
  // All coordinates negative: FEXIPRO's reduction shift is maximal and
  // every inner product is positive.
  MFModel model = MakeTestModel(20, 40, 5, 10);
  for (std::size_t i = 0; i < model.users.size(); ++i) {
    model.users.data()[i] = -std::abs(model.users.data()[i]);
  }
  for (std::size_t i = 0; i < model.items.size(); ++i) {
    model.items.data()[i] = -std::abs(model.items.data()[i]);
  }
  ExpectAllSolversExact(model, 5);
}

TEST(EdgeCasesTest, HugeNormOutlierItem) {
  // One item dominates every top-1; indexes must still return the rest
  // of the top-K correctly.
  MFModel model = MakeTestModel(30, 50, 6, 11);
  for (Index c = 0; c < 6; ++c) model.items(13, c) *= 1e6;
  ExpectAllSolversExact(model, 5, /*tol=*/1e-2);  // absolute scores ~1e6
}

TEST(EdgeCasesTest, ConstantScoresEverywhere) {
  // users = e0 * a, items = e0 * b: every (u,i) score is a*b — total tie.
  MFModel model;
  model.users.Resize(10, 3);
  model.items.Resize(12, 3);
  for (Index u = 0; u < 10; ++u) model.users(u, 0) = 2.0;
  for (Index i = 0; i < 12; ++i) model.items(i, 0) = 0.5;
  ExpectAllSolversExact(model, 4);
}

// GEMM K-blocking path: k > 2*KC exercises three K panels and repeated
// C accumulation.
TEST(EdgeCasesTest, GemmDeepK) {
  const Index m = 37;
  const Index n = 53;
  const Index k = 700;  // KC = 256 -> 3 panels
  const Matrix a = RandomMatrix(m, k, 21);
  const Matrix b = RandomMatrix(n, k, 22);
  Matrix c(m, n);
  Matrix ref(m, n);
  GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
  GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, ref.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i],
                1e-8 * (1 + std::abs(ref.data()[i])));
  }
}

// GEMM N-blocking path: n > NC (2048) exercises multiple column panels.
TEST(EdgeCasesTest, GemmWideN) {
  const Index m = 9;
  const Index n = 5000;
  const Index k = 33;
  const Matrix a = RandomMatrix(m, k, 23);
  const Matrix b = RandomMatrix(n, k, 24);
  Matrix c(m, n);
  Matrix ref(m, n);
  GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
  GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, ref.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i],
                1e-9 * (1 + std::abs(ref.data()[i])));
  }
}

// Randomized GEMM property sweep: 40 random shapes against the naive
// reference.
TEST(EdgeCasesTest, GemmRandomShapeSweep) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const Index m = 1 + static_cast<Index>(rng.UniformInt(90));
    const Index n = 1 + static_cast<Index>(rng.UniformInt(150));
    const Index k = 1 + static_cast<Index>(rng.UniformInt(70));
    const Matrix a = RandomMatrix(m, k, 100 + trial);
    const Matrix b = RandomMatrix(n, k, 200 + trial);
    Matrix c(m, n);
    Matrix ref(m, n);
    GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
    GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, ref.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c.data()[i], ref.data()[i],
                  1e-9 * (1 + std::abs(ref.data()[i])))
          << "trial " << trial << " shape " << m << "x" << n << "x" << k;
    }
  }
}

TEST(EdgeCasesTest, OptimusWithDuplicateStrategyTypes) {
  // Two BMM instances plus MAXIMUS: degenerate but must still work.
  const MFModel model = MakeTestModel(200, 100, 8, 12);
  BmmSolver bmm1;
  BmmSolver bmm2;
  MaximusSolver maximus;
  OptimusOptions options;
  options.l2_cache_bytes = 8 * 1024;
  Optimus optimus(options);
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       3, {&bmm1, &bmm2, &maximus}, &out, &report)
                  .ok());
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(3, &expected).ok());
  ExpectSameTopKScores(out, expected, 1e-7);
}

TEST(EdgeCasesTest, UmbrellaHeaderCompilesAndWorks) {
  // mips.h pulls in the whole public API; spot-check a cross-module flow.
  const MFModel model = MakeTestModel(50, 30, 4, 13);
  auto solver = CreateSolverFromSpec("maximus");
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE((*solver)->TopKAll(2, &out).ok());
  EXPECT_EQ(out.num_queries(), 50);
}

}  // namespace
}  // namespace mips
