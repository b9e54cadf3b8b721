// Tests for the FEXIPRO bound-cascade lesion switches: every subset of the
// cascade stays exact, and the bounds cut exact scoring.
//
// New users (the paper's Section III-E) are served exactly by
// MipsSolver::TopKNewUsers; MAXIMUS's nearest-centroid walk is checked in
// maximus_test and integration_test.

#include <gtest/gtest.h>

#include "solvers/bmm.h"
#include "solvers/fexipro/fexipro.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::MakeTestModel;

class FexiproLesionTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(FexiproLesionTest, ExactUnderAnyCascadeSubset) {
  const auto [use_reduction, use_int, use_svd] = GetParam();
  const MFModel model = MakeTestModel(60, 250, 12, 10, 0.8);
  FexiproOptions options;
  options.use_reduction = use_reduction;
  options.use_int_bound = use_int;
  options.use_svd_bound = use_svd;
  FexiproSolver fexipro(options);
  BmmSolver bmm;
  ASSERT_TRUE(fexipro.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(fexipro.TopKAll(5, &got).ok());
  ASSERT_TRUE(bmm.TopKAll(5, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, FexiproLesionTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(FexiproLesionTest, BoundsReduceExactScoring) {
  // With both bounds off, every surviving length-test item is scored
  // exactly; with bounds on, strictly fewer are.
  const MFModel model = MakeTestModel(80, 1500, 16, 11, /*norm_sigma=*/0.3);
  FexiproOptions off;
  off.use_int_bound = false;
  off.use_svd_bound = false;
  FexiproOptions on;
  FexiproSolver lesioned(off);
  FexiproSolver full(on);
  ASSERT_TRUE(lesioned.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(full.Prepare(ConstRowBlock(model.users),
                           ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(lesioned.TopKAll(1, &out).ok());
  const double exact_without = lesioned.last_exact_fraction();
  ASSERT_TRUE(full.TopKAll(1, &out).ok());
  const double exact_with = full.last_exact_fraction();
  EXPECT_LT(exact_with, exact_without);
}

}  // namespace
}  // namespace mips
