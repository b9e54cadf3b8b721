// Tests for MAXIMUS: the Koenigstein bound as a property test, index
// construction invariants, exactness against brute force across a
// parameter sweep (clusters, blocking, K, clustering flavor), the item
// blocking lesion, dynamic users, and threading.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/thread_pool.h"
#include "core/cbound.h"
#include "core/maximus.h"
#include "solvers/bmm.h"
#include "counting_new.h"
#include "test_util.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::ExpectValidTopK;
using ::mips::testing::MakeTestModel;

// ----------------------------------------------------------- The bound

TEST(CBoundTest, AngleFromCosineClamps) {
  EXPECT_DOUBLE_EQ(AngleFromCosine(1.5), 0.0);
  EXPECT_DOUBLE_EQ(AngleFromCosine(-1.5), M_PI);
  EXPECT_NEAR(AngleFromCosine(0.0), M_PI / 2, 1e-12);
}

TEST(CBoundTest, WideConeDegeneratesToNorm) {
  // theta_b >= theta_ic: the bound is just the item norm.
  EXPECT_DOUBLE_EQ(CBound(2.5, 0.3, 0.3), 2.5);
  EXPECT_DOUBLE_EQ(CBound(2.5, 0.3, 1.0), 2.5);
}

TEST(CBoundTest, TightConeScalesByCos) {
  EXPECT_NEAR(CBound(2.0, 1.0, 0.25), 2.0 * std::cos(0.75), 1e-12);
}

TEST(CBoundTest, MonotoneInTheta) {
  // Wider cones can only loosen the bound.
  Real prev = 0;
  for (Real theta_b : {0.0, 0.2, 0.4, 0.8, 1.5, 3.0}) {
    const Real b = CBound(1.0, 1.2, theta_b);
    EXPECT_GE(b, prev - 1e-12);
    prev = b;
  }
}

// Property: CBound is Lipschitz in theta_b with constant ||i||.  This is
// what makes the dynamic-user walk exact: a user outside the cluster cone
// by delta can inflate every bound by at most max_norm * delta, so adding
// that slack to the sorted list keeps termination conservative
// (MaximusSolver::QueryDynamicUser).
TEST(CBoundTest, LipschitzInTheta) {
  Rng rng(4);
  for (int trial = 0; trial < 5000; ++trial) {
    const Real norm = rng.Uniform(0.0, 5.0);
    const Real theta_ic = rng.Uniform(0.0, M_PI);
    const Real theta_b = rng.Uniform(0.0, M_PI);
    const Real delta = rng.Uniform(0.0, M_PI - 0.0);
    const Real widened = std::min(theta_b + delta, Real{M_PI});
    EXPECT_LE(CBound(norm, theta_ic, widened),
              CBound(norm, theta_ic, theta_b) + norm * delta + 1e-12)
        << "norm=" << norm << " theta_ic=" << theta_ic
        << " theta_b=" << theta_b << " delta=" << delta;
  }
}

// Property (Equation 2): for random user/item/centroid triples, the
// normalized rating never exceeds the bound computed from the angles.
TEST(CBoundTest, UpperBoundsNormalizedRating) {
  Rng rng(3);
  const Index f = 12;
  std::vector<Real> u(f);
  std::vector<Real> i(f);
  std::vector<Real> c(f);
  for (int trial = 0; trial < 2000; ++trial) {
    for (Index d = 0; d < f; ++d) {
      u[static_cast<std::size_t>(d)] = rng.Normal();
      i[static_cast<std::size_t>(d)] = rng.Normal(0, 2);
      c[static_cast<std::size_t>(d)] = rng.Normal();
    }
    const Real norm_u = Nrm2(u.data(), f);
    const Real norm_i = Nrm2(i.data(), f);
    const Real theta_ic =
        AngleFromCosine(CosineSimilarity(i.data(), c.data(), f));
    const Real theta_uc =
        AngleFromCosine(CosineSimilarity(u.data(), c.data(), f));
    const Real r_star = Dot(u.data(), i.data(), f) / norm_u;
    EXPECT_LE(r_star, CBound(norm_i, theta_ic, theta_uc) + 1e-9)
        << "trial " << trial;
    // The cluster-level bound with any theta_b >= theta_uc also holds.
    EXPECT_LE(r_star, CBound(norm_i, theta_ic, theta_uc + 0.3) + 1e-9);
  }
}

// --------------------------------------------------------- Construction

TEST(MaximusTest, PrepareBuildsClustersAndTimers) {
  const MFModel model = MakeTestModel(300, 200, 10, 5);
  MaximusOptions options;
  options.num_clusters = 6;
  MaximusSolver maximus(options);
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  EXPECT_EQ(maximus.clustering().centroids.rows(), 6);
  EXPECT_EQ(maximus.theta_b().size(), 6u);
  for (Real theta : maximus.theta_b()) {
    EXPECT_GE(theta, 0.0);
    EXPECT_LE(theta, M_PI + 1e-9);
  }
  EXPECT_GT(maximus.stage_timer().Get("clustering"), 0.0);
  EXPECT_GT(maximus.stage_timer().Get("construction"), 0.0);
}

TEST(MaximusTest, ThetaBCoversAllMembers) {
  const MFModel model = MakeTestModel(200, 50, 8, 7);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  const Clustering& clustering = maximus.clustering();
  for (Index u = 0; u < 200; ++u) {
    const Index j = clustering.assignment[static_cast<std::size_t>(u)];
    const Real theta = AngleFromCosine(CosineSimilarity(
        model.users.Row(u), clustering.centroids.Row(j), 8));
    EXPECT_LE(theta, maximus.theta_b()[static_cast<std::size_t>(j)] + 1e-9);
  }
}

TEST(MaximusTest, RejectsBadInput) {
  MaximusSolver maximus;
  Matrix empty;
  const MFModel model = MakeTestModel(10, 10, 4, 9);
  EXPECT_FALSE(maximus.Prepare(ConstRowBlock(empty),
                               ConstRowBlock(model.items)).ok());
  TopKResult out;
  EXPECT_EQ(maximus.TopKForUsers(1, {}, &out).code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ Exactness

class MaximusExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, bool, double>> {};

TEST_P(MaximusExactnessTest, MatchesBruteForce) {
  const auto [k, clusters, block_size, spherical, dispersion] = GetParam();
  const MFModel model =
      MakeTestModel(150, 250, 12, /*seed=*/31, /*norm_sigma=*/0.6,
                    /*dispersion=*/dispersion);
  MaximusOptions options;
  options.num_clusters = clusters;
  options.block_size = block_size;
  options.spherical_clustering = spherical;
  MaximusSolver maximus(options);
  BmmSolver bmm;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(maximus.TopKAll(k, &got).ok());
  ASSERT_TRUE(bmm.TopKAll(k, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
  ExpectValidTopK(got, AllUsers(150), model, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaximusExactnessTest,
    ::testing::Values(
        std::make_tuple(1, 8, 64, false, 0.3),
        std::make_tuple(5, 8, 64, false, 0.3),
        std::make_tuple(10, 8, 0, false, 0.3),     // blocking disabled
        std::make_tuple(5, 1, 32, false, 0.5),     // single cluster
        std::make_tuple(5, 16, 16, false, 0.5),    // many clusters
        std::make_tuple(5, 8, 1024, false, 0.5),   // block > items
        std::make_tuple(5, 8, 64, true, 0.3),      // spherical clustering
        std::make_tuple(50, 4, 64, false, 1.0)));  // large K, diffuse users

TEST(MaximusTest, VisitStatisticsBounded) {
  const MFModel model =
      MakeTestModel(200, 500, 10, /*seed=*/37, /*norm_sigma=*/0.9,
                    /*dispersion=*/0.2);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKAll(1, &out).ok());
  EXPECT_GE(maximus.mean_items_visited(), 1.0);
  EXPECT_LE(maximus.mean_items_visited(), 500.0);
  // Tight user clusters + skewed norms: pruning must be substantial.
  EXPECT_LT(maximus.mean_items_visited(), 250.0);
}

TEST(MaximusTest, LesionItemBlockingSameResults) {
  const MFModel model = MakeTestModel(120, 300, 10, 41, 0.7, 0.4);
  MaximusOptions with_blocking;
  with_blocking.block_size = 128;
  MaximusOptions without_blocking;
  without_blocking.block_size = 0;
  MaximusSolver a(with_blocking);
  MaximusSolver b(without_blocking);
  ASSERT_TRUE(a.Prepare(ConstRowBlock(model.users),
                        ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(b.Prepare(ConstRowBlock(model.users),
                        ConstRowBlock(model.items)).ok());
  TopKResult ra;
  TopKResult rb;
  ASSERT_TRUE(a.TopKAll(5, &ra).ok());
  ASSERT_TRUE(b.TopKAll(5, &rb).ok());
  ExpectSameTopKScores(ra, rb, 1e-7);
}

TEST(MaximusTest, SubsetQueriesExact) {
  const MFModel model = MakeTestModel(90, 120, 8, 43);
  MaximusSolver maximus;
  BmmSolver bmm;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  const std::vector<Index> subset = {88, 3, 41, 3, 0};
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(maximus.TopKForUsers(3, subset, &got).ok());
  ASSERT_TRUE(bmm.TopKForUsers(3, subset, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

TEST(MaximusTest, ThreadedMatchesSingleThreaded) {
  const MFModel model = MakeTestModel(160, 200, 10, 47);
  MaximusSolver single;
  MaximusSolver threaded;
  ThreadPool pool(4);
  threaded.set_thread_pool(&pool);
  ASSERT_TRUE(single.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(threaded.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
  TopKResult a;
  TopKResult b;
  ASSERT_TRUE(single.TopKAll(5, &a).ok());
  ASSERT_TRUE(threaded.TopKAll(5, &b).ok());
  ExpectSameTopKScores(a, b, 1e-9);
}

// The segment GEMMs score in L2-sized panels, so no call allocates a
// score block that grows with a cluster: about 256 users x 2,500 items
// would be a 5 MB block here.  Counts bytes, not time.
TEST(MaximusTest, LargestAllocationStaysUnderOneMiB) {
  const MFModel model = MakeTestModel(2048, 20000, 8);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult got;
  std::size_t largest = 0;
  {
    testing::AllocationCounter counter;
    ASSERT_TRUE(maximus.TopKAll(10, &got).ok());
    largest = counter.largest();
  }
  EXPECT_LT(largest, std::size_t{1} << 20);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult want;
  ASSERT_TRUE(bmm.TopKAll(10, &want).ok());
  ExpectSameTopKScores(got, want, 1e-9);
}

TEST(MaximusTest, KLargerThanItemsPads) {
  const MFModel model = MakeTestModel(12, 4, 6, 53);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKAll(6, &out).ok());
  for (Index u = 0; u < 12; ++u) {
    EXPECT_GE(out.Row(u)[3].item, 0);
    EXPECT_EQ(out.Row(u)[4].item, -1);
  }
}

TEST(MaximusTest, ZeroNormUserGetsZeroScores) {
  MFModel model = MakeTestModel(20, 30, 5, 59);
  for (Index c = 0; c < 5; ++c) model.users(4, c) = 0;
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKAll(3, &out).ok());
  for (Index e = 0; e < 3; ++e) {
    EXPECT_EQ(out.Row(4)[e].score, 0.0);
  }
}

// --------------------------------------------------------- Dynamic users

TEST(MaximusTest, DynamicUserQueryIsExact) {
  // Prepare on 200 users, then query 50 *new* users drawn from the same
  // distribution (plus a few adversarially far-from-centroid ones).
  const MFModel model = MakeTestModel(200, 300, 10, 61, 0.6, 0.4);
  const MFModel extra = MakeTestModel(50, 300, 10, 62, 0.6, 1.5);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  const Index k = 5;
  std::vector<TopKEntry> row(static_cast<std::size_t>(k));
  for (Index u = 0; u < 50; ++u) {
    ASSERT_TRUE(maximus.QueryDynamicUser(extra.users.Row(u), k, row.data()).ok());
    // Reference: direct scan.
    TopKHeap heap(k);
    for (Index i = 0; i < 300; ++i) {
      heap.Push(i, Dot(extra.users.Row(u), model.items.Row(i), 10));
    }
    std::vector<TopKEntry> expected(static_cast<std::size_t>(k));
    heap.ExtractDescending(expected.data());
    for (Index e = 0; e < k; ++e) {
      EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                  expected[static_cast<std::size_t>(e)].score, 1e-7)
          << "user " << u << " entry " << e;
    }
  }
}

TEST(MaximusTest, AssignNewUserMatchesNearestCentroid) {
  const MFModel model = MakeTestModel(100, 50, 6, 67);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  for (Index u = 0; u < 20; ++u) {
    EXPECT_EQ(maximus.AssignNewUser(model.users.Row(u)),
              AssignToNearest(model.users.Row(u),
                              maximus.clustering().centroids));
  }
}

}  // namespace
}  // namespace mips
