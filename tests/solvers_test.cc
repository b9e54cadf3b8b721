// Tests for the solver interface and the two brute-force solvers: naive
// (reference semantics) and BMM (must agree exactly with naive), including
// a parameterized parity sweep, subset queries, threading, and padding.
// The SolverContractTest cases hold every registered solver to the
// interface's own checks and to its one query body: a prepared user's
// vector served as a new user gets the user's row bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "solvers/bmm.h"
#include "solvers/fexipro/fexipro.h"
#include "solvers/lemp/lemp.h"
#include "solvers/naive.h"
#include "solvers/registry.h"
#include "sparse/sindi.h"
#include "counting_new.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectBitIdenticalTopK;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::ExpectValidTopK;
using ::mips::testing::MakeTestModel;

TEST(GatherRowsTest, GathersInOrder) {
  const Matrix m = testing::RandomMatrix(6, 3, 1);
  const std::vector<Index> ids = {4, 0, 4};
  const Matrix g = GatherRows(ConstRowBlock(m), ids);
  ASSERT_EQ(g.rows(), 3);
  for (Index c = 0; c < 3; ++c) {
    EXPECT_EQ(g(0, c), m(4, c));
    EXPECT_EQ(g(1, c), m(0, c));
    EXPECT_EQ(g(2, c), m(4, c));
  }
}

TEST(NaiveSolverTest, ValidatesInput) {
  NaiveSolver solver;
  const MFModel model = MakeTestModel(10, 10, 4);
  Matrix wrong(10, 5);
  EXPECT_FALSE(solver.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(wrong)).ok());
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  TopKResult out;
  EXPECT_FALSE(solver.TopKForUsers(0, {}, &out).ok());  // k must be > 0
}

TEST(NaiveSolverTest, ResultsAreInternallyConsistent) {
  const MFModel model = MakeTestModel(40, 60, 8);
  NaiveSolver solver;
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(solver.TopKAll(5, &out).ok());
  ExpectValidTopK(out, AllUsers(40), model);
}

TEST(NaiveSolverTest, TopOneIsArgmax) {
  const MFModel model = MakeTestModel(20, 30, 6);
  NaiveSolver solver;
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(solver.TopKAll(1, &out).ok());
  for (Index u = 0; u < 20; ++u) {
    Real best = -1e300;
    Index best_item = -1;
    for (Index i = 0; i < 30; ++i) {
      const Real s = Dot(model.users.Row(u), model.items.Row(i), 6);
      if (s > best) {
        best = s;
        best_item = i;
      }
    }
    EXPECT_EQ(out.Row(u)[0].item, best_item);
    EXPECT_NEAR(out.Row(u)[0].score, best, 1e-10);
  }
}

class BmmParityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(BmmParityTest, MatchesNaive) {
  const auto [users, items, f, k] = GetParam();
  const MFModel model = MakeTestModel(users, items, f,
                                      /*seed=*/static_cast<uint64_t>(
                                          users * 31 + items * 7 + f + k));
  NaiveSolver naive;
  BmmSolver bmm;
  ASSERT_TRUE(naive.Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult expected;
  TopKResult got;
  ASSERT_TRUE(naive.TopKAll(k, &expected).ok());
  ASSERT_TRUE(bmm.TopKAll(k, &got).ok());
  ExpectSameTopKScores(got, expected);
  ExpectValidTopK(got, AllUsers(users), model);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BmmParityTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 1),
                      std::make_tuple(3, 7, 2, 1),
                      std::make_tuple(50, 20, 10, 5),
                      std::make_tuple(64, 128, 16, 10),
                      std::make_tuple(200, 333, 25, 50),
                      std::make_tuple(17, 1000, 50, 10),
                      std::make_tuple(100, 5, 8, 5)));

TEST(BmmSolverTest, KLargerThanItemsPads) {
  const MFModel model = MakeTestModel(10, 3, 4);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(bmm.TopKAll(5, &out).ok());
  for (Index u = 0; u < 10; ++u) {
    EXPECT_GE(out.Row(u)[0].item, 0);
    EXPECT_GE(out.Row(u)[2].item, 0);
    EXPECT_EQ(out.Row(u)[3].item, -1);
    EXPECT_EQ(out.Row(u)[4].item, -1);
  }
}

TEST(BmmSolverTest, SubsetQueries) {
  const MFModel model = MakeTestModel(60, 40, 8);
  BmmSolver bmm;
  NaiveSolver naive;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(naive.Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items)).ok());
  const std::vector<Index> subset = {3, 17, 17, 59, 0};
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(bmm.TopKForUsers(4, subset, &got).ok());
  ASSERT_TRUE(naive.TopKForUsers(4, subset, &expected).ok());
  ExpectSameTopKScores(got, expected);
  ExpectValidTopK(got, subset, model);
}

TEST(BmmSolverTest, SmallBatchSizesStillExact) {
  const MFModel model = MakeTestModel(70, 25, 6);
  BmmOptions options;
  options.batch_rows = 7;  // forces many partial batches
  BmmSolver bmm(options);
  NaiveSolver naive;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(naive.Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items)).ok());
  EXPECT_EQ(bmm.batch_rows(), 7);
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(bmm.TopKAll(3, &got).ok());
  ASSERT_TRUE(naive.TopKAll(3, &expected).ok());
  ExpectSameTopKScores(got, expected);
}

// Scores are selected in L2-sized panels, so no call allocates a score
// block that grows with the catalog: 128 users x 20,000 items would be a
// 20.5 MB block.  Counts bytes, not time.
TEST(BmmSolverTest, LargestAllocationStaysUnderOneMiB) {
  const MFModel model = MakeTestModel(256, 20000, 8);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  std::size_t largest = 0;
  {
    testing::AllocationCounter counter;
    ASSERT_TRUE(bmm.TopKAll(10, &got).ok());
    largest = counter.largest();
  }
  EXPECT_LT(largest, std::size_t{1} << 20);
  ExpectValidTopK(got, AllUsers(model.num_users()), model);
}

// A request of several row blocks (topk/score_select.h kScoreRowBlock)
// holds one block's heaps at a time, so what it allocates beyond its
// output does not grow with the users: 10,000 users' heaps at k = 10
// would be about 1.9 MB at once.  Counts every byte requested during the
// call, so the bound also covers the peak.
TEST(BmmSolverTest, BytesBeyondTheOutputStayBoundedPastOneRowBlock) {
  const Index num_users = 10000;
  const Index k = 10;
  const MFModel model = MakeTestModel(num_users, 300, 8);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  std::size_t bytes = 0;
  {
    testing::AllocationCounter counter;
    ASSERT_TRUE(bmm.TopKAll(k, &got).ok());
    bytes = counter.bytes();
  }
  const std::size_t output = static_cast<std::size_t>(num_users) *
                             static_cast<std::size_t>(k) * sizeof(TopKEntry);
  ASSERT_GE(bytes, output);
  EXPECT_LT(bytes - output, std::size_t{1} << 20);
  ExpectValidTopK(got, AllUsers(num_users), model);
}

// A call of a few query rows reads the items where they are
// (topk/score_select.h kScoreInPlaceRows): a 1-row new-user query over
// 3,554 x 50 items, batch-flat's catalog, must not request a packed copy
// of them (0.8 MB for the first chunk of 2,048 items).  Counts every
// byte requested during the call, beyond the output row.
TEST(BmmSolverTest, OneRowNewUserQueryPacksNoItems) {
  const Index k = 10;
  const MFModel model = MakeTestModel(4, 3554, 50);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  std::size_t bytes = 0;
  {
    testing::AllocationCounter counter;
    ASSERT_TRUE(bmm.TopKNewUsers(model.users.Row(1), 1, k, &got).ok());
    bytes = counter.bytes();
  }
  const std::size_t output = static_cast<std::size_t>(k) * sizeof(TopKEntry);
  ASSERT_GE(bytes, output);
  EXPECT_LT(bytes - output, std::size_t{64} << 10);
  TopKResult want;
  ASSERT_TRUE(bmm.TopKForUsers(k, std::vector<Index>{1}, &want).ok());
  for (Index e = 0; e < k; ++e) {
    EXPECT_EQ(got.Row(0)[e].item, want.Row(0)[e].item);
    EXPECT_EQ(got.Row(0)[e].score, want.Row(0)[e].score);
  }
}

TEST(BmmSolverTest, ThreadedMatchesSingleThreaded) {
  const MFModel model = MakeTestModel(128, 90, 12);
  BmmSolver single;
  BmmSolver threaded;
  ThreadPool pool(4);
  threaded.set_thread_pool(&pool);
  ASSERT_TRUE(single.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(threaded.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
  TopKResult a;
  TopKResult b;
  ASSERT_TRUE(single.TopKAll(7, &a).ok());
  ASSERT_TRUE(threaded.TopKAll(7, &b).ok());
  ExpectSameTopKScores(a, b, 1e-12);
  // Identical accumulation per user means identical item choices too.
  for (Index u = 0; u < 128; ++u) {
    for (Index e = 0; e < 7; ++e) {
      EXPECT_EQ(a.Row(u)[e].item, b.Row(u)[e].item);
    }
  }
}

TEST(BmmSolverTest, QueryBeforePrepareFails) {
  BmmSolver bmm;
  TopKResult out;
  EXPECT_EQ(bmm.TopKForUsers(1, {}, &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BmmSolverTest, EmptyQuerySet) {
  const MFModel model = MakeTestModel(10, 10, 4);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(bmm.TopKForUsers(3, {}, &out).ok());
  EXPECT_EQ(out.num_queries(), 0);
}

// The argument and state checks live in MipsSolver's entries, so every
// solver gives the same codes: a query before Prepare fails, k = 0 is
// refused, users and items of different factor widths do not prepare,
// and id rows must come with the prepared user matrix.
TEST(SolverContractTest, EverySolverChecksPrepareKAndWidths) {
  const MFModel model = MakeTestModel(20, 30, 6);
  const Matrix wide_items(30, 7);
  const std::vector<Index> ids = {0, 1};
  for (const std::string& name : RegisteredSolverNames()) {
    SCOPED_TRACE(name);
    auto created = CreateSolverFromSpec(name);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    MipsSolver& solver = **created;
    TopKResult out;
    EXPECT_EQ(solver.TopKForUsers(5, ids, &out).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(solver.TopKNewUsers(model.users.Row(0), 1, 5, &out).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(solver.TopKAll(5, &out).code(),
              StatusCode::kFailedPrecondition);

    EXPECT_EQ(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(wide_items)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(solver.TopKForUsers(5, ids, &out).code(),
              StatusCode::kFailedPrecondition);

    ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
    EXPECT_EQ(solver.TopKForUsers(0, ids, &out).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(solver.TopKNewUsers(model.users.Row(0), 1, 0, &out).code(),
              StatusCode::kInvalidArgument);
    // Ids index the prepared user matrix only.
    const Matrix copy = model.users;
    EXPECT_EQ(solver.TopK(5, {copy.data(), ids.data(), 2}, {}, &out).code(),
              StatusCode::kInvalidArgument);
    ASSERT_TRUE(solver.TopKForUsers(5, ids, &out).ok());
    EXPECT_EQ(out.num_queries(), 2);
  }
}

// Every solver serves new vectors through the body that serves its
// prepared users, so a prepared user's vector gets the user's row back
// bit for bit, scores in the solver's own accumulation order.  LEMP runs
// adaptive (its per-k calibration is shared by both calls; at k = 10 and
// 17 the new-user call comes first and calibrates on the vectors) and
// pinned to incremental pruning, whose partial sums differ from one Dot.
TEST(SolverContractTest, PreparedUserVectorsServeAsTheUsersBitForBit) {
  const MFModel model = MakeTestModel(300, 700, 24, 7, /*norm_sigma=*/0.8);
  std::vector<Index> ids;
  for (Index u = 0; u < 64; ++u) ids.push_back(u * 300 / 64);
  const Matrix vectors = GatherRows(ConstRowBlock(model.users), ids);

  std::vector<std::string> specs = RegisteredSolverNames();
  specs.push_back("lemp:forced_algorithm=2");
  for (const std::string& spec : specs) {
    auto created = CreateSolverFromSpec(spec);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    MipsSolver& solver = **created;
    ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
    for (const Index k : {1, 10, 16, 17}) {
      SCOPED_TRACE(::testing::Message() << spec << " k=" << k);
      TopKResult known;
      TopKResult fresh;
      if (k == 10 || k == 17) {
        ASSERT_TRUE(solver.TopKNewUsers(vectors.data(), 64, k, &fresh).ok());
        ASSERT_TRUE(solver.TopKForUsers(k, ids, &known).ok());
      } else {
        ASSERT_TRUE(solver.TopKForUsers(k, ids, &known).ok());
        ASSERT_TRUE(solver.TopKNewUsers(vectors.data(), 64, k, &fresh).ok());
      }
      ExpectBitIdenticalTopK(fresh, known);
    }
  }
}

// Every solver's one query body honours an item mask: a masked row is
// never offered, so each row is the exact top k of the other items, bit
// for bit what the same solver prepared over only those items reports
// with its ids mapped back.  The mask is the union of several users'
// unmasked top k, so their rows must come wholly from outside it.  Every
// third item keeps a fifth of its factors, so hybrid splits the catalog
// into both partitions and sindi's posting lists differ in length.  No
// solver's score for an item depends on the other items (LEMP and
// FEXIPRO rescore with one Dot, MAXIMUS keeps its clustering of the
// same users, hybrid places each item by its own density), so every
// comparison is exact.  An empty mask gives the unmasked bits, and a
// mask of every item gives sentinel rows.
TEST(SolverContractTest, MaskedRowsAreNeverOffered) {
  const Index n = 700;
  const Index f = 24;
  MFModel model = MakeTestModel(300, n, f, 7, /*norm_sigma=*/0.8);
  for (Index i = 0; i < n; i += 3) {
    for (Index c = 0; c < f; ++c) {
      if (c % 5 != i % 5) model.items(i, c) = 0;
    }
  }
  std::vector<Index> users;
  for (Index u = 0; u < 40; ++u) users.push_back(u * 300 / 40);
  const std::vector<Index> sources = {0, 75, 150, 225};
  const Matrix vectors = testing::RandomMatrix(6, f, 3);
  const QueryRows fresh{vectors.data(), nullptr, vectors.rows()};
  std::vector<Index> every(static_cast<std::size_t>(n));
  std::iota(every.begin(), every.end(), 0);

  std::vector<std::string> specs = RegisteredSolverNames();
  specs.push_back("lemp:forced_algorithm=2");
  for (const std::string& spec : specs) {
    auto created = CreateSolverFromSpec(spec);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    MipsSolver& solver = **created;
    ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
    for (const Index k : {1, 10, 16, 17}) {
      SCOPED_TRACE(::testing::Message() << spec << " k=" << k);
      TopKResult unmasked;
      ASSERT_TRUE(solver.TopKForUsers(k, sources, &unmasked).ok());
      std::vector<Index> masked;
      for (Index q = 0; q < unmasked.num_queries(); ++q) {
        for (Index e = 0; e < k; ++e) masked.push_back(unmasked.Row(q)[e].item);
      }
      std::sort(masked.begin(), masked.end());
      masked.erase(std::unique(masked.begin(), masked.end()), masked.end());
      const ItemMask mask{masked.data(), static_cast<Index>(masked.size()), 0};
      std::vector<Index> kept;
      for (Index i = 0; i < n; ++i) {
        if (!std::binary_search(masked.begin(), masked.end(), i)) {
          kept.push_back(i);
        }
      }
      const Matrix kept_items = GatherRows(ConstRowBlock(model.items), kept);
      auto reduced = CreateSolverFromSpec(spec);
      ASSERT_TRUE(reduced.ok());
      ASSERT_TRUE((*reduced)->Prepare(ConstRowBlock(model.users),
                                      ConstRowBlock(kept_items)).ok());
      const QueryRows known{model.users.data(), users.data(),
                            static_cast<Index>(users.size())};
      for (const QueryRows& rows : {known, fresh}) {
        TopKResult got, want;
        ASSERT_TRUE(solver.TopK(k, rows, mask, &got).ok());
        ASSERT_TRUE((*reduced)->TopK(k, rows, {}, &want).ok());
        for (Index q = 0; q < want.num_queries(); ++q) {
          for (Index e = 0; e < k; ++e) {
            TopKEntry& entry = want.Row(q)[e];
            if (entry.item >= 0) {
              entry.item = kept[static_cast<std::size_t>(entry.item)];
            }
            EXPECT_FALSE(mask.Contains(got.Row(q)[e].item));
          }
        }
        ExpectBitIdenticalTopK(got, want);
      }

      TopKResult got;
      const ItemMask none{masked.data(), 0, 0};
      ASSERT_TRUE(solver.TopK(k, known, none, &got).ok());
      TopKResult want;
      ASSERT_TRUE(solver.TopKForUsers(k, users, &want).ok());
      ExpectBitIdenticalTopK(got, want);

      const ItemMask all{every.data(), n, 0};
      for (const QueryRows& rows : {known, fresh}) {
        ASSERT_TRUE(solver.TopK(k, rows, all, &got).ok());
        for (Index q = 0; q < got.num_queries(); ++q) {
          for (Index e = 0; e < k; ++e) {
            EXPECT_EQ(got.Row(q)[e].item, -1);
            EXPECT_EQ(got.Row(q)[e].score,
                      -std::numeric_limits<Real>::infinity());
          }
        }
      }
    }
    // A mask that is not ascending rows of the prepared items is refused.
    const std::vector<Index> bad = {3, 3};
    const std::vector<Index> out_of_range = {n};
    TopKResult out;
    EXPECT_EQ(solver.TopK(1, fresh, {bad.data(), 2, 0}, &out).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(solver.TopK(1, fresh, {out_of_range.data(), 1, 0}, &out).code(),
              StatusCode::kInvalidArgument);
  }
}

// A new-user call walks the item-side indexes: on a norm-skewed model
// LEMP's buckets and FEXIPRO's bound cascade prune part of the catalog,
// and sindi walks its posting lists.
TEST(SolverContractTest, NewUserCallsWalkTheIndexes) {
  const MFModel model = MakeTestModel(300, 700, 24, 7, /*norm_sigma=*/0.8);
  const Matrix vectors = testing::RandomMatrix(64, 24, 5);
  TopKResult out;

  LempSolver lemp;
  ASSERT_TRUE(lemp.Prepare(ConstRowBlock(model.users),
                           ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(lemp.TopKNewUsers(vectors.data(), 64, 10, &out).ok());
  EXPECT_GT(lemp.last_scan_fraction(), 0.0);
  EXPECT_LT(lemp.last_scan_fraction(), 1.0);

  for (const bool reduction : {false, true}) {
    FexiproOptions options;
    options.use_reduction = reduction;
    FexiproSolver fexipro(options);
    ASSERT_TRUE(fexipro.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
    ASSERT_TRUE(fexipro.TopKNewUsers(vectors.data(), 64, 10, &out).ok());
    EXPECT_GT(fexipro.last_exact_fraction(), 0.0) << fexipro.name();
    EXPECT_LT(fexipro.last_exact_fraction(), 1.0) << fexipro.name();
  }

  SindiSolver sindi(PostingOrder::kAbsDescending);
  ASSERT_TRUE(sindi.Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(sindi.TopKNewUsers(vectors.data(), 64, 10, &out).ok());
  EXPECT_GT(sindi.query_stats().postings_visited, 0);
}

TEST(SolverInterfaceTest, NamesAndBatchingFlags) {
  NaiveSolver naive;
  BmmSolver bmm;
  EXPECT_EQ(naive.name(), "naive");
  EXPECT_EQ(bmm.name(), "bmm");
  EXPECT_FALSE(naive.batches_users());
  EXPECT_TRUE(bmm.batches_users());
}

}  // namespace
}  // namespace mips
