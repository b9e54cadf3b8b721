// Sparse & hybrid MIPS tests: CsrMatrix construction/validation, the
// inverted-index posting orders, and — the load-bearing part — the
// bit-for-bit differential contract: sindi (both posting orders) and
// hybrid must reproduce the dense BMM reference EXACTLY, scores and tie
// order included, at every density, sharded or not.  Exactness here is
// ASSERT_EQ on doubles, deliberately: the sparse walks replicate the
// blocked GEMM's per-K-panel fma fold (sparse/csr_matrix.h), so any ulp
// of divergence is a bug, not tolerance noise.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/optimus.h"
#include "linalg/gemm.h"
#include "shard/sharded_engine.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"
#include "sparse/csr_matrix.h"
#include "sparse/hybrid.h"
#include "sparse/inverted_index.h"
#include "sparse/sindi.h"
#include "counting_new.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::MakeTestModel;

// Synthetic model with a sparsified item catalog (see data/synthetic.h:
// density = 1 leaves the matrices bitwise identical to the dense
// generator; dense_fraction keeps a random head of rows fully dense).
MFModel MakeSparseModel(Index users, Index items, Index f, Real density,
                        Real dense_fraction = 0, uint64_t seed = 7) {
  SyntheticModelConfig config;
  config.num_users = users;
  config.num_items = items;
  config.num_factors = f;
  config.seed = seed;
  config.item_density = density;
  config.dense_item_fraction = dense_fraction;
  config.user_modes = std::max<Index>(2, users / 16);
  auto model = GenerateSyntheticModel(config);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

// Bit-for-bit top-K equality: item ids AND score doubles must be
// identical (padding sentinels are {-1, -inf} and compare equal).
void ExpectBitIdentical(const TopKResult& got, const TopKResult& want) {
  ASSERT_EQ(got.num_queries(), want.num_queries());
  ASSERT_EQ(got.k(), want.k());
  for (Index q = 0; q < got.num_queries(); ++q) {
    for (Index e = 0; e < got.k(); ++e) {
      ASSERT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
          << "row " << q << " entry " << e;
      ASSERT_EQ(got.Row(q)[e].score, want.Row(q)[e].score)
          << "row " << q << " entry " << e
          << " item " << got.Row(q)[e].item;
    }
  }
}

TopKResult BmmReference(const MFModel& model, Index k) {
  BmmSolver reference;
  EXPECT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  EXPECT_TRUE(reference.TopKAll(k, &expected).ok());
  return expected;
}

// ---------------------------------------------------------------------
// CsrMatrix
// ---------------------------------------------------------------------

TEST(CsrMatrixTest, FromDenseCompressesExactZeros) {
  Matrix dense(4, 6);
  std::memset(dense.data(), 0, dense.size() * sizeof(Real));
  dense.Row(0)[1] = 2.5;
  dense.Row(0)[4] = -1.0;
  // Row 1 stays all-zero: an empty CSR row, not a dropped row.
  dense.Row(2)[0] = 0.5;
  dense.Row(2)[5] = 3.0;
  dense.Row(3)[3] = -0.25;

  const CsrMatrix csr = CsrMatrix::FromDense(ConstRowBlock(dense));
  EXPECT_EQ(csr.rows(), 4);
  EXPECT_EQ(csr.cols(), 6);
  EXPECT_EQ(csr.nnz(), 5);
  EXPECT_EQ(csr.RowNnz(1), 0);
  ASSERT_EQ(csr.RowNnz(0), 2);
  EXPECT_EQ(csr.RowCols(0)[0], 1);
  EXPECT_EQ(csr.RowCols(0)[1], 4);
  EXPECT_EQ(csr.RowValues(0)[0], 2.5);
  EXPECT_EQ(csr.RowValues(0)[1], -1.0);
  EXPECT_NEAR(csr.density(), 5.0 / 24.0, 1e-12);

  const CsrMatrix::Stats stats = csr.ComputeStats();
  EXPECT_EQ(stats.rows, 4);
  EXPECT_EQ(stats.cols, 6);
  EXPECT_EQ(stats.nnz, 5);
  EXPECT_EQ(stats.min_row_nnz, 0);
  EXPECT_EQ(stats.max_row_nnz, 2);
  EXPECT_NEAR(stats.mean_row_nnz, 1.25, 1e-12);

  ASSERT_EQ(csr.row_norms().size(), 4u);
  EXPECT_EQ(csr.row_norms()[1], 0.0);
  EXPECT_NEAR(csr.row_norms()[0], std::sqrt(2.5 * 2.5 + 1.0), 1e-12);
}

TEST(CsrMatrixTest, FromDenseRowsGathersSubset) {
  const MFModel model = MakeSparseModel(4, 20, 16, 0.3);
  const std::vector<Index> rows = {1, 5, 6, 19};
  const CsrMatrix sub =
      CsrMatrix::FromDenseRows(ConstRowBlock(model.items), rows);
  const CsrMatrix full = CsrMatrix::FromDense(ConstRowBlock(model.items));
  ASSERT_EQ(sub.rows(), 4);
  EXPECT_EQ(sub.cols(), full.cols());
  for (Index r = 0; r < sub.rows(); ++r) {
    const Index src = rows[static_cast<std::size_t>(r)];
    ASSERT_EQ(sub.RowNnz(r), full.RowNnz(src));
    for (Index i = 0; i < sub.RowNnz(r); ++i) {
      EXPECT_EQ(sub.RowCols(r)[static_cast<std::size_t>(i)],
                full.RowCols(src)[static_cast<std::size_t>(i)]);
      EXPECT_EQ(sub.RowValues(r)[static_cast<std::size_t>(i)],
                full.RowValues(src)[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(CsrMatrixTest, FromTriplesAnyOrderMatchesFromDense) {
  Matrix dense(3, 5);
  std::memset(dense.data(), 0, dense.size() * sizeof(Real));
  dense.Row(0)[2] = 1.5;
  dense.Row(1)[0] = -2.0;
  dense.Row(1)[4] = 0.75;
  dense.Row(2)[1] = 4.0;
  // Deliberately shuffled triples, plus an exact zero that must drop.
  const std::vector<SparseTriple> triples = {
      {2, 1, 4.0}, {1, 4, 0.75}, {0, 2, 1.5}, {1, 0, -2.0}, {0, 3, 0.0}};
  auto csr = CsrMatrix::FromTriples(3, 5, triples);
  ASSERT_TRUE(csr.ok()) << csr.status().ToString();
  const CsrMatrix want = CsrMatrix::FromDense(ConstRowBlock(dense));
  ASSERT_EQ(csr->nnz(), want.nnz());
  for (Index r = 0; r < 3; ++r) {
    ASSERT_EQ(csr->RowNnz(r), want.RowNnz(r)) << "row " << r;
    for (Index i = 0; i < csr->RowNnz(r); ++i) {
      EXPECT_EQ(csr->RowCols(r)[static_cast<std::size_t>(i)],
                want.RowCols(r)[static_cast<std::size_t>(i)]);
      EXPECT_EQ(csr->RowValues(r)[static_cast<std::size_t>(i)],
                want.RowValues(r)[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(CsrMatrixTest, FromTriplesValidates) {
  EXPECT_FALSE(CsrMatrix::FromTriples(-1, 5, {}).ok());
  EXPECT_FALSE(
      CsrMatrix::FromTriples(2, 2, std::vector<SparseTriple>{{2, 0, 1.0}})
          .ok());  // row out of range
  EXPECT_FALSE(
      CsrMatrix::FromTriples(2, 2, std::vector<SparseTriple>{{0, -1, 1.0}})
          .ok());  // col out of range
  EXPECT_FALSE(CsrMatrix::FromTriples(
                   2, 2, std::vector<SparseTriple>{{0, 1, 1.0}, {0, 1, 2.0}})
                   .ok());  // duplicate coordinate
  auto empty = CsrMatrix::FromTriples(0, 0, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->nnz(), 0);
}

TEST(CsrMatrixTest, GemmEquivalentDotMatchesBlockedGemm) {
  // f = 300 > kGemmKPanel so the walk crosses a panel boundary, which is
  // where the fold order could diverge if it were wrong.
  static_assert(kGemmKPanel == 256, "fixture sized to cross one panel");
  const MFModel model = MakeSparseModel(6, 40, 300, 0.15);
  const CsrMatrix csr = CsrMatrix::FromDense(ConstRowBlock(model.items));
  Matrix scores(model.num_users(), model.num_items());
  GemmNT(ConstRowBlock(model.users), ConstRowBlock(model.items), &scores);
  for (Index u = 0; u < model.num_users(); ++u) {
    for (Index i = 0; i < model.num_items(); ++i) {
      ASSERT_EQ(csr.GemmEquivalentDot(i, model.users.Row(u)),
                scores.Row(u)[i])
          << "user " << u << " item " << i;
    }
  }
}

// ---------------------------------------------------------------------
// InvertedIndex
// ---------------------------------------------------------------------

TEST(InvertedIndexTest, PostingOrders) {
  Matrix dense(4, 3);
  std::memset(dense.data(), 0, dense.size() * sizeof(Real));
  dense.Row(0)[0] = 1.0;
  dense.Row(1)[0] = -3.0;
  dense.Row(2)[0] = 2.0;
  dense.Row(3)[0] = -1.0;  // |value| ties row 0: item order breaks it
  dense.Row(1)[2] = 0.5;
  // Dimension 1 has no nonzeros at all.
  const CsrMatrix csr = CsrMatrix::FromDense(ConstRowBlock(dense));

  const InvertedIndex abs_index =
      InvertedIndex::Build(csr, PostingOrder::kAbsDescending);
  ASSERT_EQ(abs_index.dims(), 3);
  EXPECT_EQ(abs_index.items(), 4);
  const std::span<const Posting> d0 = abs_index.Dim(0);
  ASSERT_EQ(d0.size(), 4u);
  EXPECT_EQ(d0[0].item, 1);  // |-3|
  EXPECT_EQ(d0[1].item, 2);  // |2|
  EXPECT_EQ(d0[2].item, 0);  // |1| tie: lower item first
  EXPECT_EQ(d0[3].item, 3);  // |-1|
  EXPECT_EQ(abs_index.MaxAbs(0), 3.0);
  EXPECT_TRUE(abs_index.Dim(1).empty());
  EXPECT_EQ(abs_index.MaxAbs(1), 0.0);

  const InvertedIndex id_index =
      InvertedIndex::Build(csr, PostingOrder::kItemAscending);
  const std::span<const Posting> i0 = id_index.Dim(0);
  ASSERT_EQ(i0.size(), 4u);
  for (std::size_t p = 1; p < i0.size(); ++p) {
    EXPECT_LT(i0[p - 1].item, i0[p].item);
  }
}

// ---------------------------------------------------------------------
// sindi: bit-for-bit differential vs dense BMM
// ---------------------------------------------------------------------

TEST(SindiDifferentialTest, BitForBitAcrossDensitiesOrdersAndK) {
  // f = 300 crosses a K-panel boundary; density 1.0 checks the walks on
  // a fully dense catalog (no sparsity advantage, same bits).
  for (const Real density : {0.01, 0.1, 0.5, 1.0}) {
    const MFModel model = MakeSparseModel(24, 160, 300, density);
    for (const Index k : {Index{1}, Index{10}}) {
      const TopKResult expected = BmmReference(model, k);
      for (const std::string spec :
           {"sindi:postings=abs", "sindi:postings=id"}) {
        SCOPED_TRACE(::testing::Message() << spec << " density=" << density
                                          << " k=" << k);
        auto solver = CreateSolverFromSpec(spec);
        ASSERT_TRUE(solver.ok()) << solver.status().ToString();
        ASSERT_TRUE((*solver)
                        ->Prepare(ConstRowBlock(model.users),
                                  ConstRowBlock(model.items))
                        .ok());
        TopKResult got;
        ASSERT_TRUE((*solver)->TopKAll(k, &got).ok());
        ExpectBitIdentical(got, expected);
      }
    }
  }
}

TEST(SindiDifferentialTest, ExactTiesResolveToSameItems) {
  // Duplicate item rows produce EXACT score ties; the walks must report
  // the same (lowest-id-first) winners the dense reference does.
  MFModel model = MakeSparseModel(16, 64, 48, 0.2);
  for (const Index dup : {Index{10}, Index{40}, Index{63}}) {
    std::memcpy(model.items.Row(dup), model.items.Row(3),
                static_cast<std::size_t>(model.num_factors()) * sizeof(Real));
  }
  const TopKResult expected = BmmReference(model, 8);
  for (const std::string spec : {"sindi:postings=abs", "sindi:postings=id"}) {
    SCOPED_TRACE(spec);
    auto solver = CreateSolverFromSpec(spec);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)
                    ->Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items))
                    .ok());
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(8, &got).ok());
    ExpectBitIdentical(got, expected);
  }
}

TEST(SindiDifferentialTest, ZeroOverlapItemsAndPadding) {
  // One nonzero per item row and k > items: the heap never fills, the
  // zero-overlap sweep must surface the +0.0-scoring items in id order,
  // and the tail must pad with {-1, -inf} — all exactly like BMM.
  const MFModel model = MakeSparseModel(12, 8, 40, 0.01);
  const Index k = 12;
  const TopKResult expected = BmmReference(model, k);
  for (const std::string spec : {"sindi:postings=abs", "sindi:postings=id"}) {
    SCOPED_TRACE(spec);
    auto solver = CreateSolverFromSpec(spec);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)
                    ->Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items))
                    .ok());
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(k, &got).ok());
    ExpectBitIdentical(got, expected);
  }
}

TEST(SindiDifferentialTest, ShardedMatchesUnshardedBitForBit) {
  const MFModel model = MakeSparseModel(48, 300, 96, 0.1);
  const Index k = 10;
  const TopKResult expected = BmmReference(model, k);

  ShardedEngineOptions options;
  options.num_shards = 3;
  options.threads = 2;  // concurrent per-shard walks; same bits
  options.engine.k = k;
  options.engine.solvers = {"sindi"};
  auto sharded = ShardedMipsEngine::Open(ConstRowBlock(model.users),
                                         ConstRowBlock(model.items), options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::vector<Index> users = AllUsers(model.num_users());
  TopKResult got;
  ASSERT_TRUE((*sharded)->TopK(k, users, &got).ok());
  ExpectBitIdentical(got, expected);
}

TEST(SindiSolverTest, ExposesCatalogAndQueryStats) {
  const MFModel model = MakeSparseModel(16, 128, 64, 0.1);
  SindiSolver solver(PostingOrder::kAbsDescending);
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  const CsrMatrix::Stats want =
      CsrMatrix::FromDense(ConstRowBlock(model.items)).ComputeStats();
  EXPECT_EQ(solver.catalog_stats().nnz, want.nnz);
  EXPECT_EQ(solver.catalog_stats().rows, want.rows);
  TopKResult out;
  ASSERT_TRUE(solver.TopKAll(5, &out).ok());
  EXPECT_GT(solver.query_stats().postings_visited, 0);
  EXPECT_GT(solver.query_stats().items_rescored, 0);
}

// ---------------------------------------------------------------------
// hybrid: density split + exact merge
// ---------------------------------------------------------------------

TEST(HybridTest, SplitsMixedCatalogAndMatchesBmmBitForBit) {
  // 30% dense head + very sparse tail: both partitions non-empty.
  const MFModel model = MakeSparseModel(24, 200, 96, 0.05, 0.3);
  HybridSolver solver(/*density_threshold=*/0.25,
                      PostingOrder::kAbsDescending);
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  EXPECT_GT(solver.dense_items(), 0);
  EXPECT_GT(solver.sparse_items(), 0);
  EXPECT_EQ(solver.dense_items() + solver.sparse_items(), model.num_items());
  for (const Index k : {Index{1}, Index{10}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k);
    const TopKResult expected = BmmReference(model, k);
    TopKResult got;
    ASSERT_TRUE(solver.TopKForUsers(k, AllUsers(model.num_users()), &got)
                    .ok());
    ExpectBitIdentical(got, expected);
  }
}

TEST(HybridTest, DegeneratePartitionsStayExact) {
  const MFModel dense_model = MakeSparseModel(12, 80, 64, 1.0);
  {
    // Every row at density 1 >= 0.25: the sparse partition is empty.
    HybridSolver solver(0.25, PostingOrder::kAbsDescending);
    ASSERT_TRUE(solver.Prepare(ConstRowBlock(dense_model.users),
                               ConstRowBlock(dense_model.items)).ok());
    EXPECT_EQ(solver.sparse_items(), 0);
    TopKResult got;
    ASSERT_TRUE(
        solver.TopKForUsers(7, AllUsers(dense_model.num_users()), &got).ok());
    ExpectBitIdentical(got, BmmReference(dense_model, 7));
  }
  {
    // Threshold above 1: every row lands in the sparse partition.
    HybridSolver solver(1.5, PostingOrder::kItemAscending);
    ASSERT_TRUE(solver.Prepare(ConstRowBlock(dense_model.users),
                               ConstRowBlock(dense_model.items)).ok());
    EXPECT_EQ(solver.dense_items(), 0);
    TopKResult got;
    ASSERT_TRUE(
        solver.TopKForUsers(7, AllUsers(dense_model.num_users()), &got).ok());
    ExpectBitIdentical(got, BmmReference(dense_model, 7));
  }
}

TEST(HybridTest, BytesBeyondTheOutputStayBoundedPastOneRowBlock) {
  // Each result row takes the dense top-k and is merged with the sparse
  // row through k-entry rows, and the dense scorer holds one row block's
  // heaps at a time, so 8,000 users allocate little beyond their output
  // (a dense-row copy of it alone would be 1.28 MB).  Counts every byte
  // requested during the call.
  const Index num_users = 8000;
  const Index k = 10;
  const MFModel model = MakeSparseModel(num_users, 200, 16, 0.05, 0.3);
  HybridSolver solver(0.25, PostingOrder::kAbsDescending);
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  ASSERT_GT(solver.dense_items(), 0);
  ASSERT_GT(solver.sparse_items(), 0);
  const std::vector<Index> users = AllUsers(num_users);
  TopKResult got;
  std::size_t bytes = 0;
  {
    testing::AllocationCounter counter;
    ASSERT_TRUE(solver.TopKForUsers(k, users, &got).ok());
    bytes = counter.bytes();
  }
  const std::size_t output = static_cast<std::size_t>(num_users) *
                             static_cast<std::size_t>(k) * sizeof(TopKEntry);
  ASSERT_GE(bytes, output);
  EXPECT_LT(bytes - output, std::size_t{1} << 20);
  ExpectBitIdentical(got, BmmReference(model, k));
}

// ---------------------------------------------------------------------
// Registry specs
// ---------------------------------------------------------------------

TEST(SparseRegistryTest, SpecsRoundTrip) {
  const std::vector<std::string> available = RegisteredSolverNames();
  EXPECT_NE(std::find(available.begin(), available.end(), "sindi"),
            available.end());
  EXPECT_NE(std::find(available.begin(), available.end(), "hybrid"),
            available.end());

  auto abs_solver = CreateSolverFromSpec("sindi");
  ASSERT_TRUE(abs_solver.ok());
  EXPECT_EQ((*abs_solver)->name(), "sindi");
  EXPECT_EQ((*abs_solver)->representation(), "sparse");
  EXPECT_FALSE((*abs_solver)->batches_users());

  auto id_solver = CreateSolverFromSpec("sindi:postings=id");
  ASSERT_TRUE(id_solver.ok());
  EXPECT_EQ((*id_solver)->name(), "sindi-id");

  // A bad posting order is refused with the solver and the value named.
  const auto bogus = CreateSolverFromSpec("sindi:postings=bogus");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(bogus.status().message().find("sindi: postings"),
            std::string::npos);
  EXPECT_NE(bogus.status().message().find("\"bogus\""), std::string::npos);

  auto hybrid =
      CreateSolverFromSpec("hybrid:density_threshold=0.5,postings=id");
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ((*hybrid)->name(), "hybrid");
  EXPECT_EQ((*hybrid)->representation(), "hybrid");
  EXPECT_TRUE((*hybrid)->batches_users());

  EXPECT_FALSE(CreateSolverFromSpec("hybrid:density_threshold=-1").ok());
  const auto sideways = CreateSolverFromSpec("hybrid:postings=sideways");
  ASSERT_FALSE(sideways.ok());
  EXPECT_NE(sideways.status().message().find("hybrid: postings"),
            std::string::npos);
  EXPECT_NE(sideways.status().message().find("\"sideways\""),
            std::string::npos);
}

// ---------------------------------------------------------------------
// OPTIMUS / engine representation attribution
// ---------------------------------------------------------------------

TEST(SparseOptimusTest, ReportAttributesRepresentations) {
  // Mechanical attribution — no wall-clock winner asserted, so this runs
  // under sanitizers too: every estimate carries its strategy's
  // representation and measured sample timings, and the report's
  // representation is the winner's.
  const MFModel model = MakeSparseModel(96, 256, 64, 0.1);
  BmmSolver bmm;
  SindiSolver sindi(PostingOrder::kAbsDescending);
  ASSERT_TRUE(
      bmm.Prepare(ConstRowBlock(model.users), ConstRowBlock(model.items))
          .ok());
  ASSERT_TRUE(
      sindi.Prepare(ConstRowBlock(model.users), ConstRowBlock(model.items))
          .ok());
  Optimus optimus;
  std::size_t winner = 0;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Decide(ConstRowBlock(model.users),
                          ConstRowBlock(model.items), 10, {&bmm, &sindi},
                          &winner, &report)
                  .ok());
  ASSERT_EQ(report.estimates.size(), 2u);
  EXPECT_EQ(report.estimates[0].representation, "dense");
  EXPECT_EQ(report.estimates[1].representation, "sparse");
  for (const StrategyEstimate& est : report.estimates) {
    EXPECT_GT(est.measured_users, 0) << est.name;
    EXPECT_GT(est.sampling_seconds, 0) << est.name;
  }
  EXPECT_EQ(report.chosen, report.estimates[winner].name);
  EXPECT_EQ(report.representation, report.estimates[winner].representation);
  EXPECT_EQ(report.representation, winner == 0 ? "dense" : "sparse");
}

TEST(SparseOptimusTest, SparseWinningWorkloadIsAttributedSparse) {
  if (testing::kSanitizerSkewsWallClock) {
    GTEST_SKIP() << "wall-clock winner assertion; sanitizer skews timings";
  }
  // ~1 nonzero per 1,024-dim item row: the inverted-index walk touches
  // three orders of magnitude fewer coordinates than the dense GEMM, so
  // the sampling decision lands on sindi with a wide margin (about 3x in
  // sampled per-user cost; at 128 dims the panelled BMM outran sindi).
  const MFModel model = MakeSparseModel(256, 4096, 1024, 0.00125);
  EngineOptions options;
  options.k = 10;
  options.solvers = {"bmm", "sindi"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const OptimusReport& report = (*engine)->decision_report();
  EXPECT_EQ(report.chosen, "sindi");
  EXPECT_EQ(report.representation, "sparse");
  ASSERT_EQ(report.estimates.size(), 2u);
  for (const StrategyEstimate& est : report.estimates) {
    EXPECT_GT(est.measured_users, 0) << est.name;
    EXPECT_GT(est.sampling_seconds, 0) << est.name;
  }
  EXPECT_EQ((*engine)->stats().representation, "sparse");
}

TEST(SparseEngineTest, StatsTrackForcedRepresentation) {
  const MFModel model = MakeSparseModel(48, 160, 64, 0.1);
  EngineOptions options;
  options.k = 5;
  options.solvers = {"bmm", "sindi", "hybrid"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->stats().representation,
            (*engine)->decision_report().representation);
  ASSERT_TRUE((*engine)->ForceStrategy("sindi").ok());
  EXPECT_EQ((*engine)->stats().representation, "sparse");
  ASSERT_TRUE((*engine)->ForceStrategy("hybrid").ok());
  EXPECT_EQ((*engine)->stats().representation, "hybrid");
  ASSERT_TRUE((*engine)->ForceStrategy("bmm").ok());
  EXPECT_EQ((*engine)->stats().representation, "dense");
  (*engine)->ClearForcedStrategy();
  EXPECT_EQ((*engine)->stats().representation,
            (*engine)->decision_report().representation);

  // Whatever OPTIMUS picked, the served answers are the dense bits.
  TopKResult got;
  ASSERT_TRUE((*engine)->TopKAll(5, &got).ok());
  ExpectBitIdentical(got, BmmReference(model, 5));
}

}  // namespace
}  // namespace mips
