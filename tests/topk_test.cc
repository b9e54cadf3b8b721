// Unit and property tests for src/topk: the bounded heap and block
// extraction, validated against a sort-based reference across a
// parameterized (n, k) sweep; the SIMD selection kernel under every
// supported variant against the scalar loops it replaced; and the
// score-and-select panels against a whole-block GEMM.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/simd_dispatch.h"
#include "topk/merge.h"
#include "topk/score_select.h"
#include "topk/topk_block.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

// Reference top-K by full sort with the library's tie order.
std::vector<TopKEntry> ReferenceTopK(const std::vector<Real>& scores,
                                     Index k) {
  std::vector<TopKEntry> all(scores.size());
  for (std::size_t i = 0; i < scores.size(); ++i) {
    all[i] = {static_cast<Index>(i), scores[i]};
  }
  std::sort(all.begin(), all.end(), [](const TopKEntry& a, const TopKEntry& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.item < b.item;
  });
  std::vector<TopKEntry> out(static_cast<std::size_t>(k));
  for (Index e = 0; e < k; ++e) {
    out[static_cast<std::size_t>(e)] =
        e < static_cast<Index>(all.size())
            ? all[static_cast<std::size_t>(e)]
            : TopKEntry{-1, -std::numeric_limits<Real>::infinity()};
  }
  return out;
}

TEST(TopKHeapTest, EmptyHeapAcceptsEverything) {
  TopKHeap heap(3);
  EXPECT_FALSE(heap.full());
  EXPECT_EQ(heap.MinScore(), -std::numeric_limits<Real>::infinity());
  EXPECT_TRUE(heap.WouldAccept(-1e300));
}

TEST(TopKHeapTest, TracksMinimumWhenFull) {
  TopKHeap heap(2);
  heap.Push(0, 5.0);
  heap.Push(1, 3.0);
  EXPECT_TRUE(heap.full());
  EXPECT_DOUBLE_EQ(heap.MinScore(), 3.0);
  // A tie with the minimum may still enter (Push tie-breaks by item id),
  // so WouldAccept cannot reject it.
  EXPECT_TRUE(heap.WouldAccept(3.0));
  EXPECT_FALSE(heap.WouldAccept(2.5));
  EXPECT_TRUE(heap.WouldAccept(3.5));
  heap.Push(2, 4.0);
  EXPECT_DOUBLE_EQ(heap.MinScore(), 4.0);
}

TEST(TopKHeapTest, RejectsNonImproving) {
  TopKHeap heap(1);
  EXPECT_TRUE(heap.Push(5, 1.0));
  EXPECT_FALSE(heap.Push(1, 0.5));
  EXPECT_FALSE(heap.Push(7, 1.0));  // tie with higher id does not replace
  EXPECT_TRUE(heap.Push(2, 1.0));   // tie with lower id replaces
  EXPECT_FALSE(heap.Push(2, 1.0));  // an entry never replaces itself
  EXPECT_TRUE(heap.Push(3, 2.0));
  TopKEntry out[1];
  heap.ExtractDescending(out);
  EXPECT_EQ(out[0].item, 3);
}

TEST(TopKHeapTest, ExtractSortsAndPads) {
  TopKHeap heap(4);
  heap.Push(7, 1.0);
  heap.Push(8, 3.0);
  TopKEntry out[4];
  heap.ExtractDescending(out);
  EXPECT_EQ(out[0].item, 8);
  EXPECT_EQ(out[1].item, 7);
  EXPECT_EQ(out[2].item, -1);
  EXPECT_EQ(out[3].item, -1);
  EXPECT_TRUE(std::isinf(out[2].score));
  EXPECT_EQ(heap.size(), 0);  // extraction empties the heap
}

TEST(TopKHeapTest, TieBreaksByItemId) {
  TopKHeap heap(3);
  heap.Push(9, 2.0);
  heap.Push(1, 2.0);
  heap.Push(5, 2.0);
  TopKEntry out[3];
  heap.ExtractDescending(out);
  EXPECT_EQ(out[0].item, 1);
  EXPECT_EQ(out[1].item, 5);
  EXPECT_EQ(out[2].item, 9);
}

TEST(TopKHeapTest, ClearResets) {
  TopKHeap heap(2);
  heap.Push(0, 1.0);
  heap.Push(1, 2.0);
  heap.Clear();
  EXPECT_FALSE(heap.full());
  EXPECT_EQ(heap.size(), 0);
}

class TopKPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TopKPropertyTest, HeapMatchesSortReference) {
  const auto [n, k, seed] = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Real> scores(static_cast<std::size_t>(n));
  for (auto& s : scores) s = rng.Normal();
  // Inject some duplicates to exercise tie handling.
  if (n >= 4) {
    scores[1] = scores[0];
    scores[static_cast<std::size_t>(n - 1)] = scores[static_cast<std::size_t>(n / 2)];
  }

  TopKHeap heap(k);
  for (Index i = 0; i < n; ++i) {
    heap.Push(i, scores[static_cast<std::size_t>(i)]);
  }
  std::vector<TopKEntry> got(static_cast<std::size_t>(k));
  heap.ExtractDescending(got.data());
  const std::vector<TopKEntry> expected = ReferenceTopK(scores, k);
  for (Index e = 0; e < k; ++e) {
    EXPECT_EQ(got[static_cast<std::size_t>(e)].item,
              expected[static_cast<std::size_t>(e)].item)
        << "n=" << n << " k=" << k << " entry " << e;
    EXPECT_EQ(got[static_cast<std::size_t>(e)].score,
              expected[static_cast<std::size_t>(e)].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 5, 16, 100, 1000),
                       ::testing::Values(1, 2, 5, 10, 50),
                       ::testing::Values(1, 2, 3)));

TEST(TopKFromRowTest, OffsetsItemIds) {
  const std::vector<Real> scores = {1.0, 9.0, 5.0};
  TopKEntry out[2];
  TopKFromRow(scores.data(), 3, 2, /*item_offset=*/100, nullptr, out);
  EXPECT_EQ(out[0].item, 101);
  EXPECT_EQ(out[1].item, 102);
}

TEST(TopKFromRowTest, RemapsThroughItemIds) {
  const std::vector<Real> scores = {1.0, 9.0, 5.0};
  const std::vector<Index> ids = {70, 80, 90};
  TopKEntry out[2];
  TopKFromRow(scores.data(), 3, 2, 0, ids.data(), out);
  EXPECT_EQ(out[0].item, 80);
  EXPECT_DOUBLE_EQ(out[0].score, 9.0);
  EXPECT_EQ(out[1].item, 90);
}

TEST(TopKFromScoreBlockTest, ReducesEveryRow) {
  const Index m = 7;
  const Index n = 23;
  const Index k = 4;
  Rng rng(99);
  Matrix scores(m, n);
  for (std::size_t i = 0; i < scores.size(); ++i) {
    scores.data()[i] = rng.Normal();
  }
  TopKResult result(m, k);
  TopKFromScoreBlock(scores.data(), m, n, n, k, 0, nullptr, &result, 0);
  for (Index r = 0; r < m; ++r) {
    std::vector<Real> row(scores.Row(r), scores.Row(r) + n);
    const auto expected = ReferenceTopK(row, k);
    for (Index e = 0; e < k; ++e) {
      EXPECT_EQ(result.Row(r)[e].item, expected[static_cast<std::size_t>(e)].item);
    }
  }
}

TEST(TopKFromScoreBlockTest, RespectsRowOffsetAndLds) {
  const Index n = 5;
  const Index lds = 8;  // padded leading dimension
  Matrix scores(2, lds);
  for (Index c = 0; c < n; ++c) {
    scores(0, c) = c;        // best item: 4
    scores(1, c) = -c;       // best item: 0
  }
  TopKResult result(4, 1);
  TopKFromScoreBlock(scores.data(), 2, n, lds, 1, 0, nullptr, &result,
                     /*row_offset=*/2);
  EXPECT_EQ(result.Row(2)[0].item, 4);
  EXPECT_EQ(result.Row(3)[0].item, 0);
}

constexpr Real kNegInf = -std::numeric_limits<Real>::infinity();

TEST(MergeTopKRowsTest, InterleavesSortedRows) {
  const TopKEntry a[3] = {{0, 9.0}, {2, 5.0}, {4, 1.0}};
  const TopKEntry b[3] = {{1, 8.0}, {3, 4.0}, {5, 2.0}};
  const TopKEntry* rows[] = {a, b};
  TopKEntry out[4];
  MergeTopKRows(rows, 3, 4, out);
  EXPECT_EQ(out[0].item, 0);
  EXPECT_EQ(out[1].item, 1);
  EXPECT_EQ(out[2].item, 2);
  EXPECT_EQ(out[3].item, 3);
}

TEST(MergeTopKRowsTest, TieBreaksByItemIdAcrossRows) {
  // Equal scores across shards must come out lower-id-first, regardless
  // of which row holds which id.
  const TopKEntry a[2] = {{7, 3.0}, {9, 3.0}};
  const TopKEntry b[2] = {{2, 3.0}, {8, 3.0}};
  const TopKEntry* rows[] = {a, b};
  TopKEntry out[3];
  MergeTopKRows(rows, 2, 3, out);
  EXPECT_EQ(out[0].item, 2);
  EXPECT_EQ(out[1].item, 7);
  EXPECT_EQ(out[2].item, 8);
}

TEST(MergeTopKRowsTest, SkipsSentinelsAndPads) {
  // Row a has one real entry (a small shard answered k=3 with padding);
  // row b is entirely padding (an empty-ish shard); row c is null (no
  // engine).  The merge must surface the real entries and pad the rest.
  const TopKEntry a[3] = {{4, 2.0}, {-1, kNegInf}, {-1, kNegInf}};
  const TopKEntry b[3] = {{-1, kNegInf}, {-1, kNegInf}, {-1, kNegInf}};
  const TopKEntry c[3] = {{6, 5.0}, {1, 2.0}, {-1, kNegInf}};
  const TopKEntry* rows[] = {a, b, nullptr, c};
  TopKEntry out[5];
  MergeTopKRows(rows, 3, 5, out);
  EXPECT_EQ(out[0].item, 6);
  EXPECT_EQ(out[1].item, 1);  // ties (2.0): lower id first
  EXPECT_EQ(out[2].item, 4);
  EXPECT_EQ(out[3].item, -1);
  EXPECT_EQ(out[4].item, -1);
  EXPECT_EQ(out[4].score, kNegInf);
}

class MergePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MergePropertyTest, ShardedMergeMatchesSingleHeap) {
  // Partition n scored items round-robin across S shards, take each
  // shard's top-k with a heap, merge — the result must equal the global
  // top-k from one heap over all items, including duplicate scores.
  const auto [n, num_shards, seed] = GetParam();
  const Index k = 7;
  Rng rng(static_cast<uint64_t>(seed));
  std::vector<Real> scores(static_cast<std::size_t>(n));
  for (auto& s : scores) s = rng.Normal();
  if (n >= 6) {
    scores[3] = scores[0];  // duplicates spanning shard boundaries
    scores[5] = scores[0];
    scores[static_cast<std::size_t>(n - 1)] = scores[1];
  }

  std::vector<std::vector<TopKEntry>> shard_rows(
      static_cast<std::size_t>(num_shards),
      std::vector<TopKEntry>(static_cast<std::size_t>(k)));
  std::vector<TopKHeap> heaps(static_cast<std::size_t>(num_shards),
                              TopKHeap(k));
  for (Index i = 0; i < n; ++i) {
    heaps[static_cast<std::size_t>(i % num_shards)].Push(
        i, scores[static_cast<std::size_t>(i)]);
  }
  std::vector<const TopKEntry*> rows;
  for (int s = 0; s < num_shards; ++s) {
    heaps[static_cast<std::size_t>(s)].ExtractDescending(
        shard_rows[static_cast<std::size_t>(s)].data());
    rows.push_back(shard_rows[static_cast<std::size_t>(s)].data());
  }
  std::vector<TopKEntry> merged(static_cast<std::size_t>(k));
  MergeTopKRows(rows, k, k, merged.data());

  const std::vector<TopKEntry> expected = ReferenceTopK(scores, k);
  for (Index e = 0; e < k; ++e) {
    EXPECT_EQ(merged[static_cast<std::size_t>(e)].item,
              expected[static_cast<std::size_t>(e)].item)
        << "n=" << n << " shards=" << num_shards << " entry " << e;
    EXPECT_EQ(merged[static_cast<std::size_t>(e)].score,
              expected[static_cast<std::size_t>(e)].score);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MergePropertyTest,
    ::testing::Combine(::testing::Values(1, 3, 8, 40, 500),
                       ::testing::Values(1, 2, 3, 7),
                       ::testing::Values(1, 2, 3)));

TEST(MergeTopKResultsTest, MergesEveryRow) {
  TopKResult a(2, 2);
  a.Row(0)[0] = {0, 5.0};
  a.Row(0)[1] = {1, 1.0};
  a.Row(1)[0] = {0, 2.0};
  a.Row(1)[1] = {1, 1.5};
  TopKResult b(2, 2);
  b.Row(0)[0] = {2, 4.0};
  b.Row(0)[1] = {3, 3.0};
  b.Row(1)[0] = {3, 9.0};
  b.Row(1)[1] = {2, kNegInf};
  const TopKResult* results[] = {&a, &b};
  TopKResult out;
  MergeTopKResults(results, 3, &out);
  ASSERT_EQ(out.num_queries(), 2);
  ASSERT_EQ(out.k(), 3);
  EXPECT_EQ(out.Row(0)[0].item, 0);
  EXPECT_EQ(out.Row(0)[1].item, 2);
  EXPECT_EQ(out.Row(0)[2].item, 3);
  EXPECT_EQ(out.Row(1)[0].item, 3);
  EXPECT_EQ(out.Row(1)[1].item, 0);
  EXPECT_EQ(out.Row(1)[2].item, 1);
}

TEST(TopKResultTest, CopyRowFrom) {
  TopKResult a(2, 2);
  a.Row(1)[0] = {5, 1.5};
  a.Row(1)[1] = {6, 0.5};
  TopKResult b(3, 2);
  b.CopyRowFrom(a, 1, 2);
  EXPECT_EQ(b.Row(2)[0].item, 5);
  EXPECT_DOUBLE_EQ(b.Row(2)[1].score, 0.5);
}

// ------------------------------------------------------ selection kernel

constexpr Real kInf = std::numeric_limits<Real>::infinity();

// The scalar loops SelectIntoHeap replaced, kept as its oracle.  Without
// bounds: TopKFromRow's WouldAccept/Push loop.  With bounds: MAXIMUS's
// segment loop, which stops before the first position whose bound is
// strictly below a full heap's minimum and pushes every position before
// it.  Returns the positions walked.
Index ScalarSelect(const Real* scores, Index n, const Real* bounds,
                   Index item_offset, const Index* item_ids, TopKHeap* heap) {
  const auto id = [&](Index j) {
    return item_ids != nullptr ? item_ids[j] : j + item_offset;
  };
  for (Index j = 0; j < n; ++j) {
    if (bounds == nullptr) {
      if (heap->WouldAccept(scores[j])) heap->Push(id(j), scores[j]);
      continue;
    }
    if (heap->full() && bounds[j] < heap->MinScore()) return j;
    heap->Push(id(j), scores[j]);
  }
  return n;
}

std::vector<TopKEntry> Drain(TopKHeap* heap) {
  std::vector<TopKEntry> out(static_cast<std::size_t>(heap->k()));
  heap->ExtractDescending(out.data());
  return out;
}

std::vector<Real> SortedDescending(std::vector<Real> v) {
  std::sort(v.begin(), v.end(), [](Real a, Real b) { return a > b; });
  return v;
}

// Rows that stress the lane arithmetic: exact ties straddling the 4- and
// 8-lane boundaries (positions 7/8, 15/16, 31/32), rows shorter than one
// vector, all-equal rows, coarse rows tied everywhere, and +-inf scores.
std::vector<std::vector<Real>> SelectRows() {
  std::vector<std::vector<Real>> rows;
  Rng rng(11);
  for (const Index n : {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 64,
                        100, 257, 1000}) {
    const auto size = static_cast<std::size_t>(n);
    std::vector<Real> random(size);
    for (Real& v : random) v = rng.Normal();
    for (const std::size_t lane : {8u, 16u, 32u}) {
      if (size > lane) random[lane] = random[lane - 1];
    }
    rows.push_back(random);
    std::vector<Real> coarse(size);
    for (Real& v : coarse) v = std::floor(rng.Normal() * 2);
    rows.push_back(coarse);
    rows.emplace_back(size, 0.5);
    std::vector<Real> infinite = random;
    infinite[rng.UniformInt(size)] = kInf;
    infinite[rng.UniformInt(size)] = -kInf;
    infinite[size - 1] = -kInf;
    if (size > 8) infinite[8] = kInf;
    rows.push_back(infinite);
    rows.push_back(SortedDescending(random));
  }
  return rows;
}

// Sorted-descending bound lists for one row: the row's own sorted scores
// (so bounds keep landing exactly on the heap minimum), those bounds
// against the row sorted the same way (bound == score at every position),
// looser bounds, and bounds that fall to -inf.
std::vector<std::vector<Real>> BoundLists(const std::vector<Real>& row) {
  std::vector<Real> looser = row;
  for (Real& v : looser) v += 0.25;
  std::vector<Real> falling = SortedDescending(row);
  falling.back() = -kInf;
  return {SortedDescending(row), SortedDescending(looser), falling};
}

class SelectKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGemmKernelForTest(); }

  static std::vector<GemmKernel> SupportedKernels() {
    std::vector<GemmKernel> kernels;
    for (int v = 0; v < kNumGemmKernels; ++v) {
      if (GemmKernelSupported(static_cast<GemmKernel>(v))) {
        kernels.push_back(static_cast<GemmKernel>(v));
      }
    }
    return kernels;
  }
};

// One selection under the installed kernel against the scalar oracle:
// same heap contents, bit for bit, and the same walked count.
void ExpectSelectMatchesScalar(const std::vector<Real>& row,
                               const std::vector<Real>* bounds, Index k,
                               const Index* item_ids) {
  const auto n = static_cast<Index>(row.size());
  const Real* b = bounds != nullptr ? bounds->data() : nullptr;
  TopKHeap want_heap(k);
  const Index want_walked = ScalarSelect(row.data(), n, b, 100, item_ids,
                                         &want_heap);
  TopKHeap got_heap(k);
  const Index got_walked = SelectIntoHeap(row.data(), n, b, 100, item_ids,
                                          &got_heap);
  EXPECT_EQ(got_walked, want_walked);
  const std::vector<TopKEntry> want = Drain(&want_heap);
  const std::vector<TopKEntry> got = Drain(&got_heap);
  for (std::size_t e = 0; e < want.size(); ++e) {
    EXPECT_EQ(got[e].item, want[e].item) << "entry " << e;
    EXPECT_EQ(got[e].score, want[e].score) << "entry " << e;
  }
}

TEST_F(SelectKernelTest, EveryVariantMatchesTheScalarLoops) {
  const std::vector<std::vector<Real>> rows = SelectRows();
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (std::size_t c = 0; c < rows.size(); ++c) {
      const std::vector<Real>& row = rows[c];
      const auto n = static_cast<Index>(row.size());
      std::vector<Index> reversed(row.size());
      for (Index j = 0; j < n; ++j) {
        reversed[static_cast<std::size_t>(j)] = n - 1 - j;
      }
      const std::vector<std::vector<Real>> bound_lists = BoundLists(row);
      for (const Index k : {1, 2, 3, 8, 10, n, n + 3}) {
        if (k <= 0) continue;
        for (const Index* ids : {static_cast<const Index*>(nullptr),
                                 static_cast<const Index*>(reversed.data())}) {
          SCOPED_TRACE(::testing::Message()
                       << ToString(kernel) << " row " << c << " n=" << n
                       << " k=" << k << (ids != nullptr ? " id map" : ""));
          ExpectSelectMatchesScalar(row, nullptr, k, ids);
          for (const std::vector<Real>& bounds : bound_lists) {
            ExpectSelectMatchesScalar(row, &bounds, k, ids);
          }
          // bound == score at every position of a descending row.
          const std::vector<Real> sorted = SortedDescending(row);
          ExpectSelectMatchesScalar(sorted, &sorted, k, ids);
        }
      }
    }
  }
}

// Random query and item rows, with item rows duplicated across lane and
// panel boundaries so their scores tie exactly.
struct ScoreFixture {
  Matrix rows;
  Matrix items;
};

ScoreFixture MakeScoreFixture(Index m, Index n, Index f, uint64_t seed) {
  ScoreFixture fx{Matrix(m, f), Matrix(n, f)};
  Rng rng(seed);
  for (std::size_t i = 0; i < fx.rows.size(); ++i) {
    fx.rows.data()[i] = rng.Normal();
  }
  for (std::size_t i = 0; i < fx.items.size(); ++i) {
    fx.items.data()[i] = rng.Normal();
  }
  for (const Index at : {8, 16, 32, 256}) {
    if (at < n) {
      std::copy_n(fx.items.Row(at - 1), f, fx.items.Row(at));
    }
  }
  return fx;
}

TEST_F(SelectKernelTest, ScoreTopKMatchesWholeBlockSelection) {
  // Shapes span one and two row tiles (kScorePanelRows = 128), one and
  // several item panels, and fewer items than pool workers.
  const std::vector<std::tuple<Index, Index, Index>> shapes = {
      {1, 5, 3}, {7, 1000, 6}, {130, 700, 5}, {300, 40, 4}, {3, 2, 2}};
  ThreadPool pool(3);
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const auto& [m, n, f] : shapes) {
      const ScoreFixture fx = MakeScoreFixture(m, n, f, 5);
      std::vector<Index> ids(static_cast<std::size_t>(n));
      for (Index j = 0; j < n; ++j) ids[static_cast<std::size_t>(j)] = 3 * j;
      Matrix scores(m, n);
      GemmNT(fx.rows.data(), m, fx.items.data(), n, f, 1, 0, scores.data(),
             n);
      for (const Index k : {1, 4, n + 1}) {
        for (const Index* item_ids :
             {static_cast<const Index*>(nullptr),
              static_cast<const Index*>(ids.data())}) {
          SCOPED_TRACE(::testing::Message()
                       << ToString(kernel) << " m=" << m << " n=" << n
                       << " k=" << k);
          TopKResult want(m, k);
          for (Index r = 0; r < m; ++r) {
            TopKHeap heap(k);
            ScalarSelect(scores.Row(r), n, nullptr, 7, item_ids, &heap);
            heap.ExtractDescending(want.Row(r));
          }
          for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            TopKResult got(m + 2, k);
            ScoreTopK(fx.rows.data(), m, fx.items.data(), n, f, k, 7,
                      item_ids, p, &got, /*row_offset=*/2);
            for (Index r = 0; r < m; ++r) {
              for (Index e = 0; e < k; ++e) {
                ASSERT_EQ(got.Row(r + 2)[e].item, want.Row(r)[e].item)
                    << (p != nullptr ? "pooled" : "serial") << " row " << r
                    << " entry " << e;
                ASSERT_EQ(got.Row(r + 2)[e].score, want.Row(r)[e].score);
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(SelectKernelTest, BoundedPanelsWalkLikeTheScalarBreakLoop) {
  // 130 rows (two row tiles) against 700 items (three panels), with
  // bounds that fall through the heap minima so rows stop in different
  // panels.
  const Index m = 130;
  const Index n = 700;
  const Index f = 6;
  const Index k = 5;
  const ScoreFixture fx = MakeScoreFixture(m, n, f, 9);
  Matrix scores(m, n);
  GemmNT(fx.rows.data(), m, fx.items.data(), n, f, 1, 0, scores.data(), n);
  std::vector<Real> bounds(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    bounds[static_cast<std::size_t>(j)] = 8.0 - 12.0 * j / n;
  }
  bounds[300] = bounds[299];  // a plateau across a panel boundary
  std::vector<Index> ids(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) ids[static_cast<std::size_t>(j)] = n - j;
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    SCOPED_TRACE(ToString(kernel));
    std::vector<TopKHeap> got_heaps;
    std::vector<TopKHeap*> ptrs;
    got_heaps.reserve(static_cast<std::size_t>(m));
    for (Index r = 0; r < m; ++r) got_heaps.emplace_back(k);
    for (TopKHeap& heap : got_heaps) ptrs.push_back(&heap);
    std::vector<Index> walked(static_cast<std::size_t>(m), -1);
    ScoreIntoHeaps(fx.rows.data(), m, fx.items.data(), n, f, 0, ids.data(),
                   bounds.data(), ptrs, walked.data());
    for (Index r = 0; r < m; ++r) {
      TopKHeap want_heap(k);
      const Index want_walked = ScalarSelect(scores.Row(r), n, bounds.data(),
                                             0, ids.data(), &want_heap);
      ASSERT_EQ(walked[static_cast<std::size_t>(r)], want_walked)
          << "row " << r;
      const std::vector<TopKEntry> want = Drain(&want_heap);
      const std::vector<TopKEntry> got =
          Drain(&got_heaps[static_cast<std::size_t>(r)]);
      for (std::size_t e = 0; e < want.size(); ++e) {
        ASSERT_EQ(got[e].item, want[e].item) << "row " << r;
        ASSERT_EQ(got[e].score, want[e].score) << "row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace mips
