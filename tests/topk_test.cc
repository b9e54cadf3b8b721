// Unit and property tests for src/topk: the bounded heap and block
// extraction, validated against a sort-based reference across a
// parameterized (n, k) sweep; the micro-kernels' scorer epilogue under
// every compiled variant against GemmNT and the scalar comparisons; and
// the score-and-select tiles, over row records and heaps, against GemmNT
// plus the scalar loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "linalg/matrix.h"
#include "linalg/simd_dispatch.h"
#include "topk/merge.h"
#include "topk/score_select.h"
#include "topk/select_kernel.h"
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

// The pop_heap + push_heap heap that TopKHeap::Push's one sift-down
// replaced, kept as its reference.
class ReferenceHeap {
 public:
  explicit ReferenceHeap(Index k) : k_(k) {}

  Index size() const { return static_cast<Index>(heap_.size()); }
  Real MinScore() const {
    return size() == k_ ? heap_.front().score
                        : -std::numeric_limits<Real>::infinity();
  }
  bool Push(Index item, Real score) {
    if (size() < k_) {
      heap_.push_back({item, score});
      std::push_heap(heap_.begin(), heap_.end(), BetterEntry);
      return true;
    }
    if (!BetterEntry({item, score}, heap_.front())) return false;
    std::pop_heap(heap_.begin(), heap_.end(), BetterEntry);
    heap_.back() = {item, score};
    std::push_heap(heap_.begin(), heap_.end(), BetterEntry);
    return true;
  }
  std::vector<TopKEntry> Sorted() const {
    std::vector<TopKEntry> out = heap_;
    std::sort(out.begin(), out.end(), BetterEntry);
    return out;
  }

 private:
  Index k_;
  std::vector<TopKEntry> heap_;
};

TEST(TopKHeapTest, ReplaceTopMatchesReferenceHeap) {
  // Coarse scores tie exactly all the time, on the minimum too, and the
  // ids come in a shuffled order, so the id tie-break decides many
  // pushes.
  const Index n = 3000;
  for (const Index k : {1, 2, 10, 60}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      std::vector<Index> ids(static_cast<std::size_t>(n));
      for (Index j = 0; j < n; ++j) ids[static_cast<std::size_t>(j)] = j;
      for (std::size_t j = ids.size() - 1; j > 0; --j) {
        std::swap(ids[j], ids[rng.UniformInt(j + 1)]);
      }
      TopKHeap heap(k);
      ReferenceHeap want(k);
      for (Index j = 0; j < n; ++j) {
        const Index item = ids[static_cast<std::size_t>(j)];
        const Real score = std::floor(rng.Normal() * 3);
        ASSERT_EQ(heap.Push(item, score), want.Push(item, score))
            << "k=" << k << " seed " << seed << " push " << j;
        ASSERT_EQ(heap.size(), want.size());
        ASSERT_EQ(heap.MinScore(), want.MinScore());
      }
      std::vector<TopKEntry> got(static_cast<std::size_t>(k));
      heap.ExtractDescending(got.data());
      const std::vector<TopKEntry> expected = want.Sorted();
      ASSERT_EQ(expected.size(), got.size());
      for (std::size_t e = 0; e < got.size(); ++e) {
        EXPECT_EQ(got[e].item, expected[e].item) << "k=" << k << " " << e;
        EXPECT_EQ(got[e].score, expected[e].score);
      }
    }
  }
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

// The scalar loops the tile scorer must reproduce, kept as its oracle.
// Without bounds: TopKFromRow's WouldAccept/Push loop.  With bounds:
// MAXIMUS's segment loop, which stops before the first position whose
// bound plus the row's slack is strictly below a full heap's minimum and
// pushes every position before it.  Returns the positions walked.
Index ScalarSelect(const Real* scores, Index n, const Real* bounds,
                   Index item_offset, const Index* item_ids, TopKHeap* heap,
                   Real slack = 0) {
  const auto id = [&](Index j) {
    return item_ids != nullptr ? item_ids[j] : j + item_offset;
  };
  for (Index j = 0; j < n; ++j) {
    if (bounds == nullptr) {
      if (heap->WouldAccept(scores[j])) heap->Push(id(j), scores[j]);
      continue;
    }
    if (heap->full() && bounds[j] + slack < heap->MinScore()) return j;
    heap->Push(id(j), scores[j]);
  }
  return n;
}

std::vector<TopKEntry> Drain(TopKHeap* heap) {
  std::vector<TopKEntry> out(static_cast<std::size_t>(heap->k()));
  heap->ExtractDescending(out.data());
  return out;
}

// A BoundedWalk over n items in list order (item j read from items +
// (gather ? gather[j] : j) * f, reported as ids[j], with bound bounds[j])
// in two segments, as MaximusSolver walks a cluster list: [0, split) with
// the rows handed in `order`, then [split, n) with the rows that walked
// all of the first in the reverse of that order, the second segment
// packed only through the first position whose bound plus the largest of
// their slacks (row r's is slack[r], 0 without slack) is below the lowest
// of their thresholds.
struct TwoSegmentWalk {
  TopKResult rows;             // row r's entries, best first
  std::vector<Index> walked;   // the positions row r visited in all
  Index second_walkers = 0;    // rows that reached the second segment
  Index second_packed = 0;     // items packed for the second segment
};

TwoSegmentWalk WalkTwoSegments(const Matrix& rows, const Real* items,
                               const Index* gather, Index n, const Index* ids,
                               const Real* bounds, Index split, Index k,
                               const std::vector<Index>& order,
                               const Real* slack = nullptr) {
  const Index m = rows.rows();
  const Index f = rows.cols();
  TwoSegmentWalk got{TopKResult(m, k),
                     std::vector<Index>(static_cast<std::size_t>(m), -1)};
  BoundedWalk walk(m, k, f, slack);
  std::vector<Index> walked(order.size());
  walk.Score(rows.data(), order, PackedItems(items, gather, split, f), ids,
             bounds, walked.data());
  std::vector<Index> next;
  for (std::size_t a = 0; a < order.size(); ++a) {
    got.walked[static_cast<std::size_t>(order[a])] = walked[a];
    if (walked[a] == split) next.push_back(order[a]);
  }
  std::reverse(next.begin(), next.end());
  got.second_walkers = static_cast<Index>(next.size());
  if (!next.empty()) {
    Real lowest = kInf;
    Real widest = 0;
    for (const Index r : next) {
      lowest = std::min(lowest, walk.Threshold(r));
      if (slack != nullptr) widest = std::max(widest, slack[r]);
    }
    Index reach = split;
    while (reach < n && !(bounds[reach] + widest < lowest)) ++reach;
    got.second_packed = std::min(n, reach + 1) - split;
    const PackedItems second =
        gather != nullptr
            ? PackedItems(items, gather + split, got.second_packed, f)
            : PackedItems(items + static_cast<std::size_t>(split) * f,
                          nullptr, got.second_packed, f);
    walked.resize(next.size());
    walk.Score(rows.data(), next, second, ids + split, bounds + split,
               walked.data());
    for (std::size_t a = 0; a < next.size(); ++a) {
      got.walked[static_cast<std::size_t>(next[a])] += walked[a];
    }
  }
  for (Index r = 0; r < m; ++r) walk.Write(r, got.rows.Row(r));
  return got;
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

// Every compiled scorer entry and its in-place twin (linalg/gemm_kernel.h)
// store their tile bit for bit as GemmNT writes it, under the same
// kernel, and return exactly the bits of the scalar comparisons over the
// stored tile.  Each tile is a 4 x 16 product at depth 1, 5, 50 or 300
// (two K panels) of random or coarse factors (small integers, so cells
// tie), with item row 8 a copy of row 7 (a tie across the 8-lane
// boundary).  In every third tile one item factor is +-inf, so its
// column is +-inf in three rows and NaN (inf x 0) in the row whose
// factor there is 0.  Each row's threshold is one of its own cells (so
// cells tie it), -inf (a row not yet full), +inf, or a bound (so bounds
// tie it); bounds are absent or a descending ramp ending in -inf.
TEST_F(SelectKernelTest, EveryTileEpilogueMatchesGemmNTAndTheScalarTests) {
  struct Variant {
    GemmKernel kernel;
    GemmMicroKernelScoreFn packed;
    GemmMicroKernelRowsFn in_place;
  };
  const Variant variants[] = {
      {GemmKernel::kPortable, &GemmMicroKernelScorePortable,
       &GemmMicroKernelRowsPortable},
      {GemmKernel::kAvx2, &GemmMicroKernelScoreAvx2, &GemmMicroKernelRowsAvx2},
      {GemmKernel::kAvx512, &GemmMicroKernelScoreAvx512,
       &GemmMicroKernelRowsAvx512}};
  Real ramp[kGemmNR];
  for (Index j = 0; j < kGemmNR; ++j) ramp[j] = 2 - 0.25 * j;
  ramp[kGemmNR - 1] = -kInf;
  constexpr Index kCells = kGemmMR * kGemmNR;
  Rng rng(11);
  int nan_cells = 0;
  for (const Index f : {1, 5, 50, 300}) {
    for (int round = 0; round < 24; ++round) {
      const bool coarse = round % 2 == 1;
      Matrix a(kGemmMR, f);
      Matrix b(kGemmNR, f);
      for (Matrix* m : {&a, &b}) {
        for (std::size_t i = 0; i < m->size(); ++i) {
          m->data()[i] = coarse ? std::floor(rng.Normal() * 2) : rng.Normal();
        }
      }
      std::copy_n(b.Row(7), f, b.Row(8));
      if (round % 3 == 0) {
        b(round % kGemmNR, f - 1) = round % 6 == 0 ? kInf : -kInf;
        for (Index i = 0; i < kGemmMR; ++i) a(i, f - 1) = i == 2 ? 0 : 1;
      }
      std::vector<Real> ap(static_cast<std::size_t>(kGemmMR * f));
      std::vector<Real> bp(static_cast<std::size_t>(kGemmNR * f));
      PackPanels(a.data(), f, nullptr, kGemmMR, 0, f, kGemmMR, ap.data());
      PackPanels(b.data(), f, nullptr, kGemmNR, 0, f, kGemmNR, bp.data());
      for (const Variant& v : variants) {
        if (!GemmKernelSupported(v.kernel)) continue;
        ASSERT_TRUE(ForceGemmKernel(v.kernel).ok());
        Real want[kCells];
        GemmNT(a.data(), kGemmMR, b.data(), kGemmNR, f, 1, 0, want, kGemmNR);
        for (const Real cell : want) nan_cells += std::isnan(cell) ? 1 : 0;
        for (int choice = 0; choice < 4; ++choice) {
          Real thresholds[kGemmMR];
          for (Index r = 0; r < kGemmMR; ++r) {
            const Real own =
                want[r * kGemmNR + (5 * r + choice + round) % kGemmNR];
            const Real pick[] = {std::isnan(own) ? Real{0} : own, -kInf,
                                 r % 2 == 0 ? kInf : -kInf, ramp[3 + 4 * r]};
            thresholds[r] = pick[choice];
          }
          for (const Real* bounds : {static_cast<const Real*>(nullptr),
                                     static_cast<const Real*>(ramp)}) {
            for (const bool in_place : {false, true}) {
              SCOPED_TRACE(::testing::Message()
                           << ToString(v.kernel) << " f=" << f << " round "
                           << round << " thresholds " << choice
                           << (bounds != nullptr ? " bounded" : "")
                           << (in_place ? " in place" : " packed"));
              Real got[kCells];
              std::fill_n(got, kCells, std::numeric_limits<Real>::quiet_NaN());
              uint64_t hits = 0;
              for (Index p0 = 0; p0 < f; p0 += kGemmKPanel) {
                const Index kb = std::min(kGemmKPanel, f - p0);
                const Real* test = p0 + kb == f ? thresholds : nullptr;
                const Real* a0 = ap.data() + p0 * kGemmMR;
                hits = in_place
                           ? v.in_place(a0, b.data() + p0, f, kGemmNR, kb, got,
                                        p0 > 0, test, bounds)
                           : v.packed(a0, bp.data() + p0 * kGemmNR, kb, got,
                                      p0 > 0, test, bounds);
              }
              uint64_t want_hits = 0;
              for (Index r = 0; r < kGemmMR; ++r) {
                for (Index j = 0; j < kGemmNR; ++j) {
                  const bool hit =
                      got[r * kGemmNR + j] >= thresholds[r] ||
                      (bounds != nullptr && bounds[j] < thresholds[r]);
                  want_hits |= static_cast<uint64_t>(hit) << (r * kGemmNR + j);
                }
              }
              ASSERT_EQ(hits, want_hits);
              for (Index i = 0; i < kCells; ++i) {
                ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                          std::bit_cast<uint64_t>(want[i]))
                    << "cell " << i;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(nan_cells, 0);
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
  // Shapes span one and two row tiles (kScoreTileRows = 128), one and
  // several 16-item panels, and fewer items than pool workers; k
  // straddles the widest row record (kRowTopWidth = 16).
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
      for (const Index k : {1, 4, 15, 16, 17, n + 1}) {
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

TEST_F(SelectKernelTest, RequestsPastOneRowBlockMatchWholeBlockSelection) {
  // Two whole row blocks (kScoreRowBlock) and part of a third, read
  // through an id map as BMM reads users, in 128-row tiles and in 7-row
  // tiles (blocks of 2,044 rows), serial and pooled.
  const Index m = 2 * kScoreRowBlock + 37;
  const Index n = 300;
  const Index f = 5;
  const Index k = 4;
  const ScoreFixture fx = MakeScoreFixture(m, n, f, 21);
  std::vector<Index> row_ids(static_cast<std::size_t>(m));
  Matrix query(m, f);
  for (Index r = 0; r < m; ++r) {
    row_ids[static_cast<std::size_t>(r)] = m - 1 - r;
    std::copy_n(fx.rows.Row(m - 1 - r), f, query.Row(r));
  }
  Matrix scores(m, n);
  GemmNT(query.data(), m, fx.items.data(), n, f, 1, 0, scores.data(), n);
  TopKResult want(m, k);
  for (Index r = 0; r < m; ++r) {
    TopKHeap heap(k);
    ScalarSelect(scores.Row(r), n, nullptr, 0, nullptr, &heap);
    heap.ExtractDescending(want.Row(r));
  }
  ThreadPool pool(3);
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const Index tile_rows : {kScoreTileRows, Index{7}}) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        SCOPED_TRACE(::testing::Message()
                     << ToString(kernel) << " tile_rows=" << tile_rows
                     << (p != nullptr ? " pooled" : " serial"));
        TopKResult got(m, k);
        ScoreTopK(fx.rows.data(), m, fx.items.data(), n, f, k, 0, nullptr, p,
                  &got, /*row_offset=*/0, row_ids.data(), tile_rows);
        for (Index r = 0; r < m; ++r) {
          for (Index e = 0; e < k; ++e) {
            ASSERT_EQ(got.Row(r)[e].item, want.Row(r)[e].item) << "row " << r;
            ASSERT_EQ(got.Row(r)[e].score, want.Row(r)[e].score);
          }
        }
      }
    }
  }
}

TEST_F(SelectKernelTest, BoundedPanelsWalkLikeTheScalarBreakLoop) {
  // 130 rows (two row tiles, handed in a permuted order) against 700 items
  // (44 panels of 16) in two segments split inside a panel, with bounds
  // that fall through the rows' thresholds so rows stop in different
  // panels of both segments, at k = 1, 16 (records) and 17 (heaps).
  const Index m = 130;
  const Index n = 700;
  const Index f = 6;
  const Index split = 200;
  const ScoreFixture fx = MakeScoreFixture(m, n, f, 9);
  Matrix scores(m, n);
  GemmNT(fx.rows.data(), m, fx.items.data(), n, f, 1, 0, scores.data(), n);
  std::vector<Real> bounds(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    bounds[static_cast<std::size_t>(j)] = 8.0 - 12.0 * j / n;
  }
  bounds[300] = bounds[299];  // a plateau
  std::vector<Index> ids(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) ids[static_cast<std::size_t>(j)] = n - j;
  std::vector<Index> order;
  for (Index r = 0; r < m; ++r) order.push_back(r * 7 % m);  // gcd(7, 130) = 1
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const Index k : {1, 5, 16, 17}) {
      SCOPED_TRACE(::testing::Message() << ToString(kernel) << " k=" << k);
      const TwoSegmentWalk got =
          WalkTwoSegments(fx.rows, fx.items.data(), nullptr, n, ids.data(),
                          bounds.data(), split, k, order);
      Index stopped_first = 0;
      for (Index r = 0; r < m; ++r) {
        TopKHeap want_heap(k);
        const Index want_walked = ScalarSelect(scores.Row(r), n, bounds.data(),
                                               0, ids.data(), &want_heap);
        ASSERT_EQ(got.walked[static_cast<std::size_t>(r)], want_walked)
            << "row " << r;
        if (want_walked < split) ++stopped_first;
        const std::vector<TopKEntry> want = Drain(&want_heap);
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(got.rows.Row(r)[e].item, want[e].item) << "row " << r;
          ASSERT_EQ(got.rows.Row(r)[e].score, want[e].score) << "row " << r;
        }
      }
      // Rows stop in both segments, and the second is packed short.
      EXPECT_GT(stopped_first, 0);
      EXPECT_GT(got.second_walkers, 0);
      EXPECT_LT(got.second_packed, n - split);
    }
  }
}

// The same walk with each row's bounds widened by its own slack, as a new
// MAXIMUS user outside its cluster's cone walks: every fifth row has none,
// the rest up to 2.4.  Each row must stop where the scalar loop with its
// slack stops, after the same entries: the epilogue flags a cell by the
// bare bound, at or before the widened stop, and a raised threshold's stop
// is found by the widened rule.
TEST_F(SelectKernelTest, BoundedPanelsWithSlackWalkLikeTheScalarBreakLoop) {
  const Index m = 130;
  const Index n = 700;
  const Index f = 6;
  const Index split = 200;
  const ScoreFixture fx = MakeScoreFixture(m, n, f, 9);
  Matrix scores(m, n);
  GemmNT(fx.rows.data(), m, fx.items.data(), n, f, 1, 0, scores.data(), n);
  std::vector<Real> bounds(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    bounds[static_cast<std::size_t>(j)] = 8.0 - 12.0 * j / n;
  }
  std::vector<Index> ids(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) ids[static_cast<std::size_t>(j)] = n - j;
  std::vector<Real> slack(static_cast<std::size_t>(m));
  for (Index r = 0; r < m; ++r) {
    slack[static_cast<std::size_t>(r)] = 0.6 * static_cast<Real>(r % 5);
  }
  std::vector<Index> order;
  for (Index r = 0; r < m; ++r) order.push_back(r * 7 % m);
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const Index k : {1, 5, 16, 17}) {
      SCOPED_TRACE(::testing::Message() << ToString(kernel) << " k=" << k);
      const TwoSegmentWalk got =
          WalkTwoSegments(fx.rows, fx.items.data(), nullptr, n, ids.data(),
                          bounds.data(), split, k, order, slack.data());
      Index widened = 0;
      for (Index r = 0; r < m; ++r) {
        TopKHeap want_heap(k);
        const Real s = slack[static_cast<std::size_t>(r)];
        const Index want_walked = ScalarSelect(
            scores.Row(r), n, bounds.data(), 0, ids.data(), &want_heap, s);
        ASSERT_EQ(got.walked[static_cast<std::size_t>(r)], want_walked)
            << "row " << r;
        TopKHeap bare(k);
        if (ScalarSelect(scores.Row(r), n, bounds.data(), 0, ids.data(),
                         &bare) < want_walked) {
          ++widened;
        }
        const std::vector<TopKEntry> want = Drain(&want_heap);
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(got.rows.Row(r)[e].item, want[e].item) << "row " << r;
          ASSERT_EQ(got.rows.Row(r)[e].score, want[e].score) << "row " << r;
        }
      }
      // The slack moves most stops, and the second segment is still
      // packed short.
      EXPECT_GT(widened, m / 2);
      EXPECT_GT(got.second_walkers, 0);
      EXPECT_LT(got.second_packed, n - split);
    }
  }
}

TEST_F(SelectKernelTest, BoundedWalkGoesOnPastABoundThatTiesItsThreshold) {
  // Tight bounds, as MAXIMUS's are for a user on its centroid: every
  // query row is 1, so each score is its item's value exactly, and each
  // bound is that score.  The values come in runs of three equal ones,
  // so once a row holds k entries its threshold ties the next bounds.  A
  // tie is no stop (`bound < threshold` only), and the tied cells reach
  // the id tie-break: the ids fall along the list, so each tied cell
  // beats the row's k-th entry.
  const Index m = 6;
  const Index n = 40;
  Matrix rows(m, 1);
  std::fill_n(rows.data(), m, Real{1});
  Matrix items(n, 1);
  std::vector<Real> bounds(static_cast<std::size_t>(n));
  std::vector<Index> ids(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    items(j, 0) = static_cast<Real>(20 - j / 3);
    bounds[static_cast<std::size_t>(j)] = items(j, 0);
    ids[static_cast<std::size_t>(j)] = n - j;
  }
  std::vector<Index> order(static_cast<std::size_t>(m));
  std::iota(order.rbegin(), order.rend(), 0);
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const Index k : {1, 2, 16, 17}) {
      SCOPED_TRACE(::testing::Message() << ToString(kernel) << " k=" << k);
      TopKHeap want_heap(k);
      const Index want_walked = ScalarSelect(items.data(), n, bounds.data(),
                                             0, ids.data(), &want_heap);
      // The walk ends at the first value below the k-th: past the ties.
      ASSERT_EQ(want_walked, (k - 1) / 3 * 3 + 3);
      const std::vector<TopKEntry> want = Drain(&want_heap);
      BoundedWalk walk(m, k, 1);
      std::vector<Index> walked(static_cast<std::size_t>(m));
      walk.Score(rows.data(), order, PackedItems(items.data(), nullptr, n, 1),
                 ids.data(), bounds.data(), walked.data());
      for (Index r = 0; r < m; ++r) {
        ASSERT_EQ(walked[static_cast<std::size_t>(r)], want_walked);
        std::vector<TopKEntry> got(static_cast<std::size_t>(k));
        walk.Write(r, got.data());
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(got[e].item, want[e].item) << "row " << r;
          ASSERT_EQ(got[e].score, want[e].score) << "row " << r;
        }
      }
    }
  }
}

// A call of at most kScoreInPlaceRows query rows reads its items in
// place (linalg GemmMicroKernelRows*); a longer one packs them.  Either
// way every row must be, bit for bit, serial GemmNT followed by a full
// BetterEntry sort.  The shapes cross the row rule (m = 5) and reach a
// packed call of three row groups (m = 9); cover part of an item panel,
// one, and one plus part of a second (n = 15, 16, 17); and reach depths
// of one value, one whole K panel and part of a second (f = 1, 256, 257,
// 300).  k straddles the widest row record (kRowTopWidth = 16: k = 15,
// 16 on records, 17 on heaps) and reaches past n.  Items tie exactly
// (MakeScoreFixture's duplicated rows, at panel boundaries among them),
// and for odd m the last query row is all zero, so its products are all
// +-0.  In a second pass every item row is the same, so every row must
// be the k lowest ids in ascending order.  Rows are read through row ids
// and items reported through item ids, or in order with an item offset.
TEST_F(SelectKernelTest, FewRowCallsMatchGemmNTAndAFullSort) {
  static_assert(kScoreInPlaceRows < 5, "m = 5 must take the packed path");
  static_assert(kRowTopWidth == 16, "k = 15, 16 and 17 straddle the width");
  ThreadPool pool(3);
  for (const bool tied : {false, true}) {
    for (const Index f : {1, 50, 256, 257, 300}) {
      for (const Index n : {1, 15, 16, 17, 200}) {
        for (const Index m : {1, 2, 3, 4, 5, 9}) {
          ScoreFixture fx = MakeScoreFixture(m, n, f, 31 + m + n + f);
          if (m % 2 == 1) std::fill_n(fx.rows.Row(m - 1), f, Real{0});
          for (Index j = 1; tied && j < n; ++j) {
            std::copy_n(fx.items.Row(0), f, fx.items.Row(j));
          }
          Matrix scores(m, n);
          GemmNT(fx.rows.data(), m, fx.items.data(), n, f, 1, 0, scores.data(),
                 n);
          std::vector<Index> row_ids(static_cast<std::size_t>(m));
          for (Index r = 0; r < m; ++r) {
            row_ids[static_cast<std::size_t>(r)] = m - 1 - r;
          }
          std::vector<Index> item_ids(static_cast<std::size_t>(n));
          for (Index j = 0; j < n; ++j) {
            item_ids[static_cast<std::size_t>(j)] = 2 * (n - 1 - j);
          }
          for (const bool mapped : {false, true}) {
            const Index* rids = mapped ? row_ids.data() : nullptr;
            const Index* iids = mapped ? item_ids.data() : nullptr;
            const Index offset = mapped ? 0 : 7;
            for (const Index k : {Index{1}, Index{10}, Index{15}, Index{16},
                                  Index{17}, n + 3}) {
              TopKResult want(m, k);
              for (Index r = 0; r < m; ++r) {
                const Real* row = scores.Row(rids != nullptr ? rids[r] : r);
                std::vector<TopKEntry> all;
                for (Index j = 0; j < n; ++j) {
                  all.push_back(
                      {iids != nullptr ? iids[j] : j + offset, row[j]});
                }
                std::sort(all.begin(), all.end(), BetterEntry);
                all.resize(static_cast<std::size_t>(k), TopKEntry{-1, -kInf});
                std::copy(all.begin(), all.end(), want.Row(r));
                for (Index e = 0; tied && e < std::min(k, n); ++e) {
                  // The k lowest ids: 0, 2, 4, ... mapped, 7, 8, 9, ... not.
                  ASSERT_EQ(want.Row(r)[e].item,
                            iids != nullptr ? 2 * e : offset + e);
                }
              }
              for (const GemmKernel kernel : SupportedKernels()) {
                ASSERT_TRUE(ForceGemmKernel(kernel).ok());
                for (ThreadPool* p :
                     {static_cast<ThreadPool*>(nullptr), &pool}) {
                  SCOPED_TRACE(::testing::Message()
                               << ToString(kernel) << " m=" << m << " n=" << n
                               << " f=" << f << " k=" << k
                               << (mapped ? " ids" : " offset")
                               << (tied ? " tied" : "")
                               << (p != nullptr ? " pooled" : " serial"));
                  TopKResult got(m, k);
                  ScoreTopK(fx.rows.data(), m, fx.items.data(), n, f, k, offset,
                            iids, p, &got, /*row_offset=*/0, rids);
                  for (Index r = 0; r < m; ++r) {
                    for (Index e = 0; e < k; ++e) {
                      ASSERT_EQ(got.Row(r)[e].item, want.Row(r)[e].item)
                          << "row " << r << " entry " << e;
                      ASSERT_EQ(std::bit_cast<uint64_t>(got.Row(r)[e].score),
                                std::bit_cast<uint64_t>(want.Row(r)[e].score))
                          << "row " << r << " entry " << e;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// A masked item is never offered: every row must be, bit for bit, serial
// GemmNT followed by a full BetterEntry sort over the unmasked items.
// 2,100 items at f = 8 make two packed chunks (kGemmNC = 2,048 items) and,
// pooled over three workers, three item ranges of 700.  The mask holds
// both sides of panel edges (15 | 16, 31 | 32), a whole panel (112-127),
// both sides of the chunk edge (2,047 | 2,048) and the worker edges
// (699 | 700, 1,399 | 1,400), the first and last items, and exact ties
// of unmasked items (MakeScoreFixture duplicates rows 7 | 8 and 255 |
// 256).  Calls of 1 and 4 rows read the items in place, 5 and 130 pack
// them; k straddles the widest row record.  A mask of every item leaves
// only sentinels.
TEST_F(SelectKernelTest, MaskedItemsAreNeverOffered) {
  const Index n = 2100;
  const Index f = 8;
  std::vector<Index> masked = {0,    8,    15,   16,   31,   32,   255,
                               699,  700,  1399, 1400, 2047, 2048, 2099};
  for (Index j = 112; j < 128; ++j) masked.push_back(j);
  for (Index j = 300; j < 2000; j += 37) masked.push_back(j);
  std::sort(masked.begin(), masked.end());
  masked.erase(std::unique(masked.begin(), masked.end()), masked.end());
  std::vector<Index> every(static_cast<std::size_t>(n));
  std::iota(every.begin(), every.end(), 0);
  std::vector<Index> item_ids(static_cast<std::size_t>(n));
  for (Index j = 0; j < n; ++j) {
    item_ids[static_cast<std::size_t>(j)] = 3 * (n - 1 - j);
  }
  ThreadPool pool(3);
  for (const Index m : {1, 4, 5, 130}) {
    const ScoreFixture fx = MakeScoreFixture(m, n, f, 40 + m);
    Matrix scores(m, n);
    GemmNT(fx.rows.data(), m, fx.items.data(), n, f, 1, 0, scores.data(), n);
    for (const bool mapped : {false, true}) {
      const Index* iids = mapped ? item_ids.data() : nullptr;
      const Index offset = mapped ? 0 : 5;
      for (const Index k : {1, 10, 16, 17}) {
        TopKResult want(m, k);
        for (Index r = 0; r < m; ++r) {
          std::vector<TopKEntry> all;
          for (Index j = 0; j < n; ++j) {
            if (std::binary_search(masked.begin(), masked.end(), j)) continue;
            all.push_back({iids != nullptr ? iids[j] : j + offset,
                           scores(r, j)});
          }
          std::sort(all.begin(), all.end(), BetterEntry);
          std::copy_n(all.begin(), k, want.Row(r));
        }
        for (const GemmKernel kernel : SupportedKernels()) {
          ASSERT_TRUE(ForceGemmKernel(kernel).ok());
          for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
            SCOPED_TRACE(::testing::Message()
                         << ToString(kernel) << " m=" << m << " k=" << k
                         << (mapped ? " ids" : " offset")
                         << (p != nullptr ? " pooled" : " serial"));
            TopKResult got(m, k);
            ScoreTopK(fx.rows.data(), m, fx.items.data(), n, f, k, offset,
                      iids, p, &got, /*row_offset=*/0, /*row_ids=*/nullptr,
                      kScoreTileRows,
                      {masked.data(), static_cast<Index>(masked.size()), 0});
            for (Index r = 0; r < m; ++r) {
              for (Index e = 0; e < k; ++e) {
                ASSERT_EQ(got.Row(r)[e].item, want.Row(r)[e].item)
                    << "row " << r << " entry " << e;
                ASSERT_EQ(std::bit_cast<uint64_t>(got.Row(r)[e].score),
                          std::bit_cast<uint64_t>(want.Row(r)[e].score))
                    << "row " << r << " entry " << e;
              }
            }
            ScoreTopK(fx.rows.data(), m, fx.items.data(), n, f, k, offset,
                      iids, p, &got, /*row_offset=*/0, /*row_ids=*/nullptr,
                      kScoreTileRows, {every.data(), n, 0});
            for (Index r = 0; r < m; ++r) {
              for (Index e = 0; e < k; ++e) {
                ASSERT_EQ(got.Row(r)[e].item, -1);
                ASSERT_EQ(got.Row(r)[e].score, -kInf);
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(SelectKernelTest, DepthsPastOneKPanelMatchGemmNT) {
  // f = 256 fills exactly one K panel (kGemmKPanel) and f = 300 scores a
  // second one, which the scorer folds onto the first in the tile as
  // GemmNT folds it onto C.  Query rows are read through an id map in
  // 7-row tiles, as BMM reads users, and the bounded walk scores items
  // gathered through an id map into packed form, as MAXIMUS's segments
  // are.
  const Index m = 37;
  const Index n = 150;
  const Index k = 6;
  ThreadPool pool(3);
  for (const Index f : {256, 300}) {
    const ScoreFixture fx = MakeScoreFixture(m, n, f, 13);
    std::vector<Index> row_ids(static_cast<std::size_t>(m));
    Matrix query(m, f);
    for (Index r = 0; r < m; ++r) {
      row_ids[static_cast<std::size_t>(r)] = m - 1 - r;
      std::copy_n(fx.rows.Row(m - 1 - r), f, query.Row(r));
    }
    std::vector<Index> item_ids(static_cast<std::size_t>(n));
    Matrix gathered(n, f);
    for (Index j = 0; j < n; ++j) {
      const Index id = j * 7 % n;  // a permutation: gcd(7, 150) = 1
      item_ids[static_cast<std::size_t>(j)] = id;
      std::copy_n(fx.items.Row(id), f, gathered.Row(j));
    }
    Matrix scores(m, n);
    GemmNT(query.data(), m, gathered.data(), n, f, 1, 0, scores.data(), n);
    // Bounds from +3 to -3 standard deviations of a score, so the rows
    // stop in different item panels.
    std::vector<Real> bounds(static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j) {
      bounds[static_cast<std::size_t>(j)] =
          3 * std::sqrt(static_cast<Real>(f)) * (1 - 2.0 * j / n);
    }
    for (const GemmKernel kernel : SupportedKernels()) {
      ASSERT_TRUE(ForceGemmKernel(kernel).ok());
      SCOPED_TRACE(::testing::Message() << ToString(kernel) << " f=" << f);
      TopKResult want(m, k);
      for (Index r = 0; r < m; ++r) {
        TopKHeap heap(k);
        ScalarSelect(scores.Row(r), n, nullptr, 0, item_ids.data(), &heap);
        heap.ExtractDescending(want.Row(r));
      }
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        TopKResult got(m, k);
        ScoreTopK(fx.rows.data(), m, gathered.data(), n, f, k, 0,
                  item_ids.data(), p, &got, /*row_offset=*/0, row_ids.data(),
                  /*tile_rows=*/7);
        for (Index r = 0; r < m; ++r) {
          for (Index e = 0; e < k; ++e) {
            ASSERT_EQ(got.Row(r)[e].item, want.Row(r)[e].item)
                << (p != nullptr ? "pooled" : "serial") << " row " << r;
            ASSERT_EQ(got.Row(r)[e].score, want.Row(r)[e].score);
          }
        }
      }

      // The bounded half walks fx.rows in two segments, the rows handed
      // in the reverse order row_ids gives, so row r's scores are those of
      // query row m - 1 - r.
      for (const Index k_walk : {Index{1}, k, Index{16}, Index{17}}) {
        SCOPED_TRACE(::testing::Message() << "walk k=" << k_walk);
        const TwoSegmentWalk got =
            WalkTwoSegments(fx.rows, fx.items.data(), item_ids.data(), n,
                            item_ids.data(), bounds.data(), /*split=*/40,
                            k_walk, row_ids);
        std::vector<Index> stops;
        for (Index r = 0; r < m; ++r) {
          TopKHeap want_heap(k_walk);
          const Index want_walked =
              ScalarSelect(scores.Row(m - 1 - r), n, bounds.data(), 0,
                           item_ids.data(), &want_heap);
          ASSERT_EQ(got.walked[static_cast<std::size_t>(r)], want_walked)
              << "row " << r;
          stops.push_back(want_walked);
          const std::vector<TopKEntry> want_row = Drain(&want_heap);
          for (std::size_t e = 0; e < want_row.size(); ++e) {
            ASSERT_EQ(got.rows.Row(r)[e].item, want_row[e].item)
                << "row " << r;
            ASSERT_EQ(got.rows.Row(r)[e].score, want_row[e].score)
                << "row " << r;
          }
        }
        // The walks end in more than one item panel, and the second
        // segment is packed short.
        std::sort(stops.begin(), stops.end());
        EXPECT_LT(stops.front() / kGemmNR, stops.back() / kGemmNR);
        EXPECT_GT(got.second_walkers, 0);
        EXPECT_LT(got.second_packed, n - 40);
      }
    }
  }
}

}  // namespace
}  // namespace mips
