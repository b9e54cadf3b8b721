// Tests for the src/shard subsystem: the item partitioner (contiguous +
// hash, id maps, degenerate shard counts), ShardedMipsEngine exactness
// against the unsharded engine (bit-for-bit ids, matching scores) across
// solver specs / mixed k / new users / degenerate shards, per-shard
// OPTIMUS heterogeneity on a norm-skewed fixture, strategy forcing
// (global and per-shard), and a ConcurrentShardedTopK suite mirroring
// engine_test's harness.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "linalg/blas.h"
#include "shard/partition.h"
#include "shard/sharded_engine.h"
#include "solvers/bmm.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectBitIdenticalTopK;
using ::mips::testing::MakeTestModel;

using ::mips::testing::kSanitizerSkewsWallClock;

ShardedEngineOptions SmallShardedOptions(
    int num_shards, Index k = 5,
    ShardingStrategy sharding = ShardingStrategy::kContiguous) {
  ShardedEngineOptions options;
  options.num_shards = num_shards;
  options.sharding = sharding;
  options.engine.k = k;
  options.engine.optimus.l2_cache_bytes = 16 * 1024;
  return options;
}

/// Sharded results must reproduce the unsharded engine bit-for-bit on
/// item ids (continuous random scores — no ties) and match scores to
/// accumulation-order tolerance (shard and unsharded answers may be
/// served by different solvers).
void ExpectIdenticalTopK(const TopKResult& got, const TopKResult& want) {
  ASSERT_EQ(got.num_queries(), want.num_queries());
  ASSERT_EQ(got.k(), want.k());
  for (Index q = 0; q < got.num_queries(); ++q) {
    for (Index e = 0; e < got.k(); ++e) {
      EXPECT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
          << "row " << q << " entry " << e;
      if (std::isinf(want.Row(q)[e].score)) {
        EXPECT_EQ(got.Row(q)[e].score, want.Row(q)[e].score);
      } else {
        EXPECT_NEAR(got.Row(q)[e].score, want.Row(q)[e].score, 1e-9)
            << "row " << q << " entry " << e;
      }
    }
  }
}

// --------------------------------------------------------- ItemPartition

TEST(ItemPartitionTest, ValidatesArguments) {
  const MFModel model = MakeTestModel(10, 20, 4, 1);
  const ConstRowBlock items(model.items);
  EXPECT_FALSE(
      ItemPartition::Create(items, 0, ShardingStrategy::kContiguous).ok());
  EXPECT_FALSE(ItemPartition::Create(ConstRowBlock(nullptr, 0, 4), 2,
                                     ShardingStrategy::kContiguous)
                   .ok());
}

TEST(ItemPartitionTest, ContiguousCoversEveryItemOnce) {
  const MFModel model = MakeTestModel(10, 23, 4, 2);
  const ConstRowBlock items(model.items);
  auto partition =
      ItemPartition::Create(items, 4, ShardingStrategy::kContiguous);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->num_shards(), 4);
  EXPECT_EQ(partition->num_items(), 23);

  std::set<Index> seen;
  for (int s = 0; s < partition->num_shards(); ++s) {
    const ItemShard& shard = partition->shard(s);
    for (Index local = 0; local < shard.num_items(); ++local) {
      const Index global = shard.ToGlobal(local);
      EXPECT_TRUE(seen.insert(global).second) << "item " << global
                                              << " in two shards";
      EXPECT_EQ(partition->ShardOfItem(global), s);
      // The shard's row must be the original item vector.
      EXPECT_EQ(0, std::memcmp(shard.items.Row(local), items.Row(global),
                               sizeof(Real) * 4));
    }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), items.rows());
  // 23 = 6 + 6 + 6 + 5: SplitRange gives the first shards the remainder.
  EXPECT_EQ(partition->shard(0).num_items(), 6);
  EXPECT_EQ(partition->shard(3).num_items(), 5);
}

TEST(ItemPartitionTest, HashCoversEveryItemOnce) {
  const MFModel model = MakeTestModel(10, 200, 6, 3);
  const ConstRowBlock items(model.items);
  auto partition = ItemPartition::Create(items, 3, ShardingStrategy::kHash);
  ASSERT_TRUE(partition.ok());

  std::set<Index> seen;
  for (int s = 0; s < partition->num_shards(); ++s) {
    const ItemShard& shard = partition->shard(s);
    // Hash shards gather rows in increasing global-id order.
    for (Index local = 0; local < shard.num_items(); ++local) {
      const Index global = shard.ToGlobal(local);
      if (local > 0) {
        EXPECT_LT(shard.ToGlobal(local - 1), global);
      }
      EXPECT_TRUE(seen.insert(global).second);
      EXPECT_EQ(partition->ShardOfItem(global), s);
      EXPECT_EQ(HashShardOfItem(global, 3), s);
      EXPECT_EQ(0, std::memcmp(shard.items.Row(local), items.Row(global),
                               sizeof(Real) * 6));
    }
    // The multiplicative hash should spread 200 ids roughly evenly.
    EXPECT_GT(shard.num_items(), 200 / 3 / 2);
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), items.rows());
}

TEST(ItemPartitionTest, GrowthCoversEveryItemOnce) {
  const MFModel model = MakeTestModel(10, 23, 4, 6);
  const ConstRowBlock items(model.items);
  auto partition = ItemPartition::Create(items, 4, ShardingStrategy::kGrowth);
  ASSERT_TRUE(partition.ok());
  // Derived block: ceil(23 / 4) = 6; the last shard absorbs the rest.
  EXPECT_EQ(partition->growth_block(), 6);
  EXPECT_EQ(partition->shard(0).num_items(), 6);
  EXPECT_EQ(partition->shard(3).num_items(), 5);

  std::set<Index> seen;
  for (int s = 0; s < partition->num_shards(); ++s) {
    const ItemShard& shard = partition->shard(s);
    for (Index local = 0; local < shard.num_items(); ++local) {
      const Index global = shard.ToGlobal(local);
      EXPECT_TRUE(seen.insert(global).second);
      EXPECT_EQ(partition->ShardOfItem(global), s);
      EXPECT_EQ(0, std::memcmp(shard.items.Row(local), items.Row(global),
                               sizeof(Real) * 4));
    }
  }
  EXPECT_EQ(static_cast<Index>(seen.size()), items.rows());
}

TEST(ItemPartitionTest, GrowthPinnedBlockKeepsPrefixShardsStable) {
  // The live-catalog use case: the catalog appends, the partition is
  // recreated with the SAME pinned block, and only the last shard's
  // contents may change.
  const MFModel model = MakeTestModel(10, 40, 4, 7);
  const ConstRowBlock items(model.items);
  const Index kBlock = 8;

  auto before = ItemPartition::Create(
      ConstRowBlock(items.Row(0), 25, 4), 3, ShardingStrategy::kGrowth,
      kBlock);
  ASSERT_TRUE(before.ok());
  auto after = ItemPartition::Create(
      ConstRowBlock(items.Row(0), 40, 4), 3, ShardingStrategy::kGrowth,
      kBlock);
  ASSERT_TRUE(after.ok());

  // Prefix shards: identical ranges before and after the append.
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(before->shard(s).num_items(), kBlock);
    EXPECT_EQ(after->shard(s).num_items(), kBlock);
    EXPECT_EQ(before->shard(s).global_offset, after->shard(s).global_offset);
    EXPECT_EQ(before->shard(s).items.Row(0), after->shard(s).items.Row(0));
  }
  // The append landed entirely in the newest shard.
  EXPECT_EQ(before->shard(2).num_items(), 25 - 2 * kBlock);
  EXPECT_EQ(after->shard(2).num_items(), 40 - 2 * kBlock);
  for (Index id = 25; id < 40; ++id) {
    EXPECT_EQ(after->ShardOfItem(id), 2);
  }
  // Under kContiguous the same append would re-split every shard.
  auto contiguous = ItemPartition::Create(
      ConstRowBlock(items.Row(0), 40, 4), 3, ShardingStrategy::kContiguous);
  ASSERT_TRUE(contiguous.ok());
  EXPECT_NE(contiguous->shard(0).num_items(), kBlock);
}

TEST(ItemPartitionTest, GrowthHandlesShortCatalogsAndBadBlocks) {
  const MFModel model = MakeTestModel(10, 5, 4, 8);
  const ConstRowBlock items(model.items);
  // Block larger than the catalog: everything in shard 0, later shards
  // empty (the last shard's absorb range is empty too).
  auto partition = ItemPartition::Create(items, 3,
                                         ShardingStrategy::kGrowth, 100);
  ASSERT_TRUE(partition.ok());
  EXPECT_EQ(partition->shard(0).num_items(), 5);
  EXPECT_EQ(partition->shard(1).num_items(), 0);
  EXPECT_EQ(partition->shard(2).num_items(), 0);
  for (Index id = 0; id < 5; ++id) EXPECT_EQ(partition->ShardOfItem(id), 0);

  EXPECT_FALSE(ItemPartition::Create(items, 3, ShardingStrategy::kGrowth, -1)
                   .ok());
}

TEST(ItemPartitionTest, ParseAndPrintGrowthStrategy) {
  auto parsed = ParseShardingStrategy("growth");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, ShardingStrategy::kGrowth);
  EXPECT_STREQ(ToString(ShardingStrategy::kGrowth), "growth");
  EXPECT_FALSE(ParseShardingStrategy("grow").ok());
}

TEST(ItemPartitionTest, MoreShardsThanItemsLeavesEmptyShards) {
  const MFModel model = MakeTestModel(10, 3, 4, 4);
  auto partition = ItemPartition::Create(ConstRowBlock(model.items), 8,
                                         ShardingStrategy::kContiguous);
  ASSERT_TRUE(partition.ok());
  Index total = 0;
  int empty = 0;
  for (int s = 0; s < 8; ++s) {
    total += partition->shard(s).num_items();
    if (partition->shard(s).num_items() == 0) ++empty;
  }
  EXPECT_EQ(total, 3);
  EXPECT_EQ(empty, 5);
}

// ---------------------------------------------- sharded vs unsharded

class ShardedExactness
    : public ::testing::TestWithParam<std::tuple<int, ShardingStrategy>> {};

TEST_P(ShardedExactness, MatchesUnshardedAcrossSpecsAndK) {
  const auto [num_shards, sharding] = GetParam();
  const MFModel model = MakeTestModel(160, 220, 8, 31, /*norm_sigma=*/0.8);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  const std::vector<std::vector<std::string>> candidate_sets = {
      {"bmm"},
      {"lemp"},
      {"maximus:clusters=4"},
      {"fexipro-si"},
      {"bmm", "maximus", "lemp"},
  };
  for (const auto& specs : candidate_sets) {
    ShardedEngineOptions options = SmallShardedOptions(num_shards, 5, sharding);
    options.engine.solvers = specs;
    auto sharded = ShardedMipsEngine::Open(users, items, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    EXPECT_EQ((*sharded)->num_shards(), num_shards);
    EXPECT_EQ((*sharded)->num_items(), 220);

    EngineOptions unsharded_options = options.engine;
    auto unsharded = MipsEngine::Open(users, items, unsharded_options);
    ASSERT_TRUE(unsharded.ok());

    for (const Index k : {1, 5, 12}) {
      TopKResult got;
      TopKResult want;
      ASSERT_TRUE((*sharded)->TopKAll(k, &got).ok());
      ASSERT_TRUE((*unsharded)->TopKAll(k, &want).ok());
      ExpectIdenticalTopK(got, want);
    }
    // Mini-batch path with scattered user ids.
    const std::vector<Index> batch = {0, 17, 159, 3, 86};
    TopKResult got;
    TopKResult want;
    ASSERT_TRUE((*sharded)->TopK(7, batch, &got).ok());
    ASSERT_TRUE((*unsharded)->TopK(7, batch, &want).ok());
    ExpectIdenticalTopK(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardLayouts, ShardedExactness,
    ::testing::Combine(::testing::Values(1, 2, 3, 5),
                       ::testing::Values(ShardingStrategy::kContiguous,
                                         ShardingStrategy::kHash,
                                         ShardingStrategy::kGrowth)),
    [](const auto& info) {
      return std::to_string(std::get<0>(info.param)) + "shards_" +
             std::string(ToString(std::get<1>(info.param)));
    });

TEST(ShardedEngineTest, TiedScoresMergeDeterministicallyAcrossShards) {
  // Exact duplicate item vectors spread across shards produce exactly
  // tied scores at the top of every row.  The library-wide tie order
  // (lower id wins; heap Push, strict pruning bounds, k-way merge) must
  // make every solver family — batching, point-query with norm pruning,
  // clustered index, and the SVD-transform cascade — report the same
  // ids sharded and unsharded, with the lowest duplicate ids first.
  // FEXIPRO participates since its original-space rescoring (fexipro.h):
  // the per-shard SVD rotation steers only its pruning, never the
  // reported score, so exact cross-shard ties stay exact ties.
  MFModel model = MakeTestModel(80, 60, 8, 61, /*norm_sigma=*/0.3,
                                /*dispersion=*/0.5, /*non_negative=*/true);
  // A dominant non-negative vector duplicated into all three contiguous
  // shards (shard ranges: [0,20), [20,40), [40,60)).  Non-negative
  // factors guarantee every user scores it above the unit-scale rest.
  const std::vector<Index> duplicates = {3, 21, 27, 44, 58};
  for (Index c = 0; c < 8; ++c) {
    model.items(duplicates[0], c) = 5.0 + static_cast<Real>(c) * 0.25;
  }
  for (std::size_t d = 1; d < duplicates.size(); ++d) {
    std::memcpy(model.items.Row(duplicates[d]), model.items.Row(duplicates[0]),
                sizeof(Real) * 8);
  }
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  for (const char* spec : {"bmm", "naive", "lemp", "maximus:clusters=4",
                           "fexipro-si", "fexipro-sir"}) {
    ShardedEngineOptions options = SmallShardedOptions(3);
    options.engine.solvers = {spec};
    auto sharded = ShardedMipsEngine::Open(users, items, options);
    ASSERT_TRUE(sharded.ok()) << spec << ": " << sharded.status().ToString();
    auto unsharded = MipsEngine::Open(users, items, options.engine);
    ASSERT_TRUE(unsharded.ok()) << spec;

    for (const Index k : {3, 5, 7}) {
      TopKResult got;
      TopKResult want;
      ASSERT_TRUE((*sharded)->TopKAll(k, &got).ok()) << spec;
      ASSERT_TRUE((*unsharded)->TopKAll(k, &want).ok()) << spec;
      for (Index q = 0; q < got.num_queries(); ++q) {
        // The tied duplicates fill the head of the row lowest-id-first.
        for (Index e = 0; e < std::min<Index>(k, 5); ++e) {
          EXPECT_EQ(got.Row(q)[e].item, duplicates[static_cast<std::size_t>(e)])
              << spec << " row " << q << " entry " << e;
        }
        for (Index e = 0; e < k; ++e) {
          EXPECT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
              << spec << " row " << q << " entry " << e;
        }
      }
    }
  }
}

TEST(ShardedEngineTest, FexiproMatchesUnshardedBitForBit) {
  // The PR 3 carve-out, retired: FEXIPRO's reported scores used to pass
  // through the per-shard SVD rotation, so the same item could score
  // ulp-differently in different shards.  With original-space rescoring
  // (fexipro.h) the reported score for a (user, item) pair is one Dot
  // over the raw rows — identical whichever shard the item landed in —
  // so sharded results must now match the unsharded engine EXACTLY,
  // scores included, for both FEXIPRO variants and both placements.
  const MFModel model = MakeTestModel(120, 180, 8, 67, /*norm_sigma=*/0.8);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  for (const char* spec : {"fexipro-si", "fexipro-sir"}) {
    for (const ShardingStrategy sharding :
         {ShardingStrategy::kContiguous, ShardingStrategy::kHash}) {
      ShardedEngineOptions options = SmallShardedOptions(3, 5, sharding);
      options.engine.solvers = {spec};
      auto sharded = ShardedMipsEngine::Open(users, items, options);
      ASSERT_TRUE(sharded.ok()) << spec << ": " << sharded.status().ToString();
      auto unsharded = MipsEngine::Open(users, items, options.engine);
      ASSERT_TRUE(unsharded.ok()) << spec;
      for (const Index k : {1, 5, 9}) {
        TopKResult got;
        TopKResult want;
        ASSERT_TRUE((*sharded)->TopKAll(k, &got).ok()) << spec;
        ASSERT_TRUE((*unsharded)->TopKAll(k, &want).ok()) << spec;
        ASSERT_EQ(got.num_queries(), want.num_queries());
        for (Index q = 0; q < got.num_queries(); ++q) {
          for (Index e = 0; e < k; ++e) {
            ASSERT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
                << spec << " row " << q << " entry " << e;
            // Bit-for-bit: exact double equality, no tolerance.
            ASSERT_EQ(got.Row(q)[e].score, want.Row(q)[e].score)
                << spec << " row " << q << " entry " << e;
          }
        }
      }
    }
  }
}

TEST(ShardedEngineTest, NewUsersMatchUnsharded) {
  const MFModel model = MakeTestModel(200, 150, 8, 33, 0.6);
  const MFModel extra = MakeTestModel(12, 150, 8, 34, 0.6, 1.1);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  ShardedEngineOptions options = SmallShardedOptions(3);
  options.engine.solvers = {"bmm", "maximus", "lemp"};
  auto sharded = ShardedMipsEngine::Open(users, items, options);
  ASSERT_TRUE(sharded.ok());
  auto unsharded = MipsEngine::Open(users, items, options.engine);
  ASSERT_TRUE(unsharded.ok());

  std::vector<TopKEntry> got(5);
  std::vector<TopKEntry> want(5);
  for (Index u = 0; u < 12; ++u) {
    ASSERT_TRUE(
        (*sharded)->TopKNewUser(extra.users.Row(u), 5, got.data()).ok());
    ASSERT_TRUE(
        (*unsharded)->TopKNewUser(extra.users.Row(u), 5, want.data()).ok());
    for (Index e = 0; e < 5; ++e) {
      EXPECT_EQ(got[static_cast<std::size_t>(e)].item,
                want[static_cast<std::size_t>(e)].item)
          << "user " << u << " entry " << e;
      EXPECT_NEAR(got[static_cast<std::size_t>(e)].score,
                  want[static_cast<std::size_t>(e)].score, 1e-9);
    }
  }
  EXPECT_EQ((*sharded)->stats().new_users_served, 12);
}

TEST(ShardedEngineTest, ExtraWidensGrowthShardsWithoutRedeciding) {
  // LiveCatalog's over-fetch path: 4 growth shards asked for k with
  // `extra` return the exact global top-(k + extra), bit-for-bit the
  // unsharded answer (both candidates are BMM variants, so every shard
  // scores through the same GEMM fold), and no shard re-decides.
  const MFModel model = MakeTestModel(160, 220, 8, 61, /*norm_sigma=*/0.8);
  const MFModel fresh = MakeTestModel(5, 220, 8, 62, 0.8, 1.1);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  ShardedEngineOptions options =
      SmallShardedOptions(4, 5, ShardingStrategy::kGrowth);
  options.engine.solvers = {"bmm", "bmm:batch_rows=16"};
  auto sharded = ShardedMipsEngine::Open(users, items, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto unsharded = MipsEngine::Open(users, items, options.engine);
  ASSERT_TRUE(unsharded.ok());
  constexpr Index kK = 5;
  constexpr Index kExtra = 9;

  const std::vector<Index> batch = {0, 17, 159, 3, 86};
  TopKResult got;
  TopKResult want;
  ASSERT_TRUE((*sharded)->TopK(kK, batch, &got, kExtra).ok());
  ASSERT_TRUE((*unsharded)->TopK(kK, batch, &want, kExtra).ok());
  EXPECT_EQ(got.k(), kK + kExtra);
  ExpectBitIdenticalTopK(got, want);

  ASSERT_TRUE((*sharded)
                  ->TopKNewUsers(fresh.users.data(), fresh.users.rows(), kK,
                                 &got, kExtra)
                  .ok());
  ASSERT_TRUE((*unsharded)
                  ->TopKNewUsers(fresh.users.data(), fresh.users.rows(), kK,
                                 &want, kExtra)
                  .ok());
  EXPECT_EQ(got.k(), kK + kExtra);
  ExpectBitIdenticalTopK(got, want);

  const ShardedMipsEngine::Stats stats = (*sharded)->stats();
  EXPECT_EQ(stats.redecisions, 0);
  EXPECT_EQ(stats.decision_cache_misses, 0);
  int serving_shards = 0;
  for (const auto& shard : stats.shards) {
    if (shard.num_items == 0) continue;
    ++serving_shards;
    EXPECT_EQ(shard.stats.redecisions, 0);
    EXPECT_EQ(shard.stats.decision_cache_size, 1);
  }
  EXPECT_EQ(serving_shards, 4);
  EXPECT_EQ(stats.decision_cache_size, serving_shards);
}

TEST(ShardedEngineTest, DegenerateShardsStayExact) {
  // More shards than items: empty shards get no engine, k larger than
  // every shard pads per shard, and the merged result is still the
  // unsharded answer.
  const MFModel model = MakeTestModel(40, 6, 4, 35);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  ShardedEngineOptions options = SmallShardedOptions(8, 3);
  options.engine.solvers = {"bmm"};
  auto sharded = ShardedMipsEngine::Open(users, items, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  int empty_shards = 0;
  for (int s = 0; s < (*sharded)->num_shards(); ++s) {
    if ((*sharded)->shard_engine(s) == nullptr) {
      ++empty_shards;
      EXPECT_EQ((*sharded)->shard_strategy(s), "");
    }
  }
  EXPECT_EQ(empty_shards, 2);  // 6 items over 8 shards

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());
  for (const Index k : {1, 3, 6, 9}) {  // 9 > |items|: sentinel padding
    TopKResult got;
    TopKResult want;
    ASSERT_TRUE((*sharded)->TopKAll(k, &got).ok());
    ASSERT_TRUE(reference.TopKAll(k, &want).ok());
    ExpectIdenticalTopK(got, want);
  }
}

TEST(ShardedEngineTest, ValidatesArguments) {
  const MFModel model = MakeTestModel(30, 20, 4, 36);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  EXPECT_FALSE(
      ShardedMipsEngine::Open(users, items, SmallShardedOptions(0)).ok());

  auto engine = ShardedMipsEngine::Open(users, items, SmallShardedOptions(2));
  ASSERT_TRUE(engine.ok());
  TopKResult out;
  const std::vector<Index> bad = {0, 30};
  EXPECT_EQ((*engine)->TopK(5, bad, &out).code(), StatusCode::kOutOfRange);
  const std::vector<Index> ok_ids = {0, 29};
  EXPECT_EQ((*engine)->TopK(0, ok_ids, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*engine)->TopK(5, ok_ids, &out, /*extra=*/-2).code(),
            StatusCode::kInvalidArgument);
  std::vector<TopKEntry> row(5);
  EXPECT_EQ((*engine)->TopKNewUser(nullptr, 5, row.data()).code(),
            StatusCode::kInvalidArgument);
  // A NaN or +-Inf component is refused before any shard scores.
  Matrix batch = ::mips::testing::RandomMatrix(2, 4, 64, 0.5);
  batch.Row(1)[2] = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_EQ((*engine)->TopKNewUsers(batch.data(), 2, 5, &out).code(),
            StatusCode::kInvalidArgument);
  batch.Row(1)[2] = -std::numeric_limits<Real>::infinity();
  EXPECT_EQ((*engine)->TopKNewUser(batch.Row(1), 5, row.data()).code(),
            StatusCode::kInvalidArgument);
  const ShardedMipsEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.batches_served, 0);
  EXPECT_EQ(stats.new_users_served, 0);
  EXPECT_EQ(stats.decision_cache_hits + stats.decision_cache_misses, 0);
}

// ------------------------------------------------------ strategy forcing

TEST(ShardedEngineTest, ForceStrategyAppliesToEveryShard) {
  const MFModel model = MakeTestModel(120, 90, 8, 37);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  ShardedEngineOptions options = SmallShardedOptions(3);
  options.engine.solvers = {"bmm", "maximus", "lemp"};
  auto engine = ShardedMipsEngine::Open(users, items, options);
  ASSERT_TRUE(engine.ok());

  EXPECT_FALSE((*engine)->ForceStrategy("fexipro-si").ok());
  ASSERT_TRUE((*engine)->ForceStrategy("lemp").ok());
  for (int s = 0; s < 3; ++s) EXPECT_EQ((*engine)->shard_strategy(s), "lemp");

  // Per-shard override on top: shard 1 pinned to bmm, the rest stay.
  ASSERT_TRUE((*engine)->ForceStrategyOnShard(1, "bmm").ok());
  EXPECT_EQ((*engine)->shard_strategy(0), "lemp");
  EXPECT_EQ((*engine)->shard_strategy(1), "bmm");
  EXPECT_FALSE((*engine)->ForceStrategyOnShard(7, "bmm").ok());

  // Mixed per-shard strategies still merge to the exact global answer.
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());
  TopKResult got;
  TopKResult want;
  ASSERT_TRUE((*engine)->TopKAll(4, &got).ok());
  ASSERT_TRUE(reference.TopKAll(4, &want).ok());
  ExpectIdenticalTopK(got, want);

  (*engine)->ClearForcedStrategy();
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ((*engine)->shard_strategy(s),
              (*engine)->shard_engine(s)->decision_report().chosen);
  }
}

// ------------------------------------------- per-shard OPTIMUS decisions

/// Builds a model whose item catalog is heterogeneous on the axis the
/// paper shows decides the index-vs-BMM race: the first half has
/// perfectly flat norms (nothing for a length-based bound to prune — BMM
/// territory), the second half extreme log-normal norm skew (the index
/// walk terminates after a tiny prefix).  Users are near-isotropic so the
/// flat half cannot be rescued by angle pruning alone.
MFModel MakeSplitNormModel(Index num_users, Index items_per_half, Index f,
                           uint64_t seed) {
  const MFModel flat =
      MakeTestModel(num_users, items_per_half, f, seed, /*norm_sigma=*/0.0,
                    /*dispersion=*/2.0);
  const MFModel skewed =
      MakeTestModel(8, items_per_half, f, seed + 1, /*norm_sigma=*/2.5,
                    /*dispersion=*/2.0);
  MFModel model;
  model.name = "split-norm";
  model.users = flat.users;
  model.items.Resize(2 * items_per_half, f);
  std::memcpy(model.items.Row(0), flat.items.Row(0),
              sizeof(Real) * static_cast<std::size_t>(items_per_half) * f);
  std::memcpy(model.items.Row(items_per_half), skewed.items.Row(0),
              sizeof(Real) * static_cast<std::size_t>(items_per_half) * f);
  return model;
}

TEST(ShardedDecisionTest, NormSkewedShardsChooseDifferentWinners) {
  if (kSanitizerSkewsWallClock) {
    GTEST_SKIP() << "OPTIMUS winner assertions are wall-clock regime "
                    "checks; sanitizer instrumentation slowdown skews them";
  }
  // Contiguous 2-way sharding puts the flat half and the skewed half on
  // different shards; each shard's own OPTIMUS decision should disagree
  // (the whole point of deciding per shard).  The candidates are bmm and
  // maximus deliberately: both are dominated by the same blocked-GEMM
  // kernel, so the per-shard winner is set by MAXIMUS's data-determined
  // visit counts — collapsed bound on flat norms (scan everything, pay
  // clustering overhead on top of BMM's cost), tiny visited prefix under
  // heavy skew — rather than by this machine's GEMM throughput (the
  // AVX-512 degradation that made absolute index-vs-BMM winner
  // assertions unsound; see optimus_test).  The shard size is chosen for
  // the runtime-dispatched kernels: at 27+ GFLOP/s a 2000-item shard
  // costs BMM single-digit microseconds per user and per-query fixed
  // overheads decide the race instead of the regime, so each half
  // carries 8000 items x 48 factors — big enough that scanning
  // everything (BMM on the skewed half) is decisively more arithmetic
  // than MAXIMUS's tiny visited prefix on ANY kernel.  Decisions are
  // still wall-clock measurements over a few dozen sampled users, so the
  // suite's usual three-attempt idiom absorbs scheduler preemptions.
  std::string flat_choice;
  std::string skew_choice;
  for (uint64_t attempt = 0; attempt < 3; ++attempt) {
    const MFModel model =
        MakeSplitNormModel(400, 8000, 48, /*seed=*/41 + 10 * attempt);
    const ConstRowBlock users(model.users);
    const ConstRowBlock items(model.items);
    ShardedEngineOptions options = SmallShardedOptions(2, 10);
    options.engine.solvers = {"bmm", "maximus:clusters=16"};
    options.engine.optimus.l2_cache_bytes = kDefaultL2CacheBytes;
    options.engine.optimus.seed = 123 + attempt;
    auto engine = ShardedMipsEngine::Open(users, items, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    flat_choice = (*engine)->stats().shards[0].opening_choice;
    skew_choice = (*engine)->stats().shards[1].opening_choice;

    // Heterogeneous winners (or not), one exact global answer.
    BmmSolver reference;
    ASSERT_TRUE(reference.Prepare(users, items).ok());
    const std::vector<Index> batch = {0, 99, 399, 7};
    TopKResult got;
    TopKResult want;
    ASSERT_TRUE((*engine)->TopK(10, batch, &got).ok());
    ASSERT_TRUE(reference.TopKForUsers(10, batch, &want).ok());
    ExpectIdenticalTopK(got, want);

    if (flat_choice == "bmm" && skew_choice == "maximus") break;
  }
  EXPECT_EQ(flat_choice, "bmm")
      << "flat-norm shard should fall back to BMM";
  EXPECT_EQ(skew_choice, "maximus")
      << "norm-skewed shard should prune with the index";
}

// --------------------------------------------------------- concurrency
//
// Mirrors engine_test's ConcurrentTopK harness: many client threads with
// mixed k against one ShardedMipsEngine, every answer compared to a
// serial reference, with concurrent stats()/shard_strategy() readers.

struct ConcurrentResult {
  std::atomic<int64_t> status_failures{0};
  std::atomic<int64_t> mismatches{0};
};

void HammerShardedEngine(ShardedMipsEngine* engine,
                         const std::vector<Index>& ks,
                         const std::map<Index, TopKResult>& references,
                         int num_threads, int iterations, Index num_users,
                         ConcurrentResult* result) {
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_threads));
  for (int t = 0; t < num_threads; ++t) {
    clients.emplace_back([&, t]() {
      for (int i = 0; i < iterations; ++i) {
        const Index k = ks[static_cast<std::size_t>(t + i) % ks.size()];
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
            const TopKEntry got_entry = got.Row(static_cast<Index>(r))[e];
            const TopKEntry want_entry = expected.Row(batch[r])[e];
            if (got_entry.item != want_entry.item ||
                std::abs(got_entry.score - want_entry.score) > 1e-9) {
              result->mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    int64_t last_users = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const ShardedMipsEngine::Stats snapshot = engine->stats();
      if (snapshot.users_served < last_users) {
        result->status_failures.fetch_add(1, std::memory_order_relaxed);
      }
      last_users = snapshot.users_served;
      (void)engine->shard_strategy(0);
    }
  });
  for (auto& c : clients) c.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
}

class ConcurrentShardedTopK : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentShardedTopK, MixedKMatchesSerialReference) {
  const int engine_threads = GetParam();
  const Index num_users = 240;
  const MFModel model = MakeTestModel(num_users, 150, 8, 47,
                                      /*norm_sigma=*/0.6);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  ShardedEngineOptions options = SmallShardedOptions(3);
  options.threads = engine_threads;
  options.engine.solvers = {"bmm", "maximus", "lemp"};
  auto engine = ShardedMipsEngine::Open(users, items, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<Index> ks = {3, 5, 9, 12};
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(users, items).ok());
  std::map<Index, TopKResult> references;
  for (const Index k : ks) {
    ASSERT_TRUE(reference.TopKAll(k, &references[k]).ok());
  }

  ConcurrentResult result;
  HammerShardedEngine(engine->get(), ks, references, /*num_threads=*/8,
                      /*iterations=*/24, num_users, &result);
  EXPECT_EQ(result.status_failures.load(), 0);
  EXPECT_EQ(result.mismatches.load(), 0);

  const ShardedMipsEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.batches_served, 8 * 24);
  EXPECT_EQ(stats.users_served, 8 * 24 * 7);
  // Each shard re-decides once per diverging k, serialized by its own
  // decision cache.
  EXPECT_EQ(stats.redecisions,
            static_cast<int64_t>(3 * (ks.size() - 1)));
}

INSTANTIATE_TEST_SUITE_P(ShardedPoolSizes, ConcurrentShardedTopK,
                         ::testing::Values(0, 2));

TEST(ConcurrentShardedTest, ForcedStrategyFlipsStayExact) {
  const Index num_users = 160;
  const MFModel model = MakeTestModel(num_users, 100, 8, 53);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  ShardedEngineOptions options = SmallShardedOptions(2, 4);
  options.engine.solvers = {"bmm", "maximus"};
  auto engine = ShardedMipsEngine::Open(users, items, options);
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
      switch (flips % 3) {
        case 0:
          (void)(*engine)->ForceStrategy("maximus");
          break;
        case 1:
          (void)(*engine)->ForceStrategyOnShard(1, "bmm");
          break;
        default:
          (*engine)->ClearForcedStrategy();
      }
      ++flips;
    }
  });
  ConcurrentResult result;
  HammerShardedEngine(engine->get(), ks, references, /*num_threads=*/4,
                      /*iterations=*/16, num_users, &result);
  stop.store(true, std::memory_order_relaxed);
  flipper.join();
  EXPECT_EQ(result.status_failures.load(), 0);
  EXPECT_EQ(result.mismatches.load(), 0);
}

}  // namespace
}  // namespace mips
