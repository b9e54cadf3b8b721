// Tests for src/catalog: LiveCatalog's exactness contract (every answer
// after a mutation sequence is bit-for-bit a cold Open() over the
// equivalent catalog — across solver specs, k, sharded/unsharded and
// pooled/single-threaded epochs, exact duplicate-score ties, and
// removals that vacate heap entries),
// the rebuild/swap/drain lifecycle and its stats counters, concurrent
// mutators + queriers (the TSan target), and CatalogSegment persistence:
// byte-exact round trips through the atomic-rename protocol and clean
// Status (never UB) on torn or corrupted files.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/live_catalog.h"
#include "catalog/segment.h"
#include "core/engine.h"
#include "linalg/blas.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::MakeTestModel;
using ::mips::testing::RandomMatrix;

LiveCatalogOptions SmallOptions(
    std::vector<std::string> solvers = {"bmm", "maximus"},
    int num_shards = 1, int threads = 0) {
  LiveCatalogOptions options;
  options.engine.k = 5;
  options.engine.solvers = std::move(solvers);
  options.engine.optimus.l2_cache_bytes = 16 * 1024;
  options.num_shards = num_shards;
  if (num_shards > 1) options.sharding = ShardingStrategy::kGrowth;
  options.threads = threads;
  return options;
}

/// Two BMM variants: OPTIMUS still decides at Open and per k, but either
/// winner scores through the GEMM fold the buffer layers use, so bit-exact
/// comparisons with a cold open hold whichever variant the timing picks.
/// With {"bmm", "maximus"} a loaded host sometimes lets MAXIMUS win, and
/// its scores then differ from the cold open's in the last ulp.
const std::vector<std::string> kBmmVariants = {"bmm", "bmm:batch_rows=16"};

std::string TempPath(const std::string& stem) {
  return ::testing::TempDir() + stem + "." + std::to_string(::getpid());
}

std::vector<Real> RowVector(const Matrix& m, Index row) {
  return std::vector<Real>(m.Row(row), m.Row(row) + m.cols());
}

/// A LiveCatalog paired with a shadow map of what the live catalog must
/// contain (id -> vector, ascending by construction of std::map).  Every
/// mutation goes through both; ExpectMatchesColdOpen then checks the
/// catalog's answers bit-for-bit against a freshly opened catalog over
/// the shadow's snapshot.
class ShadowedCatalog {
 public:
  ShadowedCatalog(const MFModel& model, const LiveCatalogOptions& options)
      : users_(model.users), options_(options) {
    auto catalog =
        LiveCatalog::Open(ConstRowBlock(model.users),
                          ConstRowBlock(model.items), options);
    EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
    live_ = std::move(*catalog);
    for (Index i = 0; i < model.items.rows(); ++i) {
      shadow_[i] = RowVector(model.items, i);
    }
  }

  LiveCatalog& live() { return *live_; }

  Index Insert(const std::vector<Real>& vector) {
    auto id = live_->Insert(vector);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    shadow_[*id] = vector;
    return *id;
  }
  void Update(Index id, const std::vector<Real>& vector) {
    const Status status = live_->Update(id, vector);
    EXPECT_TRUE(status.ok()) << status.ToString();
    shadow_[id] = vector;
  }
  void Remove(Index id) {
    const Status status = live_->Remove(id);
    EXPECT_TRUE(status.ok()) << status.ToString();
    shadow_.erase(id);
  }

  Index live_items() const { return static_cast<Index>(shadow_.size()); }

  std::vector<Index> LiveIds() const {
    std::vector<Index> ids;
    ids.reserve(shadow_.size());
    for (const auto& [id, vector] : shadow_) ids.push_back(id);
    return ids;
  }
  std::vector<Real> VectorOf(Index id) const { return shadow_.at(id); }

  /// The equivalent cold catalog: live rows in ascending-id order, plus
  /// the row -> id map the comparison remaps through.
  Matrix SnapshotMatrix(std::vector<Index>* ids) const {
    const Index f = users_.cols();
    Matrix snapshot(static_cast<Index>(shadow_.size()), f);
    ids->clear();
    Index row = 0;
    for (const auto& [id, vector] : shadow_) {
      std::memcpy(snapshot.Row(row), vector.data(),
                  sizeof(Real) * static_cast<std::size_t>(f));
      ids->push_back(id);
      ++row;
    }
    return snapshot;
  }

  /// The mutated catalog vs a cold Open() over the equivalent snapshot,
  /// for known-user batches, a known-user subset, and a new-user batch,
  /// at each k.  The cold catalog's compacted row ids are remapped
  /// through the snapshot id list before comparing; item ids must then
  /// be EXACTLY equal.  With `bit_exact` the scores must be EXACTLY
  /// equal too (EXPECT_EQ, no tolerance — the GEMM-fold contract,
  /// including which of several exactly tied items each row reports);
  /// without it scores match to accumulation-order tolerance (an index
  /// solver's internal fold differs from the buffer layers' canonical GEMM
  /// fold in the last ulp — the same boundary the sharded engine's
  /// cross-shard merge has always had).
  void ExpectMatchesColdOpen(std::vector<Index> ks, const Matrix& new_users,
                             bool bit_exact = true) {
    std::vector<Index> ids;
    const Matrix snapshot = SnapshotMatrix(&ids);
    auto cold = LiveCatalog::Open(ConstRowBlock(users_),
                                  ConstRowBlock(snapshot), options_);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const std::vector<Index> subset = {0, users_.rows() - 1, 1};
    for (const Index k : ks) {
      TopKResult got, want;
      ASSERT_TRUE(live_->TopKAll(k, &got).ok());
      ASSERT_TRUE((*cold)->TopKAll(k, &want).ok());
      ExpectIdentical(got, want, ids, bit_exact);

      ASSERT_TRUE(live_->TopK(k, subset, &got).ok());
      ASSERT_TRUE((*cold)->TopK(k, subset, &want).ok());
      ExpectIdentical(got, want, ids, bit_exact);

      ASSERT_TRUE(
          live_->TopKNewUsers(new_users.data(), new_users.rows(), k, &got)
              .ok());
      ASSERT_TRUE(
          (*cold)->TopKNewUsers(new_users.data(), new_users.rows(), k, &want)
              .ok());
      ExpectIdentical(got, want, ids, bit_exact);

      std::vector<TopKEntry> got_row(static_cast<std::size_t>(k));
      std::vector<TopKEntry> want_row(static_cast<std::size_t>(k));
      ASSERT_TRUE(
          live_->TopKNewUser(new_users.Row(0), k, got_row.data()).ok());
      ASSERT_TRUE(
          (*cold)->TopKNewUser(new_users.Row(0), k, want_row.data()).ok());
      for (Index e = 0; e < k; ++e) {
        ExpectSameScore(got_row[static_cast<std::size_t>(e)].score,
                        want_row[static_cast<std::size_t>(e)].score,
                        bit_exact);
        ExpectRemappedItem(got_row[static_cast<std::size_t>(e)],
                           want_row[static_cast<std::size_t>(e)], ids);
      }
    }
  }

  /// Answers recorded earlier at k — `known` for the known users
  /// `user_ids`, `fresh` for the batch `new_users` — against a cold Open()
  /// over the current snapshot, bit for bit.
  void ExpectRecordedMatchColdOpen(Index k, const std::vector<Index>& user_ids,
                                   const TopKResult& known,
                                   const Matrix& new_users,
                                   const TopKResult& fresh) {
    std::vector<Index> ids;
    const Matrix snapshot = SnapshotMatrix(&ids);
    auto cold = LiveCatalog::Open(ConstRowBlock(users_),
                                  ConstRowBlock(snapshot), options_);
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    TopKResult want;
    ASSERT_TRUE((*cold)->TopK(k, user_ids, &want).ok());
    ExpectIdentical(known, want, ids, /*bit_exact=*/true);
    ASSERT_TRUE(
        (*cold)->TopKNewUsers(new_users.data(), new_users.rows(), k, &want)
            .ok());
    ExpectIdentical(fresh, want, ids, /*bit_exact=*/true);
  }

 private:
  static void ExpectRemappedItem(const TopKEntry& got, const TopKEntry& want,
                                 const std::vector<Index>& ids) {
    if (want.item < 0) {
      EXPECT_EQ(got.item, want.item);
    } else {
      EXPECT_EQ(got.item, ids[static_cast<std::size_t>(want.item)]);
    }
  }

  static void ExpectSameScore(Real got, Real want, bool bit_exact) {
    if (bit_exact || std::isinf(want)) {
      EXPECT_EQ(got, want);
    } else {
      EXPECT_NEAR(got, want, 1e-9);
    }
  }

  static void ExpectIdentical(const TopKResult& got, const TopKResult& want,
                              const std::vector<Index>& ids,
                              bool bit_exact) {
    ASSERT_EQ(got.num_queries(), want.num_queries());
    ASSERT_EQ(got.k(), want.k());
    for (Index q = 0; q < got.num_queries(); ++q) {
      for (Index e = 0; e < got.k(); ++e) {
        ExpectSameScore(got.Row(q)[e].score, want.Row(q)[e].score,
                        bit_exact);
        ExpectRemappedItem(got.Row(q)[e], want.Row(q)[e], ids);
      }
    }
  }

  ConstRowBlock users_;
  LiveCatalogOptions options_;
  std::unique_ptr<LiveCatalog> live_;
  std::map<Index, std::vector<Real>> shadow_;
};

/// One scripted mutation sequence exercising every layer interaction:
/// inserts (incl. exact-duplicate vectors -> tied scores), updates of
/// base and buffered rows, removals of base rows, buffered rows, and
/// previously updated rows.
void ApplyMutationScript(ShadowedCatalog* catalog, Index f, uint64_t seed,
                         bool exact_dups = true) {
  const Matrix fresh = RandomMatrix(6, f, seed, 0.8);
  // Targets are drawn from the CURRENTLY live ids so the script composes
  // (phase 3 re-runs it after earlier removals).
  const std::vector<Index> live = catalog->LiveIds();
  ASSERT_GE(live.size(), 6u);
  // Exact duplicate of a live row: ties bit-for-bit with it, and the
  // merge must report the lower id first — exactly what a cold open over
  // a snapshot holding both rows does.  Exact cross-layer ties are only
  // meaningful under the GEMM-fold (bit-exact) contract; index-solver
  // runs perturb the copies so sub-ulp fold differences cannot flip the
  // tie order the comparison expects.
  const auto near_copy = [&](std::vector<Real> vector) {
    if (!exact_dups) vector[0] *= Real{1} + Real{1e-3};
    return vector;
  };
  const Index dup = catalog->Insert(near_copy(catalog->VectorOf(live[3])));
  const Index a = catalog->Insert(RowVector(fresh, 0));
  const Index b = catalog->Insert(RowVector(fresh, 1));
  catalog->Update(live[1], RowVector(fresh, 2));     // base row -> buffer
  catalog->Update(a, RowVector(fresh, 3));           // buffered row, in place
  catalog->Remove(live[2]);                          // base row
  catalog->Remove(b);                                // buffered (slot refilled)
  catalog->Remove(live[0]);                          // vacates heap entries
  catalog->Insert(near_copy(catalog->VectorOf(live[5])));  // second tie
  catalog->Update(dup, RowVector(fresh, 4));         // updated duplicate
  catalog->Remove(live[1]);                          // remove an UPDATED row
}

/// Folds every live row into the base, then removes every entry of one
/// base shard's top k for user 0 (the shard holding the user's best item;
/// rows that tie the shard's k-th score go too), so that shard's mask
/// holds its whole top k.  Scores are one Dot: a tie the solvers break
/// differently in the last bit is removed either way.
void RemoveOneShardsTopK(ShadowedCatalog* catalog, const MFModel& model,
                         const LiveCatalogOptions& options, Index k) {
  ASSERT_TRUE(catalog->live().Rebuild().ok());
  std::vector<Index> ids;
  const Matrix snapshot = catalog->SnapshotMatrix(&ids);
  auto partition =
      ItemPartition::Create(ConstRowBlock(snapshot), options.num_shards,
                            options.sharding, options.growth_block);
  ASSERT_TRUE(partition.ok()) << partition.status().ToString();
  const Index f = model.num_factors();
  std::vector<Real> scores(static_cast<std::size_t>(snapshot.rows()));
  for (Index r = 0; r < snapshot.rows(); ++r) {
    scores[static_cast<std::size_t>(r)] =
        Dot(model.users.Row(0), snapshot.Row(r), f);
  }
  const auto best = std::max_element(scores.begin(), scores.end());
  const int shard = partition->ShardOfItem(
      static_cast<Index>(best - scores.begin()));
  std::vector<Real> shard_scores;
  for (Index r = 0; r < snapshot.rows(); ++r) {
    if (partition->ShardOfItem(r) == shard) {
      shard_scores.push_back(scores[static_cast<std::size_t>(r)]);
    }
  }
  std::sort(shard_scores.rbegin(), shard_scores.rend());
  const Real kth = shard_scores[std::min<std::size_t>(
      static_cast<std::size_t>(k), shard_scores.size()) - 1];
  for (Index r = 0; r < snapshot.rows(); ++r) {
    if (partition->ShardOfItem(r) == shard &&
        scores[static_cast<std::size_t>(r)] >= kth) {
      catalog->Remove(ids[static_cast<std::size_t>(r)]);
    }
  }
}

class LiveCatalogExactness
    : public ::testing::TestWithParam<
          std::tuple<std::string, int, int, ShardingStrategy>> {};

// The core contract: after each phase of a mutation sequence — buffered
// only, post-rebuild, buffered-on-rebuilt — every answer matches a cold
// Open() at several k (k both below and above the live item count, so
// sentinel padding is covered too).  "bmm" runs fully bit-exact
// including exact cross-layer ties (the GEMM fold is the canonical one
// the buffer layers use); "maximus" and "optimus" assert id-exactness with
// accumulation-tolerance scores, since an index solver's internal score
// fold legitimately differs from the canonical fold in the last ulp
// (and OPTIMUS may pick either winner depending on measured timings).
// sindi and hybrid score through the GEMM fold too, so they run bit-exact
// like "bmm"; LEMP, FEXIPRO and naive rescore with one Dot.  Phase 4
// removes a whole base shard's top k, so that shard is served under a
// mask of at least k rows.
TEST_P(LiveCatalogExactness, MutateThenQueryMatchesColdOpen) {
  const auto& [solver, num_shards, threads, sharding] = GetParam();
  const MFModel model = MakeTestModel(24, 40, 8, 11);
  std::vector<std::string> solvers =
      solver == "optimus" ? std::vector<std::string>{"bmm", "maximus"}
                          : std::vector<std::string>{solver};
  const bool bit_exact =
      solver == "bmm" || solver == "sindi" || solver == "hybrid";
  LiveCatalogOptions options = SmallOptions(solvers, num_shards, threads);
  if (num_shards > 1) options.sharding = sharding;
  ShadowedCatalog catalog(model, options);
  const Matrix new_users = RandomMatrix(3, model.num_factors(), 42, 0.7);

  // Phase 1: mutations buffered, base epoch untouched.
  ApplyMutationScript(&catalog, model.num_factors(), 77, bit_exact);
  catalog.ExpectMatchesColdOpen({1, 4, 10}, new_users, bit_exact);

  // Phase 2: fold into a fresh epoch (new OPTIMUS decision) and re-check.
  ASSERT_TRUE(catalog.live().Rebuild().ok());
  catalog.ExpectMatchesColdOpen({1, 4, 10}, new_users, bit_exact);

  // Phase 3: new buffer on top of the rebuilt epoch.
  ApplyMutationScript(&catalog, model.num_factors(), 78, bit_exact);
  catalog.ExpectMatchesColdOpen({3, catalog.live_items() + 5}, new_users,
                                bit_exact);

  // Phase 4: every entry of one base shard's top 4 for user 0 removed.
  RemoveOneShardsTopK(&catalog, model, options, 4);
  catalog.ExpectMatchesColdOpen({4, 10}, new_users, bit_exact);
}

std::string ExactnessName(
    const ::testing::TestParamInfo<LiveCatalogExactness::ParamType>& info) {
  std::string name = std::get<0>(info.param);
  std::replace_if(
      name.begin(), name.end(),
      [](char c) { return !std::isalnum(static_cast<unsigned char>(c)); },
      '_');
  name += "_shards" + std::to_string(std::get<1>(info.param)) + "_threads" +
          std::to_string(std::get<2>(info.param));
  if (std::get<3>(info.param) == ShardingStrategy::kHash) name += "_hash";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, LiveCatalogExactness,
    ::testing::Combine(::testing::Values("bmm", "maximus", "optimus",
                                         "lemp:forced_algorithm=2",
                                         "fexipro-si", "naive", "sindi",
                                         "hybrid"),
                       ::testing::Values(1, 3), ::testing::Values(0, 2),
                       ::testing::Values(ShardingStrategy::kGrowth)),
    ExactnessName);

INSTANTIATE_TEST_SUITE_P(
    HashShards, LiveCatalogExactness,
    ::testing::Combine(::testing::Values("bmm", "maximus", "optimus",
                                         "lemp:forced_algorithm=2",
                                         "fexipro-si", "naive", "sindi",
                                         "hybrid"),
                       ::testing::Values(3), ::testing::Values(0, 2),
                       ::testing::Values(ShardingStrategy::kHash)),
    ExactnessName);

TEST(LiveCatalogTest, EmptyStartServesFromBufferThenRebuilds) {
  const MFModel model = MakeTestModel(10, 8, 6, 3);
  MFModel empty;  // users only: the catalog starts engine-less
  empty.users = RandomMatrix(10, 6, 3, 0.5);
  ShadowedCatalog catalog(empty, SmallOptions(kBmmVariants));
  const Matrix new_users = RandomMatrix(2, 6, 9, 0.5);

  // All sentinels while truly empty.
  TopKResult result;
  ASSERT_TRUE(catalog.live().TopKAll(4, &result).ok());
  for (Index q = 0; q < result.num_queries(); ++q) {
    for (Index e = 0; e < result.k(); ++e) {
      EXPECT_EQ(result.Row(q)[e].item, -1);
    }
  }

  for (Index i = 0; i < model.items.rows(); ++i) {
    catalog.Insert(RowVector(model.items, i));
  }
  catalog.ExpectMatchesColdOpen({2, 12}, new_users);
  ASSERT_TRUE(catalog.live().Rebuild().ok());
  catalog.ExpectMatchesColdOpen({2, 12}, new_users);
}

TEST(LiveCatalogTest, RemoveEverythingThenRepopulate) {
  const MFModel model = MakeTestModel(8, 6, 4, 5);
  ShadowedCatalog catalog(model, SmallOptions(kBmmVariants));
  for (Index i = 0; i < 6; ++i) catalog.Remove(i);
  EXPECT_EQ(catalog.live().num_items(), 0);

  TopKResult result;
  ASSERT_TRUE(catalog.live().TopKAll(3, &result).ok());
  for (Index q = 0; q < result.num_queries(); ++q) {
    EXPECT_EQ(result.Row(q)[0].item, -1);
  }

  // Rebuild of an all-dead catalog must produce a working engine-less
  // epoch, and ids must NOT be reused afterwards.
  ASSERT_TRUE(catalog.live().Rebuild().ok());
  const Index id = catalog.Insert(RowVector(model.items, 0));
  EXPECT_GE(id, 6);
  catalog.ExpectMatchesColdOpen({1, 3}, RandomMatrix(2, 4, 17, 0.5));
}

TEST(LiveCatalogTest, MutationValidation) {
  const MFModel model = MakeTestModel(6, 10, 4, 9);
  auto catalog = LiveCatalog::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items),
                                   SmallOptions());
  ASSERT_TRUE(catalog.ok());
  LiveCatalog& live = **catalog;

  EXPECT_TRUE(live.Insert(std::vector<Real>(3)).status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(live.Update(0, std::vector<Real>(5)).code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(live.Update(99, std::vector<Real>(4)).code() == StatusCode::kNotFound);
  EXPECT_TRUE(live.Remove(99).code() == StatusCode::kNotFound);

  // NaN and +-Inf never enter the catalog: a refused Insert consumes no
  // id, a refused Update buffers nothing, and a non-finite query row is
  // refused before the buffer layers or the base engine score it.
  for (const Real bad : {std::numeric_limits<Real>::quiet_NaN(),
                         std::numeric_limits<Real>::infinity(),
                         -std::numeric_limits<Real>::infinity()}) {
    std::vector<Real> vector = RowVector(model.items, 0);
    vector[2] = bad;
    const auto inserted = live.Insert(vector);
    EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(inserted.status().message().find("factor 2"),
              std::string::npos)
        << inserted.status().ToString();
    EXPECT_EQ(live.Update(1, vector).code(), StatusCode::kInvalidArgument)
        << bad;
    Matrix probes = RandomMatrix(2, 4, 23, 0.5);
    probes.Row(1)[3] = bad;
    TopKResult out;
    EXPECT_EQ(live.TopKNewUsers(probes.data(), 2, 3, &out).code(),
              StatusCode::kInvalidArgument);
    std::vector<TopKEntry> row(3);
    EXPECT_EQ(live.TopKNewUser(probes.Row(1), 3, row.data()).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(live.stats().buffered_rows, 0);
  const auto id = live.Insert(RowVector(model.items, 0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 10);  // the first unused id

  ASSERT_TRUE(live.Remove(4).ok());
  EXPECT_TRUE(live.Remove(4).code() == StatusCode::kNotFound);  // already dead
  EXPECT_TRUE(live.Update(4, std::vector<Real>(4)).code() == StatusCode::kNotFound);

  // Dead ids stay dead across a rebuild.
  ASSERT_TRUE(live.Rebuild().ok());
  EXPECT_TRUE(live.Remove(4).code() == StatusCode::kNotFound);

  TopKResult out;
  EXPECT_TRUE(live.TopK(0, {}, &out).code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(live.TopK(3, std::vector<Index>{-1}, &out).code() == StatusCode::kOutOfRange);
  EXPECT_TRUE(live.TopKNewUsers(nullptr, 1, 3, &out).code() == StatusCode::kInvalidArgument);
  ASSERT_TRUE(live.TopK(3, {}, &out).ok());  // empty batch is fine
  EXPECT_EQ(out.num_queries(), 0);
}

TEST(LiveCatalogTest, DeadIdsNeverCreateDecisionKeys) {
  // The base engine is masked by the dead ids, and its strategy stays
  // keyed on the caller's k: queries at the opening k leave exactly
  // the opening decision cached however the dead count moves, so the
  // swap retires one decision per serving engine.  A query at another k
  // still decides (and caches) its own key.
  for (const int num_shards : {1, 2}) {
    const MFModel model = MakeTestModel(8, 24, 4, 27);
    ShadowedCatalog catalog(model, SmallOptions(kBmmVariants, num_shards));
    LiveCatalog& live = catalog.live();
    const Matrix probes = RandomMatrix(2, 4, 29, 0.5);
    TopKResult out;
    for (Index id = 0; id < 6; ++id) {
      catalog.Remove(id);
      catalog.Update(23 - id, RowVector(model.items, id));
      ASSERT_TRUE(live.TopKAll(5, &out).ok());
      ASSERT_TRUE(live.TopKNewUsers(probes.data(), 2, 5, &out).ok());
    }
    EXPECT_EQ(live.stats().dead_masked, 12);
    catalog.ExpectMatchesColdOpen({5}, probes);
    ASSERT_TRUE(live.Rebuild().ok());
    EXPECT_EQ(live.stats().decisions_retired, num_shards)
        << num_shards << " shards";

    catalog.Remove(6);
    ASSERT_TRUE(live.TopKAll(5, &out).ok());
    ASSERT_TRUE(live.TopKAll(3, &out).ok());  // a new key per shard
    ASSERT_TRUE(live.Rebuild().ok());
    EXPECT_EQ(live.stats().decisions_retired, num_shards + 2 * num_shards)
        << num_shards << " shards";
  }
}

TEST(LiveCatalogTest, StatsCountersTrackLifecycle) {
  const MFModel model = MakeTestModel(10, 16, 6, 21);
  ShadowedCatalog catalog(model, SmallOptions());
  LiveCatalog& live = catalog.live();

  LiveCatalog::Stats stats = live.stats();
  EXPECT_EQ(stats.catalog_epoch, 0);
  EXPECT_EQ(stats.base_items, 16);
  EXPECT_EQ(stats.live_items, 16);
  EXPECT_EQ(stats.buffered_rows, 0);
  EXPECT_FALSE(stats.base_strategy.empty());

  catalog.Insert(RowVector(model.items, 0));
  catalog.Update(2, RowVector(model.items, 1));
  catalog.Remove(3);
  stats = live.stats();
  EXPECT_EQ(stats.inserts, 1);
  EXPECT_EQ(stats.updates, 1);
  EXPECT_EQ(stats.removes, 1);
  EXPECT_EQ(stats.live_items, 16);   // +1 insert, -1 remove
  EXPECT_EQ(stats.buffered_rows, 2); // insert + update rows
  EXPECT_EQ(stats.dead_masked, 2);   // updated id + removed id

  // Prime the decision cache so the swap has something to retire, then
  // rebuild: epoch bumps, buffer folds, the retired epoch drains (no
  // query in flight holds a reference).
  TopKResult out;
  ASSERT_TRUE(live.TopKAll(4, &out).ok());
  ASSERT_TRUE(live.Rebuild().ok());
  stats = live.stats();
  EXPECT_EQ(stats.catalog_epoch, 1);
  EXPECT_EQ(stats.swaps, 1);
  EXPECT_EQ(stats.rebuilds_started, 1);
  EXPECT_EQ(stats.epochs_drained, 1);
  EXPECT_GE(stats.decisions_retired, 1);
  EXPECT_EQ(stats.base_items, 16);
  EXPECT_EQ(stats.buffered_rows, 0);
  EXPECT_EQ(stats.dead_masked, 0);
  EXPECT_FALSE(stats.rebuild_running);

  // Nothing buffered: Rebuild is a no-op, not a new epoch.
  ASSERT_TRUE(live.Rebuild().ok());
  EXPECT_EQ(live.stats().swaps, 1);

  // A removed buffered row leaves nothing behind: the layer's last row
  // moves into its slot, and an update then finds the moved row there.
  catalog.Remove(catalog.Insert(RowVector(model.items, 4)));
  EXPECT_EQ(live.stats().buffered_rows, 0);
  const Index first = catalog.Insert(RowVector(model.items, 5));
  const Index second = catalog.Insert(RowVector(model.items, 6));
  catalog.Remove(first);
  catalog.Update(second, RowVector(model.items, 7));
  EXPECT_EQ(live.stats().buffered_rows, 1);
  // Either candidate may serve the epochs, so scores match to the index
  // solvers' accumulation tolerance.
  catalog.ExpectMatchesColdOpen({4}, RandomMatrix(2, 6, 43, 0.5),
                                /*bit_exact=*/false);
}

TEST(LiveCatalogTest, EmptyStartRefusesInvalidEngineOptions) {
  // A catalog that opens with no items opens no engine, yet it refuses
  // the engine options its first rebuild would fail on, with the Status
  // MipsEngine::Open gives for them over a non-empty model.
  const MFModel model = MakeTestModel(10, 8, 6, 3);
  const Matrix no_items;
  std::vector<EngineOptions> cases(6, SmallOptions().engine);
  cases[0].k = 0;
  cases[1].solvers.clear();
  cases[2].solvers = {"bmm", "no-such-solver"};
  cases[3].solvers = {"bmm", "maximus:warp_speed=9"};
  cases[4].warm_batch_shapes = {4, 0};
  cases[5].threads = -1;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    auto want = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), cases[c]);
    ASSERT_FALSE(want.ok()) << "case " << c;
    LiveCatalogOptions options = SmallOptions();
    options.engine = cases[c];
    auto got = LiveCatalog::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(no_items), options);
    ASSERT_FALSE(got.ok()) << "case " << c;
    EXPECT_EQ(got.status().code(), want.status().code()) << "case " << c;
    EXPECT_EQ(got.status().message(), want.status().message())
        << "case " << c;
  }
}

// The sealed layer exists only while a rebuild is in flight, so each
// round queries inside that window: the round's 12th insert seals the
// buffer and starts the rebuild, newer mutations then mask sealed rows,
// and the answers recorded before the swap must match a cold open bit
// for bit.  The loud rows (sigma 10) fill every top-5, so a sealed layer
// not masked by the active layer's dead set reports dead rows.  4,000
// items keep the rebuild (fold, two Prepares, an OPTIMUS decision) busy
// while the round runs; the queries stay at the opening k, since any
// other k decides inline and the rebuild would win the race.
TEST(LiveCatalogTest, SealedLayerIsMaskedByNewerMutations) {
  const MFModel model = MakeTestModel(4096, 4000, 8, 61);
  LiveCatalogOptions options = SmallOptions(kBmmVariants);
  options.rebuild_threshold = 12;
  ShadowedCatalog catalog(model, options);
  LiveCatalog& live = catalog.live();
  const std::vector<Index> users = {0, 7, 4095};
  const Matrix new_users = RandomMatrix(3, 8, 62, 0.5);
  int in_flight = 0;
  for (int round = 0; round < 3; ++round) {
    const auto seed = static_cast<uint64_t>(round);
    const Matrix loud = RandomMatrix(12, 8, 100 + seed, 10);
    const Matrix quiet = RandomMatrix(4, 8, 200 + seed, 0.5);
    std::vector<Index> ids;
    ids.reserve(12);
    for (Index i = 0; i < 12; ++i) {
      ids.push_back(catalog.Insert(RowVector(loud, i)));
    }
    const bool sealed_before = live.stats().rebuild_running;
    for (std::size_t i = 0; i < 5; ++i) catalog.Remove(ids[i]);
    for (std::size_t i = 5; i < 8; ++i) {
      catalog.Update(ids[i], RowVector(quiet, static_cast<Index>(i - 5)));
    }
    // A base row updated into the active layer, then removed from it
    // after the exact copy of a sealed row (a bit-for-bit tie) is
    // appended behind it, so the copy moves into its slot.
    const Index base = round;
    catalog.Update(base, RowVector(quiet, 3));
    catalog.Insert(catalog.VectorOf(ids[8]));
    catalog.Remove(base);

    TopKResult known, fresh;
    ASSERT_TRUE(live.TopK(5, users, &known).ok());
    ASSERT_TRUE(live.TopKNewUsers(new_users.data(), 3, 5, &fresh).ok());
    if (sealed_before && live.stats().rebuild_running) ++in_flight;

    // The first Rebuild joins the in-flight one (or folds the round's
    // mutations if it already swapped); the second folds what is left.
    ASSERT_TRUE(live.Rebuild().ok());
    ASSERT_TRUE(live.Rebuild().ok());
    EXPECT_EQ(live.stats().buffered_rows, 0);
    catalog.ExpectRecordedMatchColdOpen(5, users, known, new_users, fresh);
  }
  EXPECT_GE(in_flight, 1) << "no round queried while a rebuild was running";
}

TEST(LiveCatalogTest, ThresholdTriggersBackgroundRebuild) {
  const MFModel model = MakeTestModel(8, 12, 4, 31);
  LiveCatalogOptions options = SmallOptions({"bmm"});
  options.rebuild_threshold = 3;
  ShadowedCatalog catalog(model, options);
  for (int i = 0; i < 9; ++i) {
    catalog.Insert(RowVector(model.items, i % 12));
  }
  // Let the in-flight background rebuild (if any) finish, then verify at
  // least one threshold rebuild actually ran and answers stayed exact.
  ASSERT_TRUE(catalog.live().Rebuild().ok());
  EXPECT_GE(catalog.live().stats().rebuilds_started, 1);
  EXPECT_GE(catalog.live().stats().swaps, 1);
  catalog.ExpectMatchesColdOpen({4}, RandomMatrix(2, 4, 55, 0.5));
}

// The TSan target: mutators, queriers, explicit rebuilds and segment
// saves racing.  Queries are checked for internal consistency (sorted
// rows, no duplicate ids, no sentinel followed by a real entry) —
// bit-exactness against a racing shadow is meaningless mid-race and is
// covered by the deterministic suites above.  Two candidates, so the
// queriers' fresh ks re-decide inline on each epoch's engines while a
// stats() poller reads their strategies.  The saver folds whatever
// layers are in play (a sealed one while a rebuild is in flight), and
// every file it writes must reopen.
void HammerLiveCatalog(int num_shards,
                       ShardingStrategy sharding = ShardingStrategy::kGrowth) {
  const MFModel model = MakeTestModel(12, 30, 6, 41);
  LiveCatalogOptions options = SmallOptions(kBmmVariants, num_shards);
  if (num_shards > 1) options.sharding = sharding;
  options.rebuild_threshold = 8;
  auto opened = LiveCatalog::Open(ConstRowBlock(model.users),
                                  ConstRowBlock(model.items), options);
  ASSERT_TRUE(opened.ok());
  LiveCatalog& live = **opened;

  constexpr int kMutators = 2;
  constexpr int kQueriers = 3;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> queriers_left{kQueriers};
  std::vector<std::thread> threads;
  threads.reserve(kMutators + kQueriers + 3);
  for (int t = 0; t < kMutators; ++t) {
    threads.emplace_back([&live, &model, t] {
      const Matrix fresh =
          RandomMatrix(kOpsPerThread, model.num_factors(),
                       1000 + static_cast<uint64_t>(t), 0.6);
      std::vector<Index> mine;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::vector<Real> row = RowVector(fresh, i);
        if (i % 3 == 0 || mine.empty()) {
          auto id = live.Insert(row);
          ASSERT_TRUE(id.ok());
          mine.push_back(*id);
        } else if (i % 3 == 1) {
          // May race with nothing: ids this thread inserted are only
          // ever removed by this thread, so Update must succeed.
          ASSERT_TRUE(live.Update(mine.back(), row).ok());
        } else {
          ASSERT_TRUE(live.Remove(mine.back()).ok());
          mine.pop_back();
        }
      }
    });
  }
  for (int t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&live, &model, &queriers_left, t] {
      // Counts this querier out on every exit, failed ASSERTs included,
      // so the poller below always stops.
      struct Done {
        std::atomic<int>* left;
        ~Done() { left->fetch_sub(1); }
      } done{&queriers_left};
      const Matrix probes = RandomMatrix(2, model.num_factors(),
                                         2000 + static_cast<uint64_t>(t), 0.5);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Fresh ks: most are new decision keys on the serving epoch.
        const Index k = 1 + ((i * kQueriers + t) % 13);
        TopKResult out;
        if (i % 2 == 0) {
          ASSERT_TRUE(live.TopKAll(k, &out).ok());
        } else {
          ASSERT_TRUE(
              live.TopKNewUsers(probes.data(), probes.rows(), k, &out).ok());
        }
        for (Index q = 0; q < out.num_queries(); ++q) {
          const TopKEntry* row = out.Row(q);
          bool sentinel_seen = false;
          std::vector<Index> ids;
          for (Index e = 0; e < out.k(); ++e) {
            if (row[e].item < 0) {
              sentinel_seen = true;
              continue;
            }
            ASSERT_FALSE(sentinel_seen) << "entry after sentinel";
            if (e > 0 && row[e - 1].item >= 0) {
              ASSERT_GE(row[e - 1].score, row[e].score);
            }
            ids.push_back(row[e].item);
          }
          std::sort(ids.begin(), ids.end());
          ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) ==
                      ids.end())
              << "duplicate id in a merged row";
        }
      }
    });
  }
  // stats() poller: reads every shard engine's strategy while queries
  // re-decide and mutations land.
  threads.emplace_back([&live, &queriers_left] {
    while (queriers_left.load() > 0) {
      const LiveCatalog::Stats stats = live.stats();
      ASSERT_FALSE(stats.base_strategy.empty());
      ASSERT_GE(stats.live_items, 0);
    }
  });
  threads.emplace_back([&live] {
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(live.Rebuild().ok());
      (void)live.stats();
    }
  });
  const std::string path =
      TempPath("segment_hammer" + std::to_string(num_shards) +
               ToString(options.sharding));
  threads.emplace_back([&live, &queriers_left, &path] {
    do {
      ASSERT_TRUE(live.SaveSegment(path).ok());
      ASSERT_TRUE(CatalogSegment::Open(path).ok());
    } while (queriers_left.load() > 0);
  });
  for (auto& thread : threads) thread.join();

  ASSERT_TRUE(live.SaveSegment(path).ok());
  auto saved = CatalogSegment::Open(path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->rows(), live.num_items());
  std::remove(path.c_str());

  ASSERT_TRUE(live.Rebuild().ok());
  const LiveCatalog::Stats stats = live.stats();
  EXPECT_EQ(stats.live_items, live.num_items());
  EXPECT_EQ(stats.buffered_rows, 0);
}

TEST(LiveCatalogConcurrencyTest, ConcurrentMutatorsAndQueriers) {
  HammerLiveCatalog(/*num_shards=*/1);
  HammerLiveCatalog(/*num_shards=*/2);
}

// Hash shards take their part of each query's mask by a gather through
// their global ids, while the dead sets it is built from change.
TEST(LiveCatalogConcurrencyTest, ConcurrentMutatorsAndQueriersOnHashShards) {
  HammerLiveCatalog(/*num_shards=*/2, ShardingStrategy::kHash);
}

// ------------------------------------------------------- CatalogSegment

TEST(CatalogSegmentTest, RoundTripIsByteExact) {
  const Matrix items = RandomMatrix(17, 6, 71, 0.8);
  const std::string path = TempPath("segment_roundtrip");
  ASSERT_TRUE(CatalogSegment::Write(ConstRowBlock(items), path).ok());

  auto segment = CatalogSegment::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_EQ(segment->rows(), 17);
  ASSERT_EQ(segment->cols(), 6);
  EXPECT_EQ(std::memcmp(segment->items().Row(0), items.data(),
                        sizeof(Real) * items.size()),
            0);
  std::vector<Real> norms(17);
  RowNorms(items.data(), items.rows(), items.cols(), norms.data());
  EXPECT_EQ(std::memcmp(segment->norms().data(), norms.data(),
                        sizeof(Real) * norms.size()),
            0);

  // Deterministic writer: a second write of the same matrix produces a
  // byte-identical file (the format has no timestamps or randomness).
  const std::string path2 = TempPath("segment_roundtrip2");
  ASSERT_TRUE(CatalogSegment::Write(ConstRowBlock(items), path2).ok());
  std::ifstream f1(path, std::ios::binary), f2(path2, std::ios::binary);
  const std::string bytes1((std::istreambuf_iterator<char>(f1)), {});
  const std::string bytes2((std::istreambuf_iterator<char>(f2)), {});
  EXPECT_EQ(bytes1, bytes2);
  ASSERT_GT(bytes1.size(), 64u);

  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(CatalogSegmentTest, TornAndCorruptFilesFailCleanly) {
  const Matrix items = RandomMatrix(9, 4, 73, 0.8);
  const std::string path = TempPath("segment_torn");
  ASSERT_TRUE(CatalogSegment::Write(ConstRowBlock(items), path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();

  const auto write_bytes = [&](const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
  };

  // Torn writes: truncation anywhere — mid-header, mid-payload, one byte
  // short — must yield a clean InvalidArgument, never UB.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{7}, std::size_t{40}, std::size_t{64},
        bytes.size() / 2, bytes.size() - 1}) {
    write_bytes(bytes.substr(0, keep));
    EXPECT_TRUE(CatalogSegment::Open(path).status().code() == StatusCode::kInvalidArgument)
        << "truncated to " << keep << " bytes";
  }

  // Corruption: bad magic, bad version, a flipped header byte (checksum
  // catches it), and trailing garbage (size self-check catches it).
  std::string bad = bytes;
  bad[0] = 'X';
  write_bytes(bad);
  EXPECT_TRUE(CatalogSegment::Open(path).status().code() == StatusCode::kInvalidArgument);
  bad = bytes;
  bad[8] = static_cast<char>(0x7F);
  write_bytes(bad);
  EXPECT_TRUE(CatalogSegment::Open(path).status().code() == StatusCode::kInvalidArgument);
  bad = bytes;
  bad[17] ^= static_cast<char>(0x40);  // rows field, checksum-protected
  write_bytes(bad);
  EXPECT_TRUE(CatalogSegment::Open(path).status().code() == StatusCode::kInvalidArgument);
  bad = bytes + std::string(16, '\0');
  write_bytes(bad);
  EXPECT_TRUE(CatalogSegment::Open(path).status().code() == StatusCode::kInvalidArgument);

  EXPECT_TRUE(CatalogSegment::Open(path + ".missing").status().code() == StatusCode::kIOError);
  std::remove(path.c_str());
}

/// Stores the segment header checksum, FNV-1a over header bytes
/// [0, 40), at byte 40.
void RecomputeHeaderChecksum(char* header) {
  uint64_t checksum = 0xCBF29CE484222325ull;
  for (int i = 0; i < 40; ++i) {
    checksum ^= static_cast<unsigned char>(header[i]);
    checksum *= 0x100000001B3ull;
  }
  std::memcpy(header + 40, &checksum, sizeof(checksum));
}

TEST(CatalogSegmentTest, HostileDimensionsWithValidChecksumFailCleanly) {
  // A header that passes every field check up to the dimensions (magic,
  // version, size, a recomputed FNV-1a checksum) but names extents whose
  // payload size overflows int64, or that do not fit an Index, must be a
  // clean InvalidArgument: no signed overflow, no narrowing cast.
  const std::string path = TempPath("segment_hostile");
  const auto write_header = [&path](int64_t rows, int64_t cols) {
    char header[64] = {};
    std::memcpy(header, "MIPSSEG1", 8);
    const uint32_t version = 1;
    const uint32_t header_bytes = 64;
    const int64_t payload_bytes = 0;
    std::memcpy(header + 8, &version, sizeof(version));
    std::memcpy(header + 12, &header_bytes, sizeof(header_bytes));
    std::memcpy(header + 16, &rows, sizeof(rows));
    std::memcpy(header + 24, &cols, sizeof(cols));
    std::memcpy(header + 32, &payload_bytes, sizeof(payload_bytes));
    RecomputeHeaderChecksum(header);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(header, sizeof(header));
  };

  constexpr int64_t k2To30 = int64_t{1} << 30;
  constexpr int64_t k2To31 = int64_t{1} << 31;
  for (const auto& [rows, cols] :
       std::vector<std::pair<int64_t, int64_t>>{
           {k2To30, k2To30}, {k2To31, k2To31}, {1, k2To31}}) {
    write_header(rows, cols);
    EXPECT_EQ(CatalogSegment::Open(path).status().code(),
              StatusCode::kInvalidArgument)
        << "rows " << rows << " cols " << cols;
  }
  std::remove(path.c_str());
}

TEST(CatalogSegmentTest, NonFinitePayloadFailsCleanly) {
  // A segment whose header is intact (the checksum covers the header
  // only, and is recomputed here all the same) but whose payload holds a
  // NaN item value or an infinite norm must be a clean InvalidArgument
  // naming the cell: a non-finite score cannot be ranked, so serving such
  // a catalog would drop items from answers without an error.
  const Index rows = 9;
  const Index cols = 4;
  const Matrix items = RandomMatrix(rows, cols, 79, 0.8);
  const std::string path = TempPath("segment_non_finite");
  ASSERT_TRUE(CatalogSegment::Write(ConstRowBlock(items), path).ok());
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  ASSERT_TRUE(CatalogSegment::Open(path).ok());

  const std::size_t items_at = 64;
  const std::size_t norms_at =
      items_at + sizeof(Real) * static_cast<std::size_t>(rows * cols);
  const auto open_with = [&](std::size_t at, Real value) {
    std::string bad = bytes;
    std::memcpy(bad.data() + at, &value, sizeof(value));
    RecomputeHeaderChecksum(bad.data());
    EXPECT_EQ(bad.compare(0, 64, bytes, 0, 64), 0);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    out.close();
    return CatalogSegment::Open(path).status();
  };

  const Status nan_item = open_with(
      items_at + sizeof(Real) * static_cast<std::size_t>(5 * cols + 2),
      std::numeric_limits<Real>::quiet_NaN());
  EXPECT_EQ(nan_item.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_item.message().find("row 5, column 2"), std::string::npos)
      << nan_item.ToString();

  const Status inf_norm = open_with(norms_at + sizeof(Real) * 3,
                                    std::numeric_limits<Real>::infinity());
  EXPECT_EQ(inf_norm.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(inf_norm.message().find("norm of row 3"), std::string::npos)
      << inf_norm.ToString();
  std::remove(path.c_str());
}

TEST(CatalogSegmentTest, LiveCatalogSaveReopensBitExact) {
  const MFModel model = MakeTestModel(10, 20, 6, 83);
  ShadowedCatalog catalog(model, SmallOptions(kBmmVariants));
  ApplyMutationScript(&catalog, model.num_factors(), 91);

  const std::string path = TempPath("segment_catalog");
  ASSERT_TRUE(catalog.live().SaveSegment(path).ok());

  // The segment holds exactly the live rows in ascending-id order.
  std::vector<Index> ids;
  const Matrix snapshot = catalog.SnapshotMatrix(&ids);
  auto segment = CatalogSegment::Open(path);
  ASSERT_TRUE(segment.ok()) << segment.status().ToString();
  ASSERT_EQ(segment->rows(), snapshot.rows());
  ASSERT_EQ(segment->cols(), snapshot.cols());
  EXPECT_EQ(std::memcmp(segment->items().Row(0), snapshot.data(),
                        sizeof(Real) * snapshot.size()),
            0);

  // A catalog reopened directly over the mapped pages answers bit-for-bit
  // like the mutated original (modulo the id compaction the save applied).
  auto reopened = LiveCatalog::Open(ConstRowBlock(model.users),
                                    segment->items(),
                                    SmallOptions(kBmmVariants));
  ASSERT_TRUE(reopened.ok());
  TopKResult got, want;
  ASSERT_TRUE(catalog.live().TopKAll(5, &got).ok());
  ASSERT_TRUE((*reopened)->TopKAll(5, &want).ok());
  ASSERT_EQ(got.num_queries(), want.num_queries());
  for (Index q = 0; q < got.num_queries(); ++q) {
    for (Index e = 0; e < got.k(); ++e) {
      EXPECT_EQ(got.Row(q)[e].score, want.Row(q)[e].score);
      if (want.Row(q)[e].item < 0) {
        EXPECT_EQ(got.Row(q)[e].item, want.Row(q)[e].item);
      } else {
        EXPECT_EQ(got.Row(q)[e].item,
                  ids[static_cast<std::size_t>(want.Row(q)[e].item)]);
      }
    }
  }

  // SaveSegment with buffered mutations in the active layer is exercised
  // by saving right after an insert.  No rebuild is in flight here, so
  // there is no sealed layer; HammerLiveCatalog saves while rebuilds
  // seal one.
  catalog.Insert(RowVector(model.items, 7));
  ASSERT_TRUE(catalog.live().SaveSegment(path).ok());
  auto again = CatalogSegment::Open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->rows(), snapshot.rows() + 1);

  std::remove(path.c_str());
}

TEST(CatalogSegmentTest, SaveEmptyCatalogFails) {
  const MFModel model = MakeTestModel(6, 4, 4, 99);
  ShadowedCatalog catalog(model, SmallOptions());
  for (Index i = 0; i < 4; ++i) catalog.Remove(i);
  EXPECT_TRUE(catalog.live()
                  .SaveSegment(TempPath("segment_empty"))
                  .code() == StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mips
