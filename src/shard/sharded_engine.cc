#include "shard/sharded_engine.h"

#include <numeric>
#include <thread>

#include "common/timer.h"
#include "linalg/blas.h"
#include "topk/merge.h"

namespace mips {

StatusOr<std::unique_ptr<ShardedMipsEngine>> ShardedMipsEngine::Open(
    const ConstRowBlock& users, const ConstRowBlock& items,
    const ShardedEngineOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0, got " +
                                   std::to_string(options.threads));
  }

  std::unique_ptr<ShardedMipsEngine> engine(new ShardedMipsEngine());
  engine->users_ = users;
  engine->options_ = options;
  auto partition = ItemPartition::Create(
      items, options.num_shards, options.sharding, options.growth_block);
  MIPS_RETURN_IF_ERROR(partition.status());
  engine->partition_ = std::move(*partition);
  if (options.threads > 0) {
    engine->pool_ = std::make_unique<ThreadPool>(options.threads);
  }

  // Per-shard engines share the sharded engine's pool; each shard's Open
  // runs on its own thread (NOT on the pool — Open waits on the pool for
  // its candidate builds, and waiting from inside a pool task deadlocks),
  // so N shards' candidate indexes build concurrently.
  EngineOptions shard_options = options.engine;
  shard_options.threads = 0;
  shard_options.shared_pool = engine->pool_.get();
  const int num_shards = engine->partition_.num_shards();
  engine->engines_.resize(static_cast<std::size_t>(num_shards));
  std::vector<StatusOr<std::unique_ptr<MipsEngine>>> opened;
  std::vector<int> targets;
  for (int s = 0; s < num_shards; ++s) {
    if (engine->partition_.shard(s).num_items() > 0) targets.push_back(s);
  }
  opened.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    opened.push_back(Status::Internal("shard open did not run"));
  }
  {
    std::vector<std::thread> openers;
    openers.reserve(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      openers.emplace_back([&, i]() {
        opened[i] = MipsEngine::Open(
            users, engine->partition_.shard(targets[i]).items, shard_options);
      });
    }
    for (auto& t : openers) t.join();
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    MIPS_RETURN_IF_ERROR(opened[i].status());
    engine->engines_[static_cast<std::size_t>(targets[i])] =
        std::move(*opened[i]);
    engine->active_shards_.push_back(targets[i]);
  }
  return engine;
}

template <typename ShardQuery>
Status ShardedMipsEngine::ScatterGather(Index width, const ShardQuery& query,
                                        TopKResult* out) {
  // Scatter: each shard answers exact top-`width` over its own items with
  // local ids...
  std::vector<TopKResult> partials(active_shards_.size());
  for (std::size_t i = 0; i < active_shards_.size(); ++i) {
    const int s = active_shards_[i];
    MIPS_RETURN_IF_ERROR(
        query(*engines_[static_cast<std::size_t>(s)], &partials[i]));
    // ...gather: remap to global ids through the partition...
    const ItemShard& shard = partition_.shard(s);
    TopKResult& partial = partials[i];
    for (Index q = 0; q < partial.num_queries(); ++q) {
      TopKEntry* row = partial.Row(q);
      for (Index e = 0; e < width; ++e) {
        if (row[e].item >= 0) row[e].item = shard.ToGlobal(row[e].item);
      }
    }
  }
  // ...and merge: k-way merge per query row under the BetterEntry order,
  // reproducing the unsharded row exactly.
  std::vector<const TopKResult*> results;
  results.reserve(partials.size());
  for (const TopKResult& partial : partials) results.push_back(&partial);
  MergeTopKResults(results, width, out);
  return Status::OK();
}

Status ShardedMipsEngine::TopK(Index k, std::span<const Index> user_ids,
                               TopKResult* out, Index extra) {
  MIPS_RETURN_IF_ERROR(ValidateTopKWidth(k, extra));
  MIPS_RETURN_IF_ERROR(ValidateUserIds(user_ids, users_.rows()));
  WallTimer timer;
  // Every shard decides at the caller's k; only the fetch widens.
  MIPS_RETURN_IF_ERROR(ScatterGather(
      k + extra,
      [&](MipsEngine& engine, TopKResult* partial) {
        return engine.TopK(k, user_ids, partial, extra);
      },
      out));
  {
    MutexLock lock(stats_mu_);
    counters_.serve_seconds += timer.Seconds();
    counters_.batches_served += 1;
    counters_.users_served += static_cast<int64_t>(user_ids.size());
  }
  return Status::OK();
}

Status ShardedMipsEngine::TopKAll(Index k, TopKResult* out) {
  std::vector<Index> ids(static_cast<std::size_t>(users_.rows()));
  std::iota(ids.begin(), ids.end(), 0);
  return TopK(k, ids, out);
}

Status ShardedMipsEngine::TopKNewUser(const Real* user_vector, Index k,
                                      TopKEntry* out_row) {
  TopKResult one;
  MIPS_RETURN_IF_ERROR(TopKNewUsers(user_vector, 1, k, &one));
  const TopKEntry* row = one.Row(0);
  for (Index e = 0; e < k; ++e) out_row[e] = row[e];
  return Status::OK();
}

Status ShardedMipsEngine::TopKNewUsers(const Real* user_vectors,
                                       Index num_rows, Index k,
                                       TopKResult* out, Index extra) {
  MIPS_RETURN_IF_ERROR(ValidateTopKWidth(k, extra));
  MIPS_RETURN_IF_ERROR(
      ValidateNewUserBatch(user_vectors, num_rows, num_factors()));
  WallTimer timer;
  // Scatter the whole batch: each shard answers all rows at once (its own
  // strategy decision is keyed on this batch shape), then remap and merge
  // exactly as the known-user path does.
  MIPS_RETURN_IF_ERROR(ScatterGather(
      k + extra,
      [&](MipsEngine& engine, TopKResult* partial) {
        return engine.TopKNewUsers(user_vectors, num_rows, k, partial, extra);
      },
      out));
  {
    MutexLock lock(stats_mu_);
    counters_.serve_seconds += timer.Seconds();
    counters_.new_users_served += num_rows;
  }
  return Status::OK();
}

Status ShardedMipsEngine::ForceStrategy(const std::string& name_or_spec) {
  // All shards were opened from the same candidate list, so the first
  // shard's answer decides for everyone: either the name matches a
  // candidate everywhere or nowhere.
  for (const int s : active_shards_) {
    MIPS_RETURN_IF_ERROR(
        engines_[static_cast<std::size_t>(s)]->ForceStrategy(name_or_spec));
  }
  return Status::OK();
}

Status ShardedMipsEngine::ForceStrategyOnShard(
    int shard, const std::string& name_or_spec) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("shard index out of range: " +
                              std::to_string(shard) + " (engine has " +
                              std::to_string(num_shards()) + " shards)");
  }
  MipsEngine* target = engines_[static_cast<std::size_t>(shard)].get();
  if (target == nullptr) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) + " is empty (no engine)");
  }
  return target->ForceStrategy(name_or_spec);
}

void ShardedMipsEngine::ClearForcedStrategy() {
  for (const int s : active_shards_) {
    engines_[static_cast<std::size_t>(s)]->ClearForcedStrategy();
  }
}

std::string ShardedMipsEngine::shard_strategy(int s) const {
  const MipsEngine* engine = shard_engine(s);
  return engine == nullptr ? std::string() : engine->strategy();
}

ShardedMipsEngine::Stats ShardedMipsEngine::stats() const {
  Stats snapshot;
  {
    MutexLock lock(stats_mu_);
    snapshot.batches_served = counters_.batches_served;
    snapshot.users_served = counters_.users_served;
    snapshot.new_users_served = counters_.new_users_served;
    snapshot.serve_seconds = counters_.serve_seconds;
  }
  snapshot.shards.resize(static_cast<std::size_t>(num_shards()));
  for (int s = 0; s < num_shards(); ++s) {
    ShardSnapshot& shard = snapshot.shards[static_cast<std::size_t>(s)];
    shard.num_items = partition_.shard(s).num_items();
    const MipsEngine* engine = engines_[static_cast<std::size_t>(s)].get();
    if (engine == nullptr) continue;
    shard.strategy = engine->strategy();
    shard.opening_choice = engine->decision_report().chosen;
    shard.stats = engine->stats();
    snapshot.redecisions += shard.stats.redecisions;
    snapshot.decision_cache_hits += shard.stats.decision_cache_hits;
    snapshot.decision_cache_misses += shard.stats.decision_cache_misses;
    snapshot.decision_cache_evictions += shard.stats.decision_cache_evictions;
    snapshot.decision_cache_invalidations +=
        shard.stats.decision_cache_invalidations;
    snapshot.decision_cache_size += shard.stats.decision_cache_size;
    snapshot.gemm_kernel = shard.stats.gemm_kernel;  // process-global
  }
  return snapshot;
}

}  // namespace mips
