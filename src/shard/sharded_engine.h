// ShardedMipsEngine: scatter/gather exact MIPS over an item-sharded
// catalog, with an independent OPTIMUS decision per shard.
//
// The paper's core result is that the index-vs-BMM winner depends on the
// data — norm skew, dimensionality, k (Figure 2/5) — so a sharded catalog
// should not make one global decision.  Each shard here is a full
// MipsEngine over (all users, that shard's items): it builds its own
// candidate indexes, runs its own OPTIMUS decision, and may pick a
// different solver than its neighbors (a norm-skewed shard prunes with
// LEMP while a flat shard falls back to BMM).  stats() surfaces every
// shard's winner, re-decisions and decision-cache counters so that
// heterogeneity is observable, not hidden; the served counters are the
// sharded engine's own, counted once at its entry (ServedStats), so a
// shard's read 0.
//
// Serving is scatter/gather: every call form (ServingFacade's, checked
// once at this entry) fans its rows, known users or new vectors alike,
// across the shards' serve bodies; each shard answers exact top-k over
// its items (local ids), ids are remapped to global through the
// partition, and the per-shard rows are k-way merged (topk/merge.h) into
// the exact global top-k.  Every item lives in exactly one shard and
// every layer — heap eviction, strict pruning bounds, row extraction,
// merge — uses the library-wide BetterEntry tie order, so the merged
// result is bit-for-bit the unsharded engine's answer, including which
// of several exactly tied items is reported.  This holds for every
// solver family: solvers that prune on partial sums (LEMP's incremental
// pruning) or in an item-set-dependent transform space (FEXIPRO's SVD
// rotation) rescore each survivor with one Dot against the original
// vectors before it enters the heap, so where a shard's heap fills, or
// how its rotation turns, can never shift a reported score by an ulp
// and flip an exact cross-shard tie.
//
// Threading: the sharded engine owns one pool shared by every shard
// engine (EngineOptions::shared_pool) — shard candidate indexes build
// concurrently during Open (each shard's Open runs on its own thread,
// its candidate Prepares on the shared pool), and at query time each
// shard's intra-batch parallelism draws from the same pool.  The scatter
// itself visits shards sequentially on the calling thread: per-shard
// work already multiplexes onto the pool, and a serving deployment gets
// its cross-shard concurrency from many simultaneous callers — the same
// contract as MipsEngine (PR 2), with no risk of waiting on the pool
// from inside a pool task.  The known cost of that contract carries
// over too: ThreadPool::Wait is global-idle, so under a pool (threads >
// 0) one caller's intra-batch wait also drains other callers' queued
// chunks; the per-caller task group on the ROADMAP would decouple them
// and additionally allow a parallel scatter.
//
// Thread safety mirrors MipsEngine: after Open, TopK / TopKAll /
// TopKNewUser(s) / stats() / ForceStrategy* may be called from any number
// of threads concurrently.
//
// This is the one engine type the serving composites hold (LiveCatalog's
// epochs): with num_shards = 1 it is the unsharded engine — one
// MipsEngine over every item, whose answers the single-input merge
// passes through unchanged — so no caller forks on "sharded or not".

#ifndef MIPS_SHARD_SHARDED_ENGINE_H_
#define MIPS_SHARD_SHARDED_ENGINE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "shard/partition.h"

namespace mips {

/// Configuration for ShardedMipsEngine::Open.
struct ShardedEngineOptions {
  /// Number of item shards (>= 1; 1, the default, is the unsharded engine
  /// behind the sharded interface, the form unsharded composites hold).
  int num_shards = 1;
  /// Item placement policy (see shard/partition.h).
  ShardingStrategy sharding = ShardingStrategy::kContiguous;
  /// Pinned block size for kGrowth placement (0 = derive from the item
  /// count at Open); ignored by the other strategies.
  Index growth_block = 0;
  /// Per-shard engine configuration (decision k, candidate specs,
  /// optimus knobs, shape-keyed decisions).  `threads` and `shared_pool`
  /// are overridden: every shard runs on the sharded engine's own pool.
  EngineOptions engine;
  /// Worker threads in the pool shared by all shard engines
  /// (0 = single-threaded).
  int threads = 0;
};

/// ShardedMipsEngine::Open's option checks: num_shards >= 1, threads >= 0,
/// growth_block >= 0, then ValidateEngineOptions on `engine` (a negative
/// engine.threads is refused too, though the shards override it).
/// LiveCatalog::Open runs them as well, so a catalog opened with no items
/// refuses what a rebuild would.
Status ValidateShardedOptions(const ShardedEngineOptions& options);

/// Exact MIPS over an item-sharded catalog; see the file comment.
class ShardedMipsEngine final : public ServingFacade {
 public:
  /// Partitions the items, opens one MipsEngine per non-empty shard
  /// (concurrently), and runs each shard's OPTIMUS decision.  The model
  /// views must outlive the engine.
  static StatusOr<std::unique_ptr<ShardedMipsEngine>> Open(
      const ConstRowBlock& users, const ConstRowBlock& items,
      const ShardedEngineOptions& options = {});

  /// Forces every shard onto the candidate named by solver name or exact
  /// opening spec.  All shards share the same candidate list, so this
  /// either applies everywhere or fails everywhere (NotFound).
  Status ForceStrategy(const std::string& name_or_spec);
  /// Forces a single shard, leaving the others on their own decisions
  /// (operator escape hatch: pin one degenerate shard without giving up
  /// per-shard optimization elsewhere).
  Status ForceStrategyOnShard(int shard, const std::string& name_or_spec);
  /// Returns every shard to decision-driven selection.
  void ClearForcedStrategy();

  int num_shards() const { return partition_.num_shards(); }
  const ItemPartition& partition() const { return partition_; }
  /// The engine serving shard s, or null for an empty shard.
  /// Precondition: 0 <= s < num_shards() (asserted, like Matrix::Row).
  const MipsEngine* shard_engine(int s) const {
    assert(s >= 0 && s < num_shards());
    return engines_[static_cast<std::size_t>(s)].get();
  }
  /// Strategy currently serving shard s ("" for an empty shard).
  /// Precondition: 0 <= s < num_shards() (asserted).
  std::string shard_strategy(int s) const;

  Index num_items() const { return partition_.num_items(); }

  /// Aggregate + per-shard serving statistics.
  struct ShardSnapshot {
    Index num_items = 0;
    /// Strategy serving the shard's decision k right now ("" if empty).
    std::string strategy;
    /// The shard's opening OPTIMUS winner ("" if empty).
    std::string opening_choice;
    /// The shard's decision counters (its served fields read 0).
    MipsEngine::Stats stats;
  };
  /// served() (one batch = one scatter/gather; serve_seconds covers
  /// scatter, gather and merge) plus the shards' decisions.
  struct Stats : ServedStats {
    /// Sums over shards (each shard's own counters are in `shards`).
    int64_t redecisions = 0;
    int64_t decision_cache_hits = 0;
    int64_t decision_cache_misses = 0;
    int64_t decision_cache_evictions = 0;
    /// Cached decisions across shards right now (LiveCatalog counts a
    /// retiring epoch's as decisions_retired).
    int64_t decision_cache_size = 0;
    /// The process-global GEMM micro-kernel every shard's GEMMs dispatch
    /// to ("" when every shard is empty).
    std::string gemm_kernel;
    std::vector<ShardSnapshot> shards;
  };
  Stats stats() const;

 private:
  /// Each catalog epoch serves the catalog's checked queries.
  friend class LiveCatalog;

  ShardedMipsEngine() = default;

  /// Scatters the rows to every non-empty shard's MipsEngine::Serve (each
  /// decision keyed on k), each under its part of the mask (global item
  /// ids): a contiguous or growth shard's is a slice rebased by its
  /// offset, a hash shard's is gathered through its ascending global ids.
  /// Remaps each shard's k-entry rows to global ids and merges them into
  /// *out.
  Status Serve(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;

  ItemPartition partition_;
  std::unique_ptr<ThreadPool> pool_;
  /// One engine per shard; null for empty shards.
  std::vector<std::unique_ptr<MipsEngine>> engines_;
  /// Indices of non-empty shards (scatter order).
  std::vector<int> active_shards_;
};

}  // namespace mips

#endif  // MIPS_SHARD_SHARDED_ENGINE_H_
