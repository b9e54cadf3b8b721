// MipsEngine: the one configuration-driven entry point for exact MIPS
// serving.
//
// Callers hand Open() a model plus candidate strategies *as specs*
// ("bmm", "maximus:clusters=64", ...).  The engine builds every
// candidate via the solver registry (concurrently, on the engine's pool,
// when threads > 0), runs the OPTIMUS decision once at the configured k,
// owns the solvers and the optional thread pool, and then serves:
//
//   * TopK(k, user_ids)   — mini-batches of known users at any k.  When
//     a call's k diverges from the k the decision was made at, the
//     engine re-runs the (cheap, sampling-based) decision for the new k
//     and caches the winner — or, with a single candidate, serves it.
//     Either way every answer stays exact.
//     A trailing `extra` widens each row to k + extra entries without
//     touching the decision, which stays keyed on k (see TopK).
//   * TopKAll(k)          — every prepared user.
//   * TopKNewUser(...)    — a vector outside the prepared user matrix
//     (Section III-E), served by the chosen solver's TopKNewUsers:
//     MAXIMUS's dynamic walk for the MAXIMUS family, a dense scoring row
//     otherwise.
//
// ForceStrategy() overrides the optimizer by candidate name (benches,
// lesion studies, operator escape hatch); stats() snapshots cumulative
// serving counters.  ShardedMipsEngine (shard/sharded_engine.h) holds
// one MipsEngine per item shard, and the serving composites above it
// (LiveCatalog) hold a ShardedMipsEngine — num_shards = 1 when unsharded
// — so none of them branches on "sharded or not".
//
// Thread safety (the contract the multi-client server relies on):
//
//   * After Open() returns, TopK / TopKAll / TopKNewUser / stats() /
//     strategy() may be called from any number of threads concurrently.
//     Candidate indexes are read-only at query time; the per-k decision
//     cache is guarded by a shared mutex so the hot path (k already
//     decided) takes only a shared lock, and the exclusive lock is held
//     only while a brand-new k runs its Optimus::Decide.  Concurrent
//     callers of other, already-cached ks briefly queue behind that
//     decision; exactness is never affected.
//   * stats() counters are atomics; the returned snapshot is internally
//     consistent per field (not across fields).
//   * ForceStrategy / ClearForcedStrategy are safe to call concurrently
//     with queries; in-flight batches may finish on the previous
//     strategy.
//   * The `threads` pool is shared by all candidates and by concurrent
//     callers: a batch's ParallelFor chunks simply interleave with other
//     batches' chunks in the pool's FIFO queue.

#ifndef MIPS_CORE_ENGINE_H_
#define MIPS_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/optimus.h"
#include "solvers/solver.h"

namespace mips {

/// Argument checks shared by the serving facades (MipsEngine,
/// ShardedMipsEngine, LiveCatalog), so each rejects the same inputs with
/// the same message before any scoring runs.  The new-user vector check,
/// ValidateNewUserBatch, is in linalg/blas.h.
///
/// A result width: k > 0, and 0 <= extra with k + extra representable.
Status ValidateTopKWidth(Index k, Index extra);
/// Known-user ids: each in [0, num_users) (OutOfRange naming the id).
Status ValidateUserIds(std::span<const Index> ids, Index num_users);

/// Configuration for MipsEngine::Open.
struct EngineOptions {
  /// The k the opening OPTIMUS decision is made at (queries may use any
  /// k; a new k is decided and cached at its first query).
  Index k = 10;
  /// Candidate strategies as registry specs.  One candidate skips the
  /// decision; two or more run OPTIMUS.
  std::vector<std::string> solvers = {"bmm", "maximus"};
  /// Optimizer knobs for the opening (and any per-k re-) decision.
  OptimusOptions optimus;
  /// Worker threads owned by the engine and shared by all candidates
  /// (0 = single-threaded).  Also used to build the candidate indexes
  /// concurrently during Open.  Ignored when `shared_pool` is set.
  int threads = 0;
  /// Optional externally owned worker pool.  When non-null the engine
  /// uses it instead of creating its own (and `threads` is ignored); the
  /// pool must outlive the engine.  ShardedMipsEngine uses this to run N
  /// shard engines on one pool.  The caller must not Open() the engine
  /// from inside a task running ON this pool — Open waits on the pool for
  /// the candidate builds, and ThreadPool::Wait from inside a task
  /// deadlocks.
  ThreadPool* shared_pool = nullptr;
  /// When true, per-k decisions additionally key on the REALIZED BATCH
  /// SHAPE: a query's row count is bucketed to the next power of two
  /// (capped at 128: larger batches share the cap bucket's decision,
  /// since amortization has saturated by then) and each (k, bucket) pair
  /// gets its own sampling decision, measured on a bucket-sized batch
  /// (Optimus::Decide's `sample_users`).  This is the paper's central
  /// trade-off surfacing at serve time: a 64-row coalesced batch
  /// amortizes the GEMM's item-panel sweep and may pick BMM where each
  /// singleton picked an index probe.  Off by default — the population-
  /// scale per-k decision (bucket 0) then serves every shape, preserving
  /// the pre-existing behavior.  Shape-keyed decisions share the one LRU
  /// cache (kDecisionCacheCapacity) with the per-k ones.
  /// BatchingEngine (serve/batching_engine.h) turns this on for its
  /// backend.
  bool batch_shape_decisions = false;
  /// Expected batch row counts to PRE-decide at Open(), so the first
  /// request at each shape finds a cached winner instead of paying the
  /// sampling decision inline.  Each entry is bucketed exactly like a
  /// live query (ShapeBucket; duplicates and same-bucket shapes collapse)
  /// and decided at the opening k.  Entries must be positive.  Only
  /// meaningful with batch_shape_decisions = true and >= 2 candidates —
  /// otherwise every shape already shares the opening decision and the
  /// list warms nothing.
  std::vector<Index> warm_batch_shapes;
};

/// A long-lived exact-MIPS serving engine over one (users, items) model.
/// The model views must outlive the engine.  See the file comment for the
/// thread-safety contract.
class MipsEngine {
 public:
  /// Upper bound on cached per-(k, shape) decisions, the pinned opening
  /// decision included (it is never evicted).  When a new key's decision
  /// would exceed it, the least-recently-used key is evicted and a later
  /// query there re-decides, so an adversarial stream of distinct ks
  /// pins bounded memory.
  static constexpr std::size_t kDecisionCacheCapacity = 64;

  /// Builds the candidates from their specs, prepares them (in parallel
  /// on the engine pool when threads > 0), and runs the opening OPTIMUS
  /// decision.  Spec errors (unknown solver, unknown or ill-typed
  /// parameter) are returned verbatim from the registry.
  static StatusOr<std::unique_ptr<MipsEngine>> Open(
      const ConstRowBlock& users, const ConstRowBlock& items,
      const EngineOptions& options = {});

  /// Exact top-K for a mini-batch of known users (ids into the engine's
  /// user matrix), served by the strategy decided for this k.  Safe for
  /// concurrent callers.
  ///
  /// `extra` over-fetches without moving the decision: the strategy is
  /// looked up for (k, batch shape) exactly as with extra = 0 — decided
  /// inline only on a real miss — and each row of *out then holds the
  /// exact top-(k + extra) entries.  A caller that filters rows
  /// afterwards (LiveCatalog masks up to `extra` dead ids per row) thus
  /// never creates a decision key per filter width.  InvalidArgument for
  /// a negative `extra` or one that overflows k + extra.
  Status TopK(Index k, std::span<const Index> user_ids, TopKResult* out,
              Index extra = 0);

  /// Exact top-K for every prepared user.
  Status TopKAll(Index k, TopKResult* out);

  /// Exact top-K for a user vector that is NOT in the prepared user
  /// matrix.  `out_row` must hold k entries.  Serves through the same
  /// code path as a 1-row TopKNewUsers call, so a singleton answer is
  /// bit-for-bit the row a coalesced batch would produce for the same
  /// vector.
  Status TopKNewUser(const Real* user_vector, Index k, TopKEntry* out_row);

  /// Exact top-K for a mini-batch of `num_rows` new-user vectors, stored
  /// contiguously row-major (num_rows x num_factors) at `user_vectors`.
  /// This is the serve-side coalescing path (serve/batching_engine.h),
  /// served by the decided solver's MipsSolver::TopKNewUsers: a
  /// MAXIMUS-family strategy runs the exact dynamic-user walk per row;
  /// every other strategy scores the whole batch with one blocked GEMM
  /// against the item matrix — the batching win the paper's
  /// Clipper-style setting exists to exploit.  Row r of *out depends only
  /// on row r of the input, so results are bit-for-bit identical whether
  /// a vector is served alone or coalesced into any batch.  Safe for
  /// concurrent callers.
  /// `extra` widens each row to k + extra entries with the decision kept
  /// on k, as in TopK.  Rows holding a NaN or +-Inf component are
  /// rejected (InvalidArgument) before any scoring.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out, Index extra = 0);

  /// Overrides the optimizer: every subsequent query uses the candidate
  /// whose solver name — or, for tuned variants of the same solver,
  /// whose exact opening spec — matches `name_or_spec`.  NotFound if no
  /// candidate matches.
  Status ForceStrategy(const std::string& name_or_spec);
  /// Returns to decision-driven strategy selection.
  void ClearForcedStrategy();

  /// Name of the strategy serving the engine's decision k right now
  /// (the forced strategy when one is set).
  const std::string& strategy() const EXCLUDES(decision_mu_);
  /// The opening decision trace (empty estimates for single-candidate
  /// engines).
  const OptimusReport& decision_report() const { return report_; }
  /// Solver names of the candidates, in spec order.  Two tuned variants
  /// of the same solver share a name; candidate_specs() disambiguates.
  const std::vector<std::string>& candidate_names() const { return names_; }
  /// The opening specs, verbatim, in order.
  const std::vector<std::string>& candidate_specs() const { return specs_; }

  Index num_users() const { return users_.rows(); }
  Index num_items() const { return items_.rows(); }
  Index num_factors() const { return items_.cols(); }

  /// Snapshot of the cumulative serving statistics.  Each field is
  /// individually consistent; fields may be mutually skewed by in-flight
  /// requests.
  struct Stats {
    int64_t batches_served = 0;
    int64_t users_served = 0;
    int64_t new_users_served = 0;
    /// Per-k OPTIMUS re-decisions triggered by diverging query ks.
    int64_t redecisions = 0;
    double serve_seconds = 0;
    double redecision_seconds = 0;
    /// Decision-cache accounting: a hit is a query whose (k, shape)
    /// already has a current cached winner; a miss triggers either a
    /// re-decision or, with a single candidate, the opening-winner
    /// fallback.  A cached winner is retired in exactly two ways: LRU
    /// eviction (keys dropped to keep the cache within
    /// kDecisionCacheCapacity) and invalidation (below).  Size is the
    /// current entry count.
    int64_t decision_cache_hits = 0;
    int64_t decision_cache_misses = 0;
    int64_t decision_cache_evictions = 0;
    /// Cached winners re-decided because the GEMM kernel was re-installed
    /// after they were measured (ForceGemmKernel mid-flight): the
    /// throughput regime they were decided under no longer exists.  Each
    /// one also counts as a miss.
    int64_t decision_cache_invalidations = 0;
    int64_t decision_cache_size = 0;
    /// The GEMM micro-kernel installed at snapshot time ("portable",
    /// "avx2", "avx512") — the throughput regime every wall-clock
    /// decision in this engine was measured under.
    std::string gemm_kernel;
    /// Item-catalog representation of the strategy serving the engine's
    /// decision k right now ("dense", "sparse", "hybrid") — the forced
    /// strategy's when one is set, else the opening winner's.
    std::string representation;
  };
  Stats stats() const EXCLUDES(decision_mu_);

 private:
  MipsEngine() = default;

  /// Decision-cache key: the query k plus the realized-batch-shape
  /// bucket (0 = the population-scale decision; a power of two when
  /// batch_shape_decisions keys on shape).
  using DecisionKey = std::pair<Index, Index>;
  /// The pinned opening decision's key.
  DecisionKey OpeningKey() const { return {options_.k, 0}; }
  /// Shape bucket for a batch of `rows` (0 when shape-keying is off).
  Index ShapeBucket(Index rows) const;

  /// Largest shape bucket when batch_shape_decisions is set.
  static constexpr Index kMaxShapeBucket = 128;

  /// Index into solvers_ of the strategy serving a k/batch-shape pair
  /// (decides and caches on a miss).  Lock-free-ish hot path: shared
  /// lock on a cache hit, exclusive lock (serializing the decision) on a
  /// miss or a winner measured under a since-replaced GEMM kernel.
  StatusOr<std::size_t> StrategyFor(Index k, Index batch_rows)
      EXCLUDES(decision_mu_);

  /// The one OPTIMUS decision site (opening, warm shapes, cache misses):
  /// measures the prepared candidates at key.first on a population-sized
  /// sample (bucket 0) or on exactly key.second users, and returns the
  /// winner's index into solvers_.  *report (optional) gets the trace.
  StatusOr<std::size_t> Decide(DecisionKey key, OptimusReport* report) const;

  struct CachedDecision;
  /// Whether `entry` was measured under a GEMM kernel that has since been
  /// re-installed (always false with a single candidate) — the one
  /// staleness rule.  `entry` points into winner_by_k_, so the caller
  /// must hold decision_mu_ at least shared.
  bool DecisionExpired(const CachedDecision& entry) const
      REQUIRES_SHARED(decision_mu_);

  /// The pool serving this engine: the shared external pool when one was
  /// injected, else the engine-owned pool (null = single-threaded).
  ThreadPool* pool() const {
    return options_.shared_pool != nullptr ? options_.shared_pool
                                           : owned_pool_.get();
  }

  ConstRowBlock users_;
  ConstRowBlock items_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<std::unique_ptr<MipsSolver>> solvers_;
  std::vector<MipsSolver*> candidates_;  // solvers_, borrowed for Optimus
  std::vector<std::string> names_;  // solver names, parallel to solvers_
  std::vector<std::string> specs_;  // opening specs, parallel to solvers_

  /// One cached per-(k, shape) decision.  `last_used` is a recency stamp
  /// from decision_clock_, bumped with a relaxed store on every
  /// (shared-locked) hit; eviction drops the smallest stamp.
  /// `kernel_epoch` is the GEMM-kernel install count the decision was
  /// measured under, written once at insertion (under the exclusive
  /// lock, so it is safely published to shared-lock readers).  Stored in
  /// a node-based map so the atomic member never needs to move.
  struct CachedDecision {
    CachedDecision(std::size_t w, uint64_t epoch)
        : winner(w), kernel_epoch(epoch) {}
    std::size_t winner;
    uint64_t kernel_epoch;
    mutable std::atomic<uint64_t> last_used{0};
  };

  /// Guards winner_by_k_.  Shared: cache lookups.  Exclusive: inserting
  /// the winner for a new key (held across Decide so one decision runs at
  /// a time and latecomers reuse its result) and evicting.
  mutable SharedMutex decision_mu_;
  std::map<DecisionKey, CachedDecision> winner_by_k_
      GUARDED_BY(decision_mu_);
  std::atomic<uint64_t> decision_clock_{0};

  /// Caches `winner` for `key`, evicting the least-recently-used
  /// non-pinned entries while the cache exceeds capacity.
  void InsertDecision(DecisionKey key, std::size_t winner)
      REQUIRES(decision_mu_);

  std::atomic<std::size_t> forced_{kNoForcedStrategy};
  OptimusReport report_;

  struct AtomicStats {
    std::atomic<int64_t> batches_served{0};
    std::atomic<int64_t> users_served{0};
    std::atomic<int64_t> new_users_served{0};
    std::atomic<int64_t> redecisions{0};
    std::atomic<double> serve_seconds{0};
    std::atomic<double> redecision_seconds{0};
    std::atomic<int64_t> decision_cache_hits{0};
    std::atomic<int64_t> decision_cache_misses{0};
    std::atomic<int64_t> decision_cache_evictions{0};
    std::atomic<int64_t> decision_cache_invalidations{0};
  };
  AtomicStats stats_;

  static constexpr std::size_t kNoForcedStrategy =
      static_cast<std::size_t>(-1);
};

}  // namespace mips

#endif  // MIPS_CORE_ENGINE_H_
