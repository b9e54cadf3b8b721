// MipsEngine: the one configuration-driven entry point for exact MIPS
// serving.
//
// Callers hand Open() a model plus candidate strategies *as specs*
// ("bmm", "maximus:clusters=64", ...).  The engine builds every
// candidate via the solver registry (concurrently, on the engine's pool,
// when threads > 0), runs the OPTIMUS decision once at the configured k,
// owns the solvers and the optional thread pool, and then serves through
// ServingFacade's four call forms:
//
//   * TopK(k, user_ids)   — mini-batches of known users at any k.  When
//     a call's k diverges from the k the decision was made at, the
//     engine re-runs the (cheap, sampling-based) decision for the new k
//     and caches the winner — or, with a single candidate, serves it.
//     Either way every answer stays exact.
//   * TopKAll(k)          — every prepared user.
//   * TopKNewUser(s)(...) — vectors outside the prepared user matrix
//     (Section III-E), served like known users: through the strategy
//     decided for their (k, shape) and that solver's one query body
//     (MipsSolver::TopK), so they take the path OPTIMUS timed.
//
// ForceStrategy() overrides the optimizer by candidate name (benches,
// lesion studies, operator escape hatch); stats() snapshots the served
// counters (ServedStats) and the engine's decision counters.
// ShardedMipsEngine (shard/sharded_engine.h) holds one MipsEngine per
// item shard, and LiveCatalog holds a ShardedMipsEngine per epoch
// (num_shards = 1 when unsharded).  All three are ServingFacades: each
// query is checked and counted once where it enters, and the layers
// below call each other's serve body with no second check or count.
//
// Thread safety (the contract the multi-client server relies on):
//
//   * After Open() returns, TopK / TopKAll / TopKNewUser(s) / stats() /
//     strategy() may be called from any number of threads concurrently.
//     Candidate indexes are read-only at query time; the per-k decision
//     cache is guarded by a shared mutex so the hot path (k already
//     decided) takes only a shared lock, and the exclusive lock is held
//     only while a brand-new k runs its Optimus::Decide.  Concurrent
//     callers of other, already-cached ks briefly queue behind that
//     decision; exactness is never affected.
//   * stats() and served() counters are atomics; the returned snapshot
//     is internally consistent per field (not across fields).
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

/// What a facade served, counted once where each query entered: an
/// accepted TopK (TopKAll included) adds one batch and its rows, an
/// accepted TopKNewUser(s) adds its new rows, and either adds the wall
/// time of its serve body to serve_seconds, strategy lookup and any
/// inline re-decision included.  Refused queries and empty batches count
/// nothing, and neither do the layers a query passes below its entry: the
/// shards of a sharded engine read 0.
struct ServedStats {
  int64_t batches_served = 0;
  int64_t users_served = 0;
  int64_t new_users_served = 0;
  double serve_seconds = 0;
};

/// The query surface of the three serving facades (MipsEngine,
/// ShardedMipsEngine, LiveCatalog): the four call forms, written once
/// here over each facade's one serve body, Serve().  A query is checked
/// once, where it enters: k > 0 (InvalidArgument naming k), known-user
/// ids in [0, num_users()) (OutOfRange naming the id), and new-user
/// vectors by ValidateNewUserBatch (linalg/blas.h; InvalidArgument naming
/// the row and factor).  A refused query reaches no serve body.  The
/// layers below a facade call each other's Serve as friends, so a
/// checked query is not checked again; the solvers keep their own entry
/// checks (MipsSolver::TopK).
///
/// Every call form is safe for concurrent callers once the facade is
/// open.
class ServingFacade {
 public:
  virtual ~ServingFacade() = default;
  ServingFacade(const ServingFacade&) = delete;
  ServingFacade& operator=(const ServingFacade&) = delete;

  /// Exact top-K for a mini-batch of known users (ids into the user
  /// matrix, in any order, repeats allowed).  An empty batch returns 0
  /// rows of width k without looking up any strategy.
  Status TopK(Index k, std::span<const Index> user_ids, TopKResult* out);

  /// Exact top-K for every prepared user.
  Status TopKAll(Index k, TopKResult* out);

  /// Exact top-K for a user vector that is NOT in the prepared user
  /// matrix.  `out_row` must hold k entries.  Serves through the same
  /// code path as a 1-row TopKNewUsers call, so a singleton answer is
  /// bit-for-bit the row a coalesced batch would produce for the same
  /// vector under the same strategy.
  Status TopKNewUser(const Real* user_vector, Index k, TopKEntry* out_row);

  /// Exact top-K for a mini-batch of `num_rows` new-user vectors, stored
  /// contiguously row-major (num_rows x num_factors()) at
  /// `user_vectors`.  This is the serve-side coalescing path
  /// (serve/batching_engine.h): the strategy decided for (k, batch shape)
  /// runs its one query body over the vectors, the path OPTIMUS timed on
  /// known users — MAXIMUS walks them grouped by nearest centroid, LEMP
  /// and FEXIPRO probe their item-side indexes, and BMM scores the whole
  /// batch in one call, the batching win the paper's Clipper-style
  /// setting exists to exploit.  Row r of *out depends only on row r of
  /// the input and on the serving strategy, so a vector gets the same
  /// bits alone or coalesced into any batch the same strategy serves.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out);

  Index num_users() const { return users_.rows(); }
  Index num_factors() const { return users_.cols(); }

  /// Snapshot of what this facade served (see ServedStats).
  ServedStats served() const;

 protected:
  ServingFacade() = default;

  /// The facade's serve body, called only with checked rows (k > 0, at
  /// least one row, ids in range, finite vectors): row r of *out gets the
  /// exact top-k entries of input row r among the facade's items that
  /// `mask` does not name (rows of the facade's item set), with every
  /// strategy decision keyed on k alone.  The call forms pass an empty
  /// mask; LiveCatalog masks each layer below it by the rows newer layers
  /// supersede, so a masked layer still selects k and its dead rows never
  /// create a decision key.  LiveCatalog, the outermost facade, takes
  /// only an empty mask.
  virtual Status Serve(Index k, const QueryRows& rows, const ItemMask& mask,
                       TopKResult* out) = 0;

  /// The user matrix known-user ids index; set by the facade's Open.
  ConstRowBlock users_;

 private:
  /// Serves checked rows under an empty mask, timed, and counts them
  /// when the serve body succeeds.
  Status ServeAndCount(Index k, const QueryRows& rows, TopKResult* out);

  std::atomic<int64_t> batches_served_{0};
  std::atomic<int64_t> users_served_{0};
  std::atomic<int64_t> new_users_served_{0};
  std::atomic<double> serve_seconds_{0};
};

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

/// MipsEngine::Open's option checks: k > 0, a candidate spec, threads >=
/// 0, positive warm_batch_shapes, and every spec resolving in the solver
/// registry (its error returned verbatim).  ValidateShardedOptions
/// (shard/sharded_engine.h) runs them too.
Status ValidateEngineOptions(const EngineOptions& options);

/// A long-lived exact-MIPS serving engine over one (users, items) model.
/// The model views must outlive the engine.  See the file comment for the
/// thread-safety contract.
class MipsEngine final : public ServingFacade {
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

  Index num_items() const { return items_.rows(); }

  /// Snapshot of the cumulative serving statistics: served() plus the
  /// engine's decisions.  Each field is individually consistent; fields
  /// may be mutually skewed by in-flight requests.
  struct Stats : ServedStats {
    /// Per-k OPTIMUS re-decisions triggered by diverging query ks, and
    /// their wall time (inside the entered facade's serve_seconds too).
    int64_t redecisions = 0;
    double redecision_seconds = 0;
    /// Decision-cache accounting: a hit is a query whose (k, shape)
    /// already has a cached winner; a miss triggers either a re-decision
    /// or, with a single candidate, the opening-winner fallback.  A cached
    /// winner retires only by LRU eviction (keys dropped to keep the cache
    /// within kDecisionCacheCapacity); a GEMM-kernel re-install changes
    /// none.  Size is the current entry count.
    int64_t decision_cache_hits = 0;
    int64_t decision_cache_misses = 0;
    int64_t decision_cache_evictions = 0;
    int64_t decision_cache_size = 0;
    /// The GEMM micro-kernel installed at snapshot time ("portable",
    /// "avx2", "avx512") — the throughput regime every wall-clock
    /// decision in this engine was measured under, unless a caller
    /// re-installed one after Open (cached decisions stay as they were).
    std::string gemm_kernel;
    /// Item-catalog representation of the strategy serving the engine's
    /// decision k right now ("dense", "sparse", "hybrid") — the forced
    /// strategy's when one is set, else the opening winner's.
    std::string representation;
  };
  Stats stats() const EXCLUDES(decision_mu_);

 private:
  /// Each shard engine serves its sharded engine's checked queries.
  friend class ShardedMipsEngine;

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
  /// miss.
  StatusOr<std::size_t> StrategyFor(Index k, Index batch_rows)
      EXCLUDES(decision_mu_);

  /// Looks up the strategy for (k, rows.size) and runs its
  /// MipsSolver::TopK under the mask.
  Status Serve(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;

  /// The one OPTIMUS decision site (opening, warm shapes, cache misses):
  /// measures the prepared candidates at key.first on a population-sized
  /// sample (bucket 0) or on exactly key.second users, and returns the
  /// winner's index into solvers_.  *report (optional) gets the trace.
  StatusOr<std::size_t> Decide(DecisionKey key, OptimusReport* report) const;

  /// The pool serving this engine: the shared external pool when one was
  /// injected, else the engine-owned pool (null = single-threaded).
  ThreadPool* pool() const {
    return options_.shared_pool != nullptr ? options_.shared_pool
                                           : owned_pool_.get();
  }

  ConstRowBlock items_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<std::unique_ptr<MipsSolver>> solvers_;
  std::vector<MipsSolver*> candidates_;  // solvers_, borrowed for Optimus
  std::vector<std::string> names_;  // solver names, parallel to solvers_
  std::vector<std::string> specs_;  // opening specs, parallel to solvers_

  /// One cached per-(k, shape) decision.  `last_used` is a recency stamp
  /// from decision_clock_, bumped with a relaxed store on every
  /// (shared-locked) hit; eviction drops the smallest stamp.  Stored in a
  /// node-based map so the atomic member never needs to move.
  struct CachedDecision {
    explicit CachedDecision(std::size_t w) : winner(w) {}
    std::size_t winner;
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
    std::atomic<int64_t> redecisions{0};
    std::atomic<double> redecision_seconds{0};
    std::atomic<int64_t> decision_cache_hits{0};
    std::atomic<int64_t> decision_cache_misses{0};
    std::atomic<int64_t> decision_cache_evictions{0};
  };
  AtomicStats stats_;

  static constexpr std::size_t kNoForcedStrategy =
      static_cast<std::size_t>(-1);
};

}  // namespace mips

#endif  // MIPS_CORE_ENGINE_H_
