// The common interface every MIPS serving strategy implements.
//
// A solver is prepared once against a (users, items) model — this is where
// indexes are constructed — and then answers batch top-K queries for any
// subset of the prepared users.  OPTIMUS drives solvers purely through this
// interface: Prepare() to build the index, TopKForUsers() on a sample to
// estimate cost, TopKForUsers() on the remainder with the winner.
//
// batches_users() distinguishes solvers whose per-user cost is only
// realized when many users are scored together (BMM, MAXIMUS — hardware
// blocking) from point-query solvers (naive, LEMP, FEXIPRO).  OPTIMUS may
// apply its t-test early stopping only to the latter (Section IV-A).
//
// Thread-safety contract: once Prepare() has returned, TopKForUsers() may
// be called from any number of threads concurrently — index structures
// are read-only at query time, and any per-batch diagnostics (stage
// timers, visit counters, LEMP's lazy calibration) synchronize
// internally.  Prepare() itself must not run concurrently with queries or
// with another Prepare() on the same solver.  Prepare() implementations
// must also never Submit()/Wait() on the injected thread pool — engine
// Open() runs Prepare tasks *on* that pool (waiting on it from inside a
// task deadlocks), and enforces this by injecting the pool only after
// construction finishes.  Parallelize queries, not construction.

#ifndef MIPS_SOLVERS_SOLVER_H_
#define MIPS_SOLVERS_SOLVER_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "linalg/matrix.h"
#include "topk/result.h"

namespace mips {

/// Abstract batch exact-MIPS solver.
class MipsSolver {
 public:
  virtual ~MipsSolver() = default;

  /// Short identifier, e.g. "bmm", "maximus", "lemp", "fexipro-si".
  virtual std::string name() const = 0;

  /// True if the solver exploits scoring many users at once (so per-user
  /// timings of single-user calls are not representative).
  virtual bool batches_users() const = 0;

  /// Which item-catalog representation the solver executes against:
  /// "dense" (the default — row-major matrix), "sparse" (CSR + inverted
  /// index, src/sparse), or "hybrid" (density-split partitions).  OPTIMUS
  /// surfaces the winner's representation in its report so a decision
  /// between dense and sparse plans is attributable.
  virtual std::string representation() const { return "dense"; }

  /// Builds index structures over the model.  The views must stay valid for
  /// the lifetime of the solver.  Calling Prepare again re-indexes.
  virtual Status Prepare(const ConstRowBlock& users,
                         const ConstRowBlock& items) = 0;

  /// Computes exact top-K for each user id in `user_ids` (indices into the
  /// prepared user matrix).  Writes result row r for user_ids[r]; *out is
  /// resized to (user_ids.size(), k).  If k exceeds the item count, rows
  /// are padded with {-1, -inf} sentinel entries.
  virtual Status TopKForUsers(Index k, std::span<const Index> user_ids,
                              TopKResult* out) = 0;

  /// Exact top-K for `num_rows` vectors outside the prepared user matrix,
  /// stored contiguously row-major (num_rows x items.cols()), where
  /// `items` is the item matrix the solver was prepared with.  *out is
  /// resized to (num_rows, k).  Row r depends only on input row r, so a
  /// vector's row is bit-for-bit the same whether it is served alone or
  /// in any batch.  The default scores densely — a new user has no row in
  /// any user-side index structure — through ScoreTopK
  /// (topk/score_select.h): blocked GEMM panels of at most
  /// kDefaultL2CacheBytes, each folded into the rows' heaps while in L2,
  /// with the item range split across the solver's pool.  The GEMM folds
  /// each score over the factor axis in an order independent of the
  /// panel, so no score depends on the batch.  MAXIMUS-family solvers
  /// override it with their per-row dynamic walk (Section III-E).  Safe
  /// for concurrent callers once Prepare() has returned.
  virtual Status TopKNewUsers(const ConstRowBlock& items,
                              const Real* user_vectors, Index num_rows,
                              Index k, TopKResult* out) const;

  /// Convenience: top-K for every prepared user.
  Status TopKAll(Index k, TopKResult* out);

  /// Optional thread pool for data-parallel execution over users.  Null
  /// (default) means single-threaded.  The pool must outlive the solver's
  /// queries.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// Per-stage wall-time breakdown accumulated by Prepare/queries
  /// (clustering, construction, traversal, ...).  Solvers without stages
  /// leave it empty.
  const StageTimer& stage_timer() const { return stage_timer_; }
  StageTimer* mutable_stage_timer() { return &stage_timer_; }

 protected:
  /// Number of users the solver was prepared with (set by subclasses).
  Index prepared_users_ = 0;

  ThreadPool* pool_ = nullptr;
  StageTimer stage_timer_;
};

/// Gathers the given user rows of `users` into a dense matrix (one row per
/// id, in order).  Shared helper for batching solvers.
Matrix GatherRows(const ConstRowBlock& users, std::span<const Index> ids);

}  // namespace mips

#endif  // MIPS_SOLVERS_SOLVER_H_
