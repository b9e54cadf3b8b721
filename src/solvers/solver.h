// The common interface every MIPS serving strategy implements.
//
// A solver is prepared once against a (users, items) model — this is where
// indexes are constructed — and then answers batch top-K queries.  A
// query's rows are either prepared users (ids into the user matrix) or new
// vectors outside it (Section III-E), and both kinds take the one query
// body each solver implements, Query().  OPTIMUS drives solvers purely
// through this interface: Prepare() to build the index, TopKForUsers() on
// a sample to estimate cost, then the winner serves — known users and new
// vectors through the same path it was timed on.
//
// batches_users() distinguishes solvers whose per-user cost is only
// realized when many users are scored together (BMM, MAXIMUS — hardware
// blocking) from point-query solvers (naive, LEMP, FEXIPRO).  OPTIMUS may
// apply its t-test early stopping only to the latter (Section IV-A).
//
// Thread-safety contract: once Prepare() has returned, the query entries
// may be called from any number of threads concurrently — index
// structures are read-only at query time, and any per-batch diagnostics
// (stage timers, visit counters, LEMP's lazy calibration) synchronize
// internally.  Prepare() itself must not run concurrently with queries or
// with another Prepare() on the same solver.  Prepare() implementations
// must also never Submit()/Wait() on the injected thread pool — engine
// Open() runs Prepare tasks *on* that pool (waiting on it from inside a
// task deadlocks), and enforces this by injecting the pool only after
// construction finishes.  Parallelize queries, not construction.

#ifndef MIPS_SOLVERS_SOLVER_H_
#define MIPS_SOLVERS_SOLVER_H_

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "linalg/matrix.h"
#include "topk/item_mask.h"
#include "topk/result.h"

namespace mips {

/// The rows of one query, each a vector of the prepared factor width f:
/// row r is data + (ids ? ids[r] : r) * f.  With ids, the rows are prepared
/// users and data is the prepared user matrix; without, they are `size`
/// new vectors stored contiguously row-major.  ScoreTopK
/// (topk/score_select.h) reads its rows the same way.
struct QueryRows {
  const Real* data = nullptr;
  const Index* ids = nullptr;
  Index size = 0;

  const Real* Row(Index r, Index f) const {
    return data + static_cast<std::size_t>(ids != nullptr ? ids[r] : r) * f;
  }
  /// Rows [begin, end) as a query of their own.
  QueryRows Slice(Index begin, Index end, Index f) const {
    if (ids != nullptr) return {data, ids + begin, end - begin};
    return {data + static_cast<std::size_t>(begin) * f, nullptr, end - begin};
  }
};

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

  /// Builds index structures over the model: InvalidArgument if users and
  /// items differ in factor width, else keeps the views (which must stay
  /// valid for the lifetime of the solver) and runs the solver's Build().
  /// Calling Prepare again re-indexes.
  Status Prepare(const ConstRowBlock& users, const ConstRowBlock& items);

  /// Exact top-k for each row of `rows`, through the solver's Query():
  /// *out is resized to (rows.size, k) and row r written for input row r.
  /// No item row that `mask` names is ever offered, so each row is the
  /// exact top k of the other items (what the solver prepared over only
  /// those items reports, ids mapped back); a serving layer masks the
  /// rows a newer write supersedes.  If fewer than k items remain, rows
  /// are padded with {-1, -inf} sentinel entries.  InvalidArgument for k
  /// <= 0, for id rows whose data is not the prepared user matrix, or for
  /// a mask that is not ascending rows of the prepared items;
  /// FailedPrecondition before Prepare.  Each row is computed from its
  /// input row alone, so a vector gets the same row alone or in any
  /// batch, and a prepared user's vector passed as a new row gets the
  /// user's row bit for bit.  The call forms below are one-liners over it
  /// and pass an empty mask.
  Status TopK(Index k, const QueryRows& rows, const ItemMask& mask,
              TopKResult* out);

  /// Exact top-K for each user id in `user_ids` (indices into the prepared
  /// user matrix).
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) {
    return TopK(k,
                {users_.data(), user_ids.data(),
                 static_cast<Index>(user_ids.size())},
                {}, out);
  }

  /// Exact top-K for `num_rows` vectors outside the prepared user matrix,
  /// stored contiguously row-major (num_rows x the prepared factor width).
  /// Served by the same index or scan as prepared users: MAXIMUS walks
  /// each vector from its nearest centroid (Section III-E), LEMP and
  /// FEXIPRO probe their item-side indexes, BMM scores densely.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out) {
    return TopK(k, {user_vectors, nullptr, num_rows}, {}, out);
  }

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
  /// The solver's index build over users_ and items_, run by Prepare once
  /// the views are stored.  The default builds nothing.
  virtual Status Build() { return Status::OK(); }

  /// The one query body: writes row r of *out, already sized (rows.size,
  /// k), for each row of `rows`, offering no item row that `mask` names.
  /// Called only with k > 0, at least one row, a valid mask and a
  /// successful Prepare behind it.
  virtual Status Query(Index k, const QueryRows& rows, const ItemMask& mask,
                       TopKResult* out) = 0;

  /// The prepared model (valid after Prepare).
  ConstRowBlock users_;
  ConstRowBlock items_;

  ThreadPool* pool_ = nullptr;
  StageTimer stage_timer_;

 private:
  bool prepared_ = false;
};

/// Gathers the given user rows of `users` into a dense matrix (one row per
/// id, in order).  Shared helper for batching solvers.
Matrix GatherRows(const ConstRowBlock& users, std::span<const Index> ids);

}  // namespace mips

#endif  // MIPS_SOLVERS_SOLVER_H_
