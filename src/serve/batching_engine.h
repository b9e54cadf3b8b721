// BatchingEngine: async admission control + request coalescing in front
// of the exact MIPS engines.
//
// The paper's central trade (Section II, Figure 2) is that blocked
// matrix multiply amortizes beautifully over a *batch* of users while
// index probes do not — which means a serving tier that receives one
// user per request is leaving the BMM side of the OPTIMUS decision on
// the table: a 1-row GEMM is all overhead, so the optimizer is pushed
// toward index probes even when the aggregate traffic would be served
// several times faster as mini-batch GEMMs.  BatchingEngine restores
// the batch: concurrent single-user TopKNewUser calls are admitted into
// a bounded queue and coalesced (per k — rows of one GEMM must share k)
// into mini-batches under a work-conserving policy:
//
//   - an idle executor takes pending rows at once ("idle flush"): each
//     submission wakes a waiting executor, and an executor that finds
//     no batch ready but rows pending — just woken, or just done with a
//     batch — assembles the next batch itself, so a request on an idle
//     engine never waits on the clock;
//   - while every executor is busy, arrivals coalesce.  A batch
//     dispatches as soon as `max_batch_rows` rows of one k are pending
//     ("size flush"), when an executor frees up, or when the oldest
//     pending request has waited `max_wait` ("timeout flush"), whichever
//     comes first.  The timeout bounds how long full groups of other ks
//     can overtake the oldest request.
//
// Every assembly follows one rule: purge expired requests, then take a
// full group if there is one, else the oldest request's group, up to
// max_batch_rows rows in arrival order.  So the batch size follows the
// load: about one row on an idle engine, more as arrivals outpace the
// executors.
//
// Each batch runs through the backend, typically a one-line lambda
// around an engine's batched new-user path (MipsEngine::TopKNewUsers /
// ShardedMipsEngine::TopKNewUsers), where the engine's shape-keyed
// decision cache re-runs OPTIMUS for the realized batch size
// (EngineOptions::batch_shape_decisions) — so a 64-row coalesced batch
// can pick BMM while singleton stragglers keep their index winner.
// Under one serving strategy every answer is bit-for-bit the singleton
// TopKNewUser answer for the same vector: each solver computes a row from
// that row alone (BMM's GEMM with a fixed per-element operation sequence,
// MAXIMUS's walk from the vector's centroid, LEMP's and FEXIPRO's scans),
// whatever else shares the batch.  Across strategies the ids agree but
// the scores may differ in the last bits, since each strategy sums a dot
// in its own order: a coalesced batch and a singleton whose shape
// buckets decided for different strategies can differ so.
//
// Overload behavior is explicit, not emergent.  Admission counts
// *outstanding* rows (pending + assembled + executing); when it would
// exceed `max_queue_rows` the configured OverloadPolicy applies:
//
//   kBlock       — the caller waits for capacity (bounded by its
//                  deadline, if it has one): closed-loop clients get
//                  backpressure instead of unbounded memory.
//   kShed        — fail fast with ResourceExhausted: open-loop clients
//                  get an immediate signal to retry elsewhere.
//   kDropExpired — purge pending requests whose deadline has already
//                  passed (they resolve DeadlineExceeded) to make room;
//                  shed only if still full.
//
// Requests may carry a deadline.  Every assembly purges expired requests
// first, and the dispatcher purges each one as its deadline passes
// (resolving it DeadlineExceeded without wasting backend work).  A
// request already assembled into a batch is committed: it is served even
// if its deadline passes mid-execution.
//
// Threading: one dispatcher thread keeps the clock: size, timeout and
// forced flushes (Flush and the shutdown drain) and prompt deadline
// purges.  `executor_threads` workers (>= 1) execute batches; each takes
// an assembled batch if one is ready, else assembles its next one from
// the pending rows, else waits.  The user vector is copied at
// admission, so the caller's pointer only needs to outlive Submit; the
// caller's `out_row` must stay alive until the returned future resolves.
// Submit/TopKNewUser/Flush/stats are safe from any number of threads.
// Destruction drains: pending requests are served, then workers join.

#ifndef MIPS_SERVE_BATCHING_ENGINE_H_
#define MIPS_SERVE_BATCHING_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "topk/result.h"

namespace mips {

/// What admission does when outstanding rows would exceed the bound.
enum class OverloadPolicy { kBlock, kShed, kDropExpired };

/// "block", "shed", "drop_expired".
const char* ToString(OverloadPolicy policy);
StatusOr<OverloadPolicy> ParseOverloadPolicy(std::string_view name);

/// Configuration for BatchingEngine.
struct BatchingOptions {
  /// Dispatch a batch as soon as this many rows of one k are pending.
  /// Also the cap of every other assembly.
  Index max_batch_rows = 64;
  /// While every executor is busy, dispatch the oldest pending request's
  /// group once it has waited this long, even if the batch is not full.
  /// An idle executor never waits on it: it takes pending rows at once.
  /// <= 0 means no timeout flush: a partial batch goes to the next
  /// executor that frees up (or to Flush / the shutdown drain), however
  /// long full groups of other ks keep overtaking it.
  double max_wait_ms = 2.0;
  /// Admission bound on outstanding rows (pending + assembled +
  /// executing).  Must be >= max_batch_rows.
  Index max_queue_rows = 1024;
  /// What admission does at the bound.
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Deadline applied to requests that do not carry their own.
  /// <= 0 means no default deadline.
  double default_deadline_ms = 0;
  /// Threads executing assembled batches (>= 1).
  int executor_threads = 1;
};

/// Coalesces concurrent single-user queries into mini-batches; see the
/// file comment.
class BatchingEngine {
 public:
  /// The batched serving path batches are executed against:
  /// (user_vectors, num_rows, k, out).  Must be safe for concurrent
  /// calls when executor_threads > 1.
  using Backend =
      std::function<Status(const Real*, Index, Index, TopKResult*)>;

  /// Fronts `backend`: in serving, a lambda calling an engine's
  /// TopKNewUsers (the engine must outlive the batching engine); in
  /// tests, a counting fake.  `num_factors` is the width of every
  /// submitted user vector.
  static StatusOr<std::unique_ptr<BatchingEngine>> Create(
      Backend backend, Index num_factors, const BatchingOptions& options);

  /// Drains: every admitted request is served (or resolved with its
  /// deadline/shutdown status) before destruction returns.
  ~BatchingEngine();

  /// Admits one new-user query.  The vector is copied before returning;
  /// `out_row` (k entries) must stay alive until the future resolves.
  /// The future carries OK after out_row is filled, or the admission /
  /// deadline / backend error.  A null vector or one with a NaN/+-Inf
  /// component is refused at admission (InvalidArgument), so it never
  /// fails the batch it would have joined.  `deadline_ms` <= 0 uses
  /// options.default_deadline_ms.
  std::future<Status> SubmitNewUser(const Real* user_vector, Index k,
                                    TopKEntry* out_row,
                                    double deadline_ms = 0) EXCLUDES(mu_);

  /// Synchronous wrapper: Submit + wait.  Drop-in for
  /// MipsEngine::TopKNewUser, but coalesced with concurrent callers.
  Status TopKNewUser(const Real* user_vector, Index k, TopKEntry* out_row)
      EXCLUDES(mu_);

  /// Dispatches everything currently pending (in max_batch_rows chunks)
  /// without waiting out max_wait, and returns once the pending queue
  /// has been handed to executors (not necessarily completed).
  void Flush() EXCLUDES(mu_);

  /// Cumulative counters + a snapshot of current queue state.  All
  /// counters are in requests (rows) unless named otherwise.
  struct Stats {
    int64_t submitted = 0;
    /// Resolved OK (backend answered).
    int64_t served = 0;
    /// Rejected at admission (ResourceExhausted under kShed /
    /// kDropExpired, or shutdown).
    int64_t shed = 0;
    /// Resolved DeadlineExceeded (purged while pending, dropped by
    /// kDropExpired, or deadline elapsed while blocked at admission).
    int64_t expired = 0;
    /// Admissions that waited under kBlock.
    int64_t blocked = 0;
    int64_t batches_dispatched = 0;
    int64_t size_flushes = 0;
    int64_t timeout_flushes = 0;
    /// Partial batches an executor assembled itself, finding no batch
    /// ready but rows pending.
    int64_t idle_flushes = 0;
    /// Flush() / shutdown-drain dispatches.
    int64_t forced_flushes = 0;
    /// batch rows -> number of batches dispatched with exactly that
    /// many rows.
    std::map<Index, int64_t> batch_size_histogram;
    /// Outstanding rows right now (pending + assembled + executing).
    Index queue_rows = 0;
    Index max_queue_rows_observed = 0;
    /// Wall time spent inside the backend (summed over executors).
    double backend_seconds = 0;
    /// Queueing delay (admission -> batch assembly) summed over served
    /// rows; mean delay = queue_wait_seconds / served.
    double queue_wait_seconds = 0;
  };
  Stats stats() const EXCLUDES(mu_);

  const BatchingOptions& options() const { return options_; }
  Index num_factors() const { return num_factors_; }

 private:
  struct Request {
    std::vector<Real> vector;
    Index k = 0;
    TopKEntry* out_row = nullptr;
    std::chrono::steady_clock::time_point arrival;
    bool has_deadline = false;
    std::chrono::steady_clock::time_point deadline;
    std::promise<Status> promise;
  };
  struct Batch {
    Index k = 0;
    std::vector<Request> requests;
  };

  BatchingEngine(Backend backend, Index num_factors,
                 const BatchingOptions& options);

  void DispatcherLoop() EXCLUDES(mu_);
  void ExecutorLoop() EXCLUDES(mu_);
  /// Resolves expired pending requests with DeadlineExceeded.  Returns
  /// the number purged.
  Index PurgeExpiredLocked(std::chrono::steady_clock::time_point now)
      REQUIRES(mu_);
  /// The key of a group with max_batch_rows or more pending rows, or -1.
  Index FullGroupLocked() const REQUIRES(mu_);
  /// The one assembly rule, shared by every site: purges the requests
  /// expired at `now`, then moves a full group if there is one (a size
  /// flush), else the oldest request's group (counted in
  /// `*partial_flushes`), up to max_batch_rows requests in arrival order,
  /// into the returned Batch.  A null `partial_flushes` takes a full
  /// group only.  The batch is empty when there is nothing to take.  Its
  /// rows leave the ledger's view until the caller queues or executes it.
  Batch AssembleNextLocked(std::chrono::steady_clock::time_point now,
                           int64_t* partial_flushes) REQUIRES(mu_);
  /// Queues a non-empty `batch` on ready_ and wakes an executor.
  void DispatchLocked(Batch batch) REQUIRES(mu_);
  void ExecuteBatch(Batch batch) EXCLUDES(mu_);
  /// Rows currently tracked by the queue structures: pending + assembled
  /// (ready_) + executing.  The admission ledger invariant — this sum
  /// always equals outstanding_rows_ — is DCHECKed at every accounting
  /// step (debug/sanitizer builds).
  Index TrackedRowsLocked() const REQUIRES(mu_);

  Backend backend_;
  Index num_factors_ = 0;
  BatchingOptions options_;

  mutable Mutex mu_;
  CondVar cv_work_;   // dispatcher: pending changed
  CondVar cv_ready_;  // executors: a batch is ready or a row pends
  CondVar cv_space_;  // blocked admitters: rows completed
  CondVar cv_flush_;  // Flush(): pending drained
  std::deque<Request> pending_ GUARDED_BY(mu_);
  std::map<Index, Index> pending_rows_by_k_ GUARDED_BY(mu_);
  std::deque<Batch> ready_ GUARDED_BY(mu_);
  /// Admission ledger: rows admitted and not yet resolved
  /// (= pending + assembled + executing; see TrackedRowsLocked).
  Index outstanding_rows_ GUARDED_BY(mu_) = 0;
  /// Rows inside batches executors have taken off ready_ and not yet
  /// completed (the "executing" term of the ledger).
  Index executing_rows_ GUARDED_BY(mu_) = 0;
  bool flush_requested_ GUARDED_BY(mu_) = false;
  /// No new admissions; dispatcher drains.
  bool stopping_ GUARDED_BY(mu_) = false;
  /// ready_ is final; executors may exit.
  bool executors_done_ GUARDED_BY(mu_) = false;
  Stats stats_ GUARDED_BY(mu_);

  std::thread dispatcher_;
  std::vector<std::thread> executors_;
};

}  // namespace mips

#endif  // MIPS_SERVE_BATCHING_ENGINE_H_
