#include "serve/batching_engine.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/dcheck.h"
#include "common/timer.h"
#include "linalg/blas.h"

namespace mips {
namespace {

using Clock = std::chrono::steady_clock;

Clock::duration FromMs(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

std::future<Status> ResolvedFuture(Status status) {
  std::promise<Status> promise;
  std::future<Status> future = promise.get_future();
  promise.set_value(std::move(status));
  return future;
}

}  // namespace

const char* ToString(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShed:
      return "shed";
    case OverloadPolicy::kDropExpired:
      return "drop_expired";
  }
  return "unknown";
}

StatusOr<OverloadPolicy> ParseOverloadPolicy(std::string_view name) {
  if (name == "block") return OverloadPolicy::kBlock;
  if (name == "shed") return OverloadPolicy::kShed;
  if (name == "drop_expired") return OverloadPolicy::kDropExpired;
  return Status::InvalidArgument(
      "unknown overload policy \"" + std::string(name) +
      "\" (expected block, shed, or drop_expired)");
}

BatchingEngine::BatchingEngine(Backend backend, Index num_factors,
                               const BatchingOptions& options)
    : backend_(std::move(backend)),
      num_factors_(num_factors),
      options_(options) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  executors_.reserve(static_cast<std::size_t>(options_.executor_threads));
  for (int t = 0; t < options_.executor_threads; ++t) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

StatusOr<std::unique_ptr<BatchingEngine>> BatchingEngine::Create(
    Backend backend, Index num_factors, const BatchingOptions& options) {
  if (backend == nullptr) {
    return Status::InvalidArgument("backend must not be null");
  }
  if (num_factors <= 0) {
    return Status::InvalidArgument("num_factors must be positive, got " +
                                   std::to_string(num_factors));
  }
  if (options.max_batch_rows < 1) {
    return Status::InvalidArgument("max_batch_rows must be >= 1, got " +
                                   std::to_string(options.max_batch_rows));
  }
  if (options.max_queue_rows < options.max_batch_rows) {
    return Status::InvalidArgument(
        "max_queue_rows (" + std::to_string(options.max_queue_rows) +
        ") must be >= max_batch_rows (" +
        std::to_string(options.max_batch_rows) + ")");
  }
  if (options.executor_threads < 1) {
    return Status::InvalidArgument("executor_threads must be >= 1, got " +
                                   std::to_string(options.executor_threads));
  }
  return std::unique_ptr<BatchingEngine>(
      new BatchingEngine(std::move(backend), num_factors, options));
}

BatchingEngine::~BatchingEngine() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_work_.NotifyAll();
  cv_space_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher drained pending_ into ready_ and raised
  // executors_done_ before exiting; executors finish ready_ and return.
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
}

std::future<Status> BatchingEngine::SubmitNewUser(const Real* user_vector,
                                                  Index k,
                                                  TopKEntry* out_row,
                                                  double deadline_ms) {
  // Rejected here, alone: at the backend a non-finite row would fail the
  // whole coalesced batch it landed in.
  Status vector_status = ValidateNewUserBatch(user_vector, 1, num_factors_);
  if (!vector_status.ok()) return ResolvedFuture(std::move(vector_status));
  if (out_row == nullptr) {
    return ResolvedFuture(Status::InvalidArgument("out_row must not be null"));
  }
  if (k <= 0) {
    return ResolvedFuture(Status::InvalidArgument(
        "k must be positive, got " + std::to_string(k)));
  }

  Request req;
  req.k = k;
  req.out_row = out_row;
  req.arrival = Clock::now();
  const double effective_deadline_ms =
      deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  if (effective_deadline_ms > 0) {
    req.has_deadline = true;
    req.deadline = req.arrival + FromMs(effective_deadline_ms);
  }
  req.vector.assign(user_vector, user_vector + num_factors_);
  std::future<Status> future = req.promise.get_future();

  MutexLock lock(mu_);
  ++stats_.submitted;
  if (stopping_) {
    ++stats_.shed;
    req.promise.set_value(
        Status::FailedPrecondition("batching engine is shutting down"));
    return future;
  }
  if (outstanding_rows_ >= options_.max_queue_rows) {
    switch (options_.overload_policy) {
      case OverloadPolicy::kShed:
        ++stats_.shed;
        req.promise.set_value(Status::ResourceExhausted(
            "admission queue full (" +
            std::to_string(options_.max_queue_rows) + " outstanding rows)"));
        return future;
      case OverloadPolicy::kDropExpired:
        // Make room from requests that can no longer be answered in time
        // anyway; shed only if none had expired.
        PurgeExpiredLocked(Clock::now());
        if (outstanding_rows_ >= options_.max_queue_rows) {
          ++stats_.shed;
          req.promise.set_value(Status::ResourceExhausted(
              "admission queue full (" +
              std::to_string(options_.max_queue_rows) +
              " outstanding rows, none expired)"));
          return future;
        }
        break;
      case OverloadPolicy::kBlock: {
        ++stats_.blocked;
        // Explicit predicate loop (common/mutex.h): wait for room or
        // shutdown, bounded by the request's deadline when it has one.
        bool timed_out = false;
        while (!stopping_ && outstanding_rows_ >= options_.max_queue_rows) {
          if (req.has_deadline) {
            if (cv_space_.WaitUntil(lock, req.deadline) ==
                std::cv_status::timeout) {
              timed_out = !stopping_ &&
                          outstanding_rows_ >= options_.max_queue_rows;
              break;
            }
          } else {
            cv_space_.Wait(lock);
          }
        }
        if (timed_out) {
          ++stats_.expired;
          req.promise.set_value(Status::DeadlineExceeded(
              "deadline elapsed while blocked at admission"));
          return future;
        }
        if (stopping_) {
          ++stats_.shed;
          req.promise.set_value(
              Status::FailedPrecondition("batching engine is shutting down"));
          return future;
        }
        break;
      }
    }
  }
  ++outstanding_rows_;
  stats_.max_queue_rows_observed =
      std::max(stats_.max_queue_rows_observed, outstanding_rows_);
  ++pending_rows_by_k_[k];
  pending_.push_back(std::move(req));
  MIPS_DCHECK_EQ(outstanding_rows_, TrackedRowsLocked());
  // An idle executor takes the row at once; the dispatcher re-arms its
  // clock for the row's deadline and flush point.
  cv_ready_.NotifyOne();
  cv_work_.NotifyOne();
  return future;
}

Status BatchingEngine::TopKNewUser(const Real* user_vector, Index k,
                                   TopKEntry* out_row) {
  return SubmitNewUser(user_vector, k, out_row).get();
}

void BatchingEngine::Flush() {
  MutexLock lock(mu_);
  if (pending_.empty()) return;
  flush_requested_ = true;
  cv_work_.NotifyOne();
  while (flush_requested_) cv_flush_.Wait(lock);
}

Index BatchingEngine::PurgeExpiredLocked(Clock::time_point now) {
  mu_.AssertHeld();
  Index purged = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->has_deadline && now >= it->deadline) {
      it->promise.set_value(
          Status::DeadlineExceeded("deadline elapsed while queued"));
      auto group = pending_rows_by_k_.find(it->k);
      MIPS_DCHECK(group != pending_rows_by_k_.end());
      if (--group->second == 0) pending_rows_by_k_.erase(group);
      --outstanding_rows_;
      ++stats_.expired;
      ++purged;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  MIPS_DCHECK_EQ(outstanding_rows_, TrackedRowsLocked());
  if (purged > 0) cv_space_.NotifyAll();
  return purged;
}

Index BatchingEngine::FullGroupLocked() const {
  mu_.AssertHeld();
  for (const auto& [k, count] : pending_rows_by_k_) {
    if (count >= options_.max_batch_rows) return k;
  }
  return -1;
}

BatchingEngine::Batch BatchingEngine::AssembleNextLocked(
    Clock::time_point now, int64_t* partial_flushes) {
  mu_.AssertHeld();
  PurgeExpiredLocked(now);
  Batch batch;
  if (pending_.empty()) return batch;
  // A full group first: it never waits behind a partial one.
  int64_t* flush_counter = &stats_.size_flushes;
  batch.k = FullGroupLocked();
  if (batch.k < 0) {
    if (partial_flushes == nullptr) return batch;
    batch.k = pending_.front().k;
    flush_counter = partial_flushes;
  }
  batch.requests.reserve(static_cast<std::size_t>(
      std::min(options_.max_batch_rows, pending_rows_by_k_.at(batch.k))));
  for (auto it = pending_.begin();
       it != pending_.end() &&
       static_cast<Index>(batch.requests.size()) < options_.max_batch_rows;) {
    if (it->k != batch.k) {
      ++it;
      continue;
    }
    // mips-tidy: allow(float-accumulation): wall-clock bookkeeping.
    stats_.queue_wait_seconds +=
        std::chrono::duration<double>(now - it->arrival).count();
    batch.requests.push_back(std::move(*it));
    it = pending_.erase(it);
  }
  const Index rows = static_cast<Index>(batch.requests.size());
  auto group = pending_rows_by_k_.find(batch.k);
  MIPS_DCHECK(group != pending_rows_by_k_.end());
  MIPS_DCHECK_GE(group->second, rows);
  group->second -= rows;
  if (group->second == 0) pending_rows_by_k_.erase(group);
  ++stats_.batches_dispatched;
  ++*flush_counter;
  ++stats_.batch_size_histogram[rows];
  return batch;
}

void BatchingEngine::DispatchLocked(Batch batch) {
  mu_.AssertHeld();
  if (batch.requests.empty()) return;
  ready_.push_back(std::move(batch));
  MIPS_DCHECK_EQ(outstanding_rows_, TrackedRowsLocked());
  cv_ready_.NotifyOne();
}

void BatchingEngine::DispatcherLoop() {
  MutexLock lock(mu_);
  for (;;) {
    MIPS_DCHECK_EQ(outstanding_rows_, TrackedRowsLocked());
    const Clock::time_point now = Clock::now();
    PurgeExpiredLocked(now);

    // Size flushes go first: a full group never waits on the clock.
    // Then forced flushes (Flush() and the shutdown drain) dispatch
    // whatever is pending, oldest group first, in max_batch_rows chunks.
    // Last, the timeout flush, which only fires while every executor is
    // busy (an idle one takes pending rows at once): it bounds how long
    // full groups of other ks can overtake the oldest request.
    const bool timed = options_.max_wait_ms > 0 && !pending_.empty();
    const Clock::duration max_wait = FromMs(options_.max_wait_ms);
    int64_t* partial_flushes = nullptr;
    if (flush_requested_ || stopping_) {
      partial_flushes = &stats_.forced_flushes;
    } else if (timed && now >= pending_.front().arrival + max_wait) {
      partial_flushes = &stats_.timeout_flushes;
    }
    // The same `now`: a row that outlived the purge above cannot expire
    // inside the assembly.
    Batch batch = AssembleNextLocked(now, partial_flushes);
    if (!batch.requests.empty()) {
      DispatchLocked(std::move(batch));
      continue;
    }
    if (flush_requested_) {
      flush_requested_ = false;
      cv_flush_.NotifyAll();
    }
    if (stopping_) break;

    // Sleep until the next actionable instant: the oldest request's
    // flush point or the earliest pending deadline (to purge promptly),
    // whichever is sooner.  Submissions that leave rows pending, Flush
    // and shutdown notify cv_work_.
    Clock::time_point wake = Clock::time_point::max();
    if (timed) wake = pending_.front().arrival + max_wait;
    for (const Request& req : pending_) {
      if (req.has_deadline) wake = std::min(wake, req.deadline);
    }
    if (wake == Clock::time_point::max()) {
      cv_work_.Wait(lock);
    } else {
      cv_work_.WaitUntil(lock, wake);
    }
  }
  executors_done_ = true;
  cv_ready_.NotifyAll();
  cv_flush_.NotifyAll();
}

void BatchingEngine::ExecutorLoop() {
  MutexLock lock(mu_);
  for (;;) {
    Batch batch;
    if (!ready_.empty()) {
      batch = std::move(ready_.front());
      ready_.pop_front();
    } else if (!pending_.empty()) {
      // Rows pend while this executor is free: it takes them now rather
      // than wait for the dispatcher's clock.
      batch = AssembleNextLocked(Clock::now(), &stats_.idle_flushes);
    }
    if (batch.requests.empty()) {
      // Nothing is ready or pending.  Once the dispatcher has drained and
      // raised executors_done_, nothing will be.
      if (executors_done_) return;
      cv_ready_.Wait(lock);
      continue;
    }
    executing_rows_ += static_cast<Index>(batch.requests.size());
    MIPS_DCHECK_EQ(outstanding_rows_, TrackedRowsLocked());
    lock.Unlock();
    ExecuteBatch(std::move(batch));
    lock.Lock();
  }
}

void BatchingEngine::ExecuteBatch(Batch batch) {
  const Index rows = static_cast<Index>(batch.requests.size());
  const Index k = batch.k;
  std::vector<Real> buffer(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(num_factors_));
  for (Index r = 0; r < rows; ++r) {
    std::copy(batch.requests[static_cast<std::size_t>(r)].vector.begin(),
              batch.requests[static_cast<std::size_t>(r)].vector.end(),
              buffer.begin() +
                  static_cast<std::size_t>(r) *
                      static_cast<std::size_t>(num_factors_));
  }
  TopKResult result;
  WallTimer timer;
  const Status status = backend_(buffer.data(), rows, k, &result);
  const double backend_seconds = timer.Seconds();
  if (status.ok()) {
    for (Index r = 0; r < rows; ++r) {
      const TopKEntry* src = result.Row(r);
      TopKEntry* dst = batch.requests[static_cast<std::size_t>(r)].out_row;
      for (Index e = 0; e < k; ++e) dst[e] = src[e];
    }
  }
  {
    MutexLock lock(mu_);
    MIPS_DCHECK_GE(executing_rows_, rows);
    MIPS_DCHECK_GE(outstanding_rows_, rows);
    executing_rows_ -= rows;
    outstanding_rows_ -= rows;
    MIPS_DCHECK_EQ(outstanding_rows_, TrackedRowsLocked());
    stats_.backend_seconds += backend_seconds;
    if (status.ok()) stats_.served += rows;
  }
  cv_space_.NotifyAll();
  // Resolve promises after capacity is released: a caller woken by its
  // future can immediately re-submit and find the row it freed.
  for (Request& req : batch.requests) {
    req.promise.set_value(status);
  }
}

Index BatchingEngine::TrackedRowsLocked() const {
  mu_.AssertHeld();
  // The per-k index is a view over pending_; they must never disagree.
  Index by_k = 0;
  for (const auto& [k, count] : pending_rows_by_k_) by_k += count;
  MIPS_DCHECK_EQ(by_k, static_cast<Index>(pending_.size()));
  Index rows = static_cast<Index>(pending_.size());
  for (const Batch& batch : ready_) {
    rows += static_cast<Index>(batch.requests.size());
  }
  return rows + executing_rows_;
}

BatchingEngine::Stats BatchingEngine::stats() const {
  MutexLock lock(mu_);
  Stats snapshot = stats_;
  snapshot.queue_rows = outstanding_rows_;
  return snapshot;
}

}  // namespace mips
