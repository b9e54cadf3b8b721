#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "common/mutex.h"
#include "common/timer.h"
#include "linalg/blas.h"
#include "linalg/simd_dispatch.h"
#include "solvers/registry.h"

namespace mips {

namespace {

/// The k check every query and Open share.
Status ValidateK(Index k) {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(k));
  }
  return Status::OK();
}

}  // namespace

Status ServingFacade::TopK(Index k, std::span<const Index> user_ids,
                           TopKResult* out) {
  MIPS_RETURN_IF_ERROR(ValidateK(k));
  for (const Index id : user_ids) {
    if (id < 0 || id >= num_users()) {
      return Status::OutOfRange("user id out of range: " +
                                std::to_string(id) + " (have " +
                                std::to_string(num_users()) + " users)");
    }
  }
  if (user_ids.empty()) {
    *out = TopKResult(0, k);
    return Status::OK();
  }
  return ServeAndCount(k,
                       {users_.data(), user_ids.data(),
                        static_cast<Index>(user_ids.size())},
                       out);
}

Status ServingFacade::TopKAll(Index k, TopKResult* out) {
  std::vector<Index> ids(static_cast<std::size_t>(num_users()));
  std::iota(ids.begin(), ids.end(), Index{0});
  return TopK(k, ids, out);
}

Status ServingFacade::TopKNewUser(const Real* user_vector, Index k,
                                  TopKEntry* out_row) {
  // One code path for singleton and coalesced serving: a 1-row batch.
  // Every batched row is computed exactly as this call computes it, so
  // the serve-side coalescing layer (serve/batching_engine.h) returns
  // bit-for-bit the answer the caller would have gotten alone.
  TopKResult one;
  MIPS_RETURN_IF_ERROR(TopKNewUsers(user_vector, 1, k, &one));
  std::copy_n(one.Row(0), k, out_row);
  return Status::OK();
}

Status ServingFacade::TopKNewUsers(const Real* user_vectors, Index num_rows,
                                   Index k, TopKResult* out) {
  MIPS_RETURN_IF_ERROR(ValidateK(k));
  MIPS_RETURN_IF_ERROR(
      ValidateNewUserBatch(user_vectors, num_rows, num_factors()));
  return ServeAndCount(k, {user_vectors, nullptr, num_rows}, out);
}

Status ServingFacade::ServeAndCount(Index k, const QueryRows& rows,
                                    TopKResult* out) {
  WallTimer timer;
  MIPS_RETURN_IF_ERROR(Serve(k, rows, {}, out));
  serve_seconds_.fetch_add(timer.Seconds(), std::memory_order_relaxed);
  if (rows.ids != nullptr) {
    batches_served_.fetch_add(1, std::memory_order_relaxed);
    users_served_.fetch_add(rows.size, std::memory_order_relaxed);
  } else {
    new_users_served_.fetch_add(rows.size, std::memory_order_relaxed);
  }
  return Status::OK();
}

ServedStats ServingFacade::served() const {
  ServedStats snapshot;
  snapshot.batches_served = batches_served_.load(std::memory_order_relaxed);
  snapshot.users_served = users_served_.load(std::memory_order_relaxed);
  snapshot.new_users_served =
      new_users_served_.load(std::memory_order_relaxed);
  snapshot.serve_seconds = serve_seconds_.load(std::memory_order_relaxed);
  return snapshot;
}

Status ValidateEngineOptions(const EngineOptions& options) {
  MIPS_RETURN_IF_ERROR(ValidateK(options.k));
  if (options.solvers.empty()) {
    return Status::InvalidArgument(
        "engine needs at least one candidate solver spec");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0, got " +
                                   std::to_string(options.threads));
  }
  for (const Index rows : options.warm_batch_shapes) {
    if (rows <= 0) {
      return Status::InvalidArgument(
          "warm_batch_shapes entries must be positive, got " +
          std::to_string(rows));
    }
  }
  for (const std::string& spec : options.solvers) {
    MIPS_RETURN_IF_ERROR(SolverRegistry::Global().Create(spec).status());
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<MipsEngine>> MipsEngine::Open(
    const ConstRowBlock& users, const ConstRowBlock& items,
    const EngineOptions& options) {
  MIPS_RETURN_IF_ERROR(ValidateEngineOptions(options));
  if (users.rows() <= 0 || items.rows() <= 0) {
    return Status::InvalidArgument("user and item sets must be non-empty");
  }
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }

  // Resolve the GEMM kernel before anything measures throughput: index
  // construction and the opening OPTIMUS decision below must run under
  // the kernel that will serve queries, or the decision is attributed to
  // the wrong hardware regime.  First use installs MIPS_GEMM_KERNEL's
  // choice, else the probe's; ForceGemmKernel() beforehand overrides.
  ActiveGemmKernel();

  std::unique_ptr<MipsEngine> engine(new MipsEngine());
  engine->users_ = users;
  engine->items_ = items;
  engine->options_ = options;

  for (const std::string& spec : options.solvers) {
    auto solver = SolverRegistry::Global().Create(spec);
    MIPS_RETURN_IF_ERROR(solver.status());
    engine->names_.push_back((*solver)->name());
    engine->specs_.push_back(spec);
    engine->candidates_.push_back(solver->get());
    engine->solvers_.push_back(std::move(*solver));
  }
  if (options.shared_pool == nullptr && options.threads > 0) {
    engine->owned_pool_ = std::make_unique<ThreadPool>(options.threads);
  }
  ThreadPool* pool = engine->pool();

  // Build every candidate index.  Construction is a small share of
  // serving time per index (Figure 4), but N candidates over a large item
  // set is a real cold-start cost, so the builds run concurrently on the
  // engine pool when one exists.  The solvers are handed the pool only
  // AFTER this phase: a Prepare() that used the injected pool would be
  // waiting on the very pool its own task occupies (ThreadPool::Wait
  // deadlocks from inside a task), and withholding the pool makes that
  // impossible by construction rather than by convention.
  const std::size_t num_candidates = engine->solvers_.size();
  std::vector<Status> build_status(num_candidates);
  std::vector<double> build_seconds(num_candidates, 0);
  auto build = [&engine, &users, &items, &build_status,
                &build_seconds](std::size_t s) {
    WallTimer timer;
    build_status[s] = engine->solvers_[s]->Prepare(users, items);
    build_seconds[s] = timer.Seconds();
  };
  WallTimer build_timer;
  if (pool != nullptr && num_candidates > 1) {
    for (std::size_t s = 0; s < num_candidates; ++s) {
      pool->Submit([&build, s]() { build(s); });
    }
    // With a shared pool, Wait also drains tasks other pool users (e.g.
    // sibling shard engines opening concurrently) submitted; over-waiting
    // is harmless, waiting from inside a pool task is not (see
    // EngineOptions::shared_pool).
    pool->Wait();
  } else {
    for (std::size_t s = 0; s < num_candidates; ++s) build(s);
  }
  for (std::size_t s = 0; s < num_candidates; ++s) {
    MIPS_RETURN_IF_ERROR(build_status[s]);
  }
  const double build_wall_seconds = build_timer.Seconds();
  if (pool != nullptr) {
    for (auto& solver : engine->solvers_) {
      solver->set_thread_pool(pool);
    }
  }

  if (num_candidates == 1) {
    // Nothing to decide: serve with the only candidate.
    engine->report_.chosen = engine->names_[0];
    engine->report_.representation = engine->solvers_[0]->representation();
    engine->report_.gemm_kernel = ToString(ActiveGemmKernel());
    engine->report_.construction_seconds = build_seconds[0];
    engine->report_.total_seconds = build_wall_seconds;
    {
      WriterMutexLock lock(engine->decision_mu_);
      engine->InsertDecision(engine->OpeningKey(), 0);
    }
    return engine;
  }

  // The candidates are already Prepared (above, possibly in parallel), so
  // the decision only measures; the build times go into its trace here.
  auto winner = engine->Decide(engine->OpeningKey(), &engine->report_);
  MIPS_RETURN_IF_ERROR(winner.status());
  for (std::size_t s = 0; s < num_candidates; ++s) {
    engine->report_.estimates[s].construction_seconds = build_seconds[s];
    // mips-tidy: allow(float-accumulation): wall-clock bookkeeping.
    engine->report_.construction_seconds += build_seconds[s];
  }
  engine->report_.total_seconds += build_wall_seconds;
  {
    WriterMutexLock lock(engine->decision_mu_);
    engine->InsertDecision(engine->OpeningKey(), *winner);
    // Pre-decide the caller's expected batch shapes so the first live
    // request at each shape finds a cached winner instead of paying the
    // sampling decision inline.  Shapes bucket exactly like live queries;
    // buckets already decided (including bucket 0 when shape-keying is
    // off) are skipped.
    for (const Index rows : options.warm_batch_shapes) {
      const DecisionKey key{options.k, engine->ShapeBucket(rows)};
      if (engine->winner_by_k_.find(key) != engine->winner_by_k_.end()) {
        continue;
      }
      auto warm_winner = engine->Decide(key, nullptr);
      MIPS_RETURN_IF_ERROR(warm_winner.status());
      engine->InsertDecision(key, *warm_winner);
    }
  }
  return engine;
}

StatusOr<std::size_t> MipsEngine::Decide(DecisionKey key,
                                         OptimusReport* report) const {
  std::size_t winner = 0;
  MIPS_RETURN_IF_ERROR(Optimus(options_.optimus)
                           .Decide(users_, items_, key.first, candidates_,
                                   &winner, report, key.second));
  return winner;
}

Index MipsEngine::ShapeBucket(Index rows) const {
  if (!options_.batch_shape_decisions) return 0;
  const Index capped = std::clamp<Index>(rows, 1, kMaxShapeBucket);
  return static_cast<Index>(std::bit_ceil(static_cast<uint32_t>(capped)));
}

void MipsEngine::InsertDecision(DecisionKey key, std::size_t winner) {
  decision_mu_.AssertHeld();
  winner_by_k_.emplace(std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(winner));
  winner_by_k_.at(key).last_used.store(
      decision_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  while (winner_by_k_.size() > kDecisionCacheCapacity) {
    // Evict the least-recently-used key.  The opening decision is
    // pinned: the single-candidate fallback and strategy() rely on it
    // being present.
    auto lru = winner_by_k_.end();
    uint64_t lru_stamp = std::numeric_limits<uint64_t>::max();
    for (auto it = winner_by_k_.begin(); it != winner_by_k_.end(); ++it) {
      if (it->first == OpeningKey()) continue;
      const uint64_t stamp =
          it->second.last_used.load(std::memory_order_relaxed);
      if (stamp < lru_stamp) {
        lru_stamp = stamp;
        lru = it;
      }
    }
    if (lru == winner_by_k_.end()) return;  // only the pinned entry left
    winner_by_k_.erase(lru);
    stats_.decision_cache_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

StatusOr<std::size_t> MipsEngine::StrategyFor(Index k, Index batch_rows) {
  const std::size_t forced = forced_.load(std::memory_order_acquire);
  if (forced != kNoForcedStrategy) return forced;
  const DecisionKey key{k, ShapeBucket(batch_rows)};
  {
    ReaderMutexLock lock(decision_mu_);
    auto it = winner_by_k_.find(key);
    if (it != winner_by_k_.end()) {
      // Recency bump under the shared lock: a relaxed store into the
      // entry's atomic stamp, so the hot path never takes the exclusive
      // lock.  Racing hits may reorder stamps slightly; LRU stays
      // approximate by a few requests, never wrong.
      it->second.last_used.store(
          decision_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      stats_.decision_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second.winner;
    }
    stats_.decision_cache_misses.fetch_add(1, std::memory_order_relaxed);
    if (solvers_.size() < 2) {
      // One candidate: nothing to decide between, so the opening winner
      // serves every k/shape.
      return winner_by_k_.at(OpeningKey()).winner;
    }
  }
  // The opening shape and the query's (k, batch shape) diverged: run the
  // sampling decision for this key and cache the winner.  The candidates
  // were all Prepared at Open (indexes are k-independent), so only the
  // sampling measurement is repeated.  For a shape bucket > 0 the sample
  // is exactly bucket-many users, so batching strategies are timed on a
  // batch of the realized size — a 64-row coalesced batch may flip the
  // winner to BMM where singletons picked an index.  The exclusive lock
  // serializes concurrent first-queries of the same new key: one caller
  // measures, the rest (re-checking under the lock) reuse its cached
  // winner.
  WriterMutexLock lock(decision_mu_);
  auto it = winner_by_k_.find(key);
  if (it != winner_by_k_.end()) return it->second.winner;
  OptimusReport report;
  auto winner = Decide(key, &report);
  MIPS_RETURN_IF_ERROR(winner.status());
  InsertDecision(key, *winner);
  stats_.redecisions.fetch_add(1, std::memory_order_relaxed);
  stats_.redecision_seconds.fetch_add(report.total_seconds,
                                      std::memory_order_relaxed);
  return *winner;
}

Status MipsEngine::Serve(Index k, const QueryRows& rows, const ItemMask& mask,
                         TopKResult* out) {
  auto strategy = StrategyFor(k, rows.size);
  MIPS_RETURN_IF_ERROR(strategy.status());
  return solvers_[*strategy]->TopK(k, rows, mask, out);
}

Status MipsEngine::ForceStrategy(const std::string& name_or_spec) {
  // Solver name first; the exact opening spec disambiguates when two
  // candidates are tuned variants of the same solver.
  for (std::size_t s = 0; s < names_.size(); ++s) {
    if (names_[s] == name_or_spec) {
      forced_.store(s, std::memory_order_release);
      return Status::OK();
    }
  }
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s] == name_or_spec) {
      forced_.store(s, std::memory_order_release);
      return Status::OK();
    }
  }
  std::string candidates;
  for (const std::string& candidate : specs_) {
    if (!candidates.empty()) candidates += ", ";
    candidates += candidate;
  }
  return Status::NotFound("no candidate named \"" + name_or_spec +
                          "\" (candidates: " + candidates + ")");
}

void MipsEngine::ClearForcedStrategy() {
  forced_.store(kNoForcedStrategy, std::memory_order_release);
}

const std::string& MipsEngine::strategy() const {
  const std::size_t forced = forced_.load(std::memory_order_acquire);
  if (forced != kNoForcedStrategy) return names_[forced];
  ReaderMutexLock lock(decision_mu_);
  return names_[winner_by_k_.at(OpeningKey()).winner];
}

MipsEngine::Stats MipsEngine::stats() const {
  Stats snapshot;
  static_cast<ServedStats&>(snapshot) = served();
  snapshot.redecisions = stats_.redecisions.load(std::memory_order_relaxed);
  snapshot.redecision_seconds =
      stats_.redecision_seconds.load(std::memory_order_relaxed);
  snapshot.decision_cache_hits =
      stats_.decision_cache_hits.load(std::memory_order_relaxed);
  snapshot.decision_cache_misses =
      stats_.decision_cache_misses.load(std::memory_order_relaxed);
  snapshot.decision_cache_evictions =
      stats_.decision_cache_evictions.load(std::memory_order_relaxed);
  snapshot.gemm_kernel = ToString(ActiveGemmKernel());
  const std::size_t forced = forced_.load(std::memory_order_acquire);
  {
    ReaderMutexLock lock(decision_mu_);
    snapshot.decision_cache_size =
        static_cast<int64_t>(winner_by_k_.size());
    snapshot.representation =
        solvers_[forced != kNoForcedStrategy
                     ? forced
                     : winner_by_k_.at(OpeningKey()).winner]
            ->representation();
  }
  return snapshot;
}

}  // namespace mips
