// Tests for the async batching & admission-control subsystem
// (serve/batching_engine.h) and the batched new-user serving paths it
// rides on (MipsEngine::TopKNewUsers, ShardedMipsEngine::TopKNewUsers).
//
// The load-bearing property throughout: coalescing must be invisible in
// the answers.  Under one serving strategy, a vector served inside any
// batch must produce the bit-for-bit identical row to the same vector
// served alone — same items, same scores to the last ulp — because each
// solver's query body computes a row from that row alone (BMM's GEMM
// with a fixed per-element operation sequence whatever the batch's row
// count).  Strategies sum a dot in different orders, so tests that let
// shape buckets decide pin the strategy before comparing scores.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "serve/batching_engine.h"
#include "shard/sharded_engine.h"
#include "test_util.h"

namespace mips {
namespace {

using testing::MakeTestModel;
using testing::RandomMatrix;

/// A BatchingEngine whose backend is `engine`'s batched new-user path.
template <typename Engine>
StatusOr<std::unique_ptr<BatchingEngine>> BatchingOver(
    Engine* engine, const BatchingOptions& options) {
  return BatchingEngine::Create(
      [engine](const Real* vectors, Index rows, Index k, TopKResult* out) {
        return engine->TopKNewUsers(vectors, rows, k, out);
      },
      engine->num_factors(), options);
}

// ---------------------------------------------------------------------
// Bit-for-bit exactness of the batched new-user paths.
// ---------------------------------------------------------------------

void ExpectBitIdenticalRow(const TopKEntry* got, const TopKEntry* want,
                           Index k, const std::string& context) {
  for (Index e = 0; e < k; ++e) {
    EXPECT_EQ(got[e].item, want[e].item) << context << " entry " << e;
    // EXPECT_EQ on floats: bit-for-bit is the contract, not "close".
    EXPECT_EQ(got[e].score, want[e].score) << context << " entry " << e;
  }
}

TEST(BatchedNewUsersTest, BatchedMatchesSingletonBitForBit) {
  const auto model = MakeTestModel(400, 600, 24);
  const Index kBatch = 37;
  const Matrix queries = RandomMatrix(kBatch, model.num_factors(), 99);

  EngineOptions options;
  options.k = 8;
  options.solvers = {"bmm", "maximus", "lemp"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users), ConstRowBlock(model.items),
                                 options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Cover each strategy's query body: BMM's dense scorer, LEMP's bucket
  // scan and MAXIMUS's bounded walk from each vector's nearest centroid.
  for (const char* forced : {"bmm", "lemp", "maximus"}) {
    ASSERT_TRUE((*engine)->ForceStrategy(forced).ok());
    for (const Index k : {1, 8, 11}) {
      TopKResult batched;
      ASSERT_TRUE(
          (*engine)->TopKNewUsers(queries.data(), kBatch, k, &batched).ok());
      for (Index r = 0; r < kBatch; ++r) {
        std::vector<TopKEntry> alone(static_cast<std::size_t>(k));
        ASSERT_TRUE(
            (*engine)->TopKNewUser(queries.Row(r), k, alone.data()).ok());
        ExpectBitIdenticalRow(batched.Row(r), alone.data(), k,
                              std::string(forced) + " k=" +
                                  std::to_string(k) + " row " +
                                  std::to_string(r));
      }
    }
  }
}

TEST(BatchedNewUsersTest, ShardedBatchedMatchesUnshardedBitForBit) {
  const auto model = MakeTestModel(300, 500, 16);
  const Index kBatch = 21;
  const Index k = 7;
  const Matrix queries = RandomMatrix(kBatch, model.num_factors(), 31);

  // Each strategy scores in its own accumulation order, so the engines
  // are pinned to one strategy at a time.  LEMP is pinned to incremental
  // pruning, which prunes on partial sums but rescores every survivor
  // with one Dot, so a score does not depend on where a shard's heap
  // fills; adaptive, each engine would calibrate its own table.
  EngineOptions engine_options;
  engine_options.k = k;
  engine_options.solvers = {"bmm", "lemp:forced_algorithm=2"};
  auto unsharded = MipsEngine::Open(ConstRowBlock(model.users), ConstRowBlock(model.items),
                                    engine_options);
  ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
  std::vector<std::unique_ptr<ShardedMipsEngine>> sharded;
  for (const int shards : {1, 3}) {
    ShardedEngineOptions options;
    options.num_shards = shards;
    options.engine = engine_options;
    auto opened = ShardedMipsEngine::Open(ConstRowBlock(model.users),
                                          ConstRowBlock(model.items), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    sharded.push_back(std::move(*opened));
  }

  for (const char* forced : {"bmm", "lemp"}) {
    ASSERT_TRUE((*unsharded)->ForceStrategy(forced).ok());
    TopKResult reference;
    ASSERT_TRUE(
        (*unsharded)->TopKNewUsers(queries.data(), kBatch, k, &reference).ok());
    for (const auto& engine : sharded) {
      ASSERT_TRUE(engine->ForceStrategy(forced).ok());
      const std::string context = std::string(forced) + " " +
                                  std::to_string(engine->num_shards()) +
                                  " shards";
      TopKResult batched;
      ASSERT_TRUE(
          engine->TopKNewUsers(queries.data(), kBatch, k, &batched).ok());
      for (Index r = 0; r < kBatch; ++r) {
        ExpectBitIdenticalRow(batched.Row(r), reference.Row(r), k,
                              context + " row " + std::to_string(r));
        // And the sharded singleton path agrees with its own batched path.
        std::vector<TopKEntry> alone(static_cast<std::size_t>(k));
        ASSERT_TRUE(
            engine->TopKNewUser(queries.Row(r), k, alone.data()).ok());
        ExpectBitIdenticalRow(alone.data(), batched.Row(r), k,
                              context + " singleton " + std::to_string(r));
      }
    }
  }
}

TEST(BatchedNewUsersTest, ValidatesArguments) {
  const auto model = MakeTestModel(60, 80, 8);
  EngineOptions options;
  options.k = 4;
  auto engine = MipsEngine::Open(ConstRowBlock(model.users), ConstRowBlock(model.items),
                                 options);
  ASSERT_TRUE(engine.ok());
  const Matrix queries = RandomMatrix(2, model.num_factors(), 5);
  TopKResult out;
  EXPECT_FALSE((*engine)->TopKNewUsers(nullptr, 2, 4, &out).ok());
  EXPECT_FALSE((*engine)->TopKNewUsers(queries.data(), 0, 4, &out).ok());
  EXPECT_FALSE((*engine)->TopKNewUsers(queries.data(), 2, 0, &out).ok());
}

// ---------------------------------------------------------------------
// Shape-keyed strategy decisions (EngineOptions::batch_shape_decisions).
// ---------------------------------------------------------------------

TEST(BatchShapeDecisionsTest, EachShapeBucketDecidesOnce) {
  const auto model = MakeTestModel(300, 400, 16);
  EngineOptions options;
  options.k = 5;
  options.solvers = {"bmm", "lemp"};
  options.batch_shape_decisions = true;
  auto engine = MipsEngine::Open(ConstRowBlock(model.users), ConstRowBlock(model.items),
                                 options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Matrix queries = RandomMatrix(64, model.num_factors(), 17);
  TopKResult out;
  // Buckets 1, 2, 64: three distinct shape decisions beyond the opening
  // (population-scale, bucket 0) one.
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 1, 5, &out).ok());
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 2, 5, &out).ok());
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 64, 5, &out).ok());
  const int64_t after_first_sweep = (*engine)->stats().redecisions;
  EXPECT_EQ(after_first_sweep, 3);

  // Same shapes again: pure cache hits, no further decisions.  Rows 33..
  // 64 share the 64 bucket (next power of two), so 50 hits it too.
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 1, 5, &out).ok());
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 50, 5, &out).ok());
  EXPECT_EQ((*engine)->stats().redecisions, after_first_sweep);
}

TEST(BatchShapeDecisionsTest, OffByDefaultSharesOneDecision) {
  const auto model = MakeTestModel(300, 400, 16);
  EngineOptions options;
  options.k = 5;
  options.solvers = {"bmm", "lemp"};
  auto engine = MipsEngine::Open(ConstRowBlock(model.users), ConstRowBlock(model.items),
                                 options);
  ASSERT_TRUE(engine.ok());

  const Matrix queries = RandomMatrix(64, model.num_factors(), 17);
  TopKResult out;
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 1, 5, &out).ok());
  ASSERT_TRUE((*engine)->TopKNewUsers(queries.data(), 64, 5, &out).ok());
  // Both rode the opening (bucket 0) decision at the opening k.
  EXPECT_EQ((*engine)->stats().redecisions, 0);
}

// ---------------------------------------------------------------------
// BatchingEngine coalescing mechanics, against a counting fake backend.
// ---------------------------------------------------------------------

constexpr Index kF = 4;
constexpr double kNeverFlushMs = 3600 * 1000.0;
/// How long a test waits for an event before it fails instead of
/// hanging.
constexpr std::chrono::seconds kAwait{10};

struct Client {
  std::vector<Real> vector;
  std::vector<TopKEntry> row;
  std::future<Status> future;
};

std::vector<Client> MakeClients(Index count, Index k) {
  std::vector<Client> clients(static_cast<std::size_t>(count));
  for (Index i = 0; i < count; ++i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    c.vector.assign(static_cast<std::size_t>(kF), 0);
    c.vector[0] = static_cast<Real>(i);
    c.row.resize(static_cast<std::size_t>(k));
  }
  return clients;
}

/// A deterministic backend that records every batch shape and can be
/// paused (requests block inside the backend until Release).
class FakeBackend {
 public:
  explicit FakeBackend(Index num_factors) : num_factors_(num_factors) {}

  BatchingEngine::Backend AsBackend() {
    return [this](const Real* vectors, Index rows, Index k, TopKResult* out) {
      {
        MutexLock lock(mu_);
        ++calls_;
        batch_rows_.push_back(rows);
        ++held_;
        cv_.NotifyAll();
        while (paused_) cv_.Wait(lock);
        --held_;
      }
      *out = TopKResult(rows, k);
      for (Index r = 0; r < rows; ++r) {
        TopKEntry* row = out->Row(r);
        for (Index e = 0; e < k; ++e) {
          // Echo the row's first coordinate so callers can check their
          // answer came from their own vector.
          row[e].item = e;
          row[e].score =
              vectors[static_cast<std::size_t>(r) *
                      static_cast<std::size_t>(num_factors_)] -
              static_cast<Real>(e);
        }
      }
      return Status::OK();
    };
  }

  void Pause() EXCLUDES(mu_) {
    MutexLock lock(mu_);
    paused_ = true;
  }
  void Release() EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      paused_ = false;
    }
    cv_.NotifyAll();
  }
  /// Waits until `count` calls are inside the backend at once.  After
  /// kAwait it gives up, releases the backend (so that the engine can
  /// drain) and returns false.
  bool AwaitHeld(int count) EXCLUDES(mu_) {
    const auto give_up = std::chrono::steady_clock::now() + kAwait;
    {
      MutexLock lock(mu_);
      while (held_ < count) {
        if (cv_.WaitUntil(lock, give_up) == std::cv_status::timeout &&
            held_ < count) {
          break;
        }
      }
      if (held_ >= count) return true;
    }
    Release();
    return false;
  }
  /// Pauses the backend and parks one k-row request per executor of
  /// `engine` inside it, so that rows submitted next queue behind busy
  /// executors.  Each request is submitted once the previous one is
  /// held, so each is a batch of its own.  Returns the parked requests;
  /// they resolve after Release.
  std::vector<Client> ParkExecutors(BatchingEngine* engine, Index k)
      EXCLUDES(mu_) {
    Pause();
    const int executors = engine->options().executor_threads;
    std::vector<Client> parked = MakeClients(executors, k);
    for (int e = 0; e < executors; ++e) {
      Client& c = parked[static_cast<std::size_t>(e)];
      c.future = engine->SubmitNewUser(c.vector.data(), k, c.row.data());
      if (!AwaitHeld(e + 1)) {
        ADD_FAILURE() << "executor " << e << " never entered the backend";
        break;
      }
    }
    return parked;
  }
  std::vector<Index> batch_rows() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return batch_rows_;
  }
  int calls() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return calls_;
  }

 private:
  Index num_factors_;
  mutable Mutex mu_;
  CondVar cv_;  // paused_ cleared, or held_ raised
  bool paused_ GUARDED_BY(mu_) = false;
  int calls_ GUARDED_BY(mu_) = 0;
  /// Calls inside the backend right now.
  int held_ GUARDED_BY(mu_) = 0;
  std::vector<Index> batch_rows_ GUARDED_BY(mu_);
};

/// Polls `engine`'s stats until `done` holds; false if kAwait passes
/// first.
template <typename Predicate>
bool AwaitStats(const BatchingEngine& engine, Predicate done) {
  const auto give_up = std::chrono::steady_clock::now() + kAwait;
  while (!done(engine.stats())) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return true;
}

void ExpectAllOk(std::vector<Client>* clients) {
  for (Client& c : *clients) EXPECT_TRUE(c.future.get().ok());
}

TEST(BatchingEngineTest, FlushBoundaries) {
  // 63, 64, and 65 submissions against max_batch_rows = 64 with an
  // effectively infinite wait, queued behind the parked executor: only
  // full batches dispatch on their own; stragglers need Flush.
  for (const Index submitted : {Index{63}, Index{64}, Index{65}}) {
    FakeBackend backend(kF);
    BatchingOptions options;
    options.max_batch_rows = 64;
    options.max_wait_ms = kNeverFlushMs;
    options.max_queue_rows = 256;
    auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    const Index k = 3;
    std::vector<Client> parked = backend.ParkExecutors(engine->get(), k);
    std::vector<Client> clients = MakeClients(submitted, k);
    for (Client& c : clients) {
      c.future = (*engine)->SubmitNewUser(c.vector.data(), k, c.row.data());
    }
    (*engine)->Flush();
    backend.Release();
    ExpectAllOk(&parked);
    for (Index i = 0; i < submitted; ++i) {
      Client& c = clients[static_cast<std::size_t>(i)];
      ASSERT_TRUE(c.future.get().ok()) << "request " << i;
      EXPECT_EQ(c.row[0].score, static_cast<Real>(i));
      EXPECT_EQ(c.row[0].item, 0);
    }

    const std::vector<Index> batches = backend.batch_rows();
    Index total = 0;
    for (const Index rows : batches) {
      EXPECT_LE(rows, 64);
      total += rows;
    }
    // The parked row rides in the first, 1-row batch.
    EXPECT_EQ(total, submitted + 1);
    const BatchingEngine::Stats stats = (*engine)->stats();
    EXPECT_EQ(stats.submitted, submitted + 1);
    EXPECT_EQ(stats.served, submitted + 1);
    EXPECT_EQ(stats.shed, 0);
    EXPECT_EQ(stats.expired, 0);
    if (submitted == 63) {
      // Nothing was full: exactly one forced batch of 63.
      EXPECT_EQ(batches, (std::vector<Index>{1, 63}));
      EXPECT_EQ(stats.size_flushes, 0);
      EXPECT_EQ(stats.batch_size_histogram.at(63), 1);
    } else if (submitted == 64) {
      EXPECT_EQ(batches, (std::vector<Index>{1, 64}));
      EXPECT_EQ(stats.size_flushes, 1);
      EXPECT_EQ(stats.batch_size_histogram.at(64), 1);
    } else {
      EXPECT_EQ(batches, (std::vector<Index>{1, 64, 1}));
      EXPECT_EQ(stats.size_flushes, 1);
      EXPECT_EQ(stats.batch_size_histogram.at(64), 1);
      EXPECT_EQ(stats.batch_size_histogram.at(1), 2);  // parked + straggler
    }
  }
}

TEST(BatchingEngineTest, TimeoutFlushesPartialBatch) {
  FakeBackend backend(kF);
  BatchingOptions options;
  options.max_batch_rows = 64;
  options.max_wait_ms = 2;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> parked = backend.ParkExecutors(engine->get(), k);
  const int64_t timeouts_before = (*engine)->stats().timeout_flushes;
  std::vector<Client> clients = MakeClients(3, k);
  for (Client& c : clients) {
    c.future = (*engine)->SubmitNewUser(c.vector.data(), k, c.row.data());
  }
  // No Flush, and the executor stays busy: the bounded delay alone must
  // dispatch them.
  EXPECT_TRUE(AwaitStats(**engine, [&](const BatchingEngine::Stats& s) {
    return s.timeout_flushes > timeouts_before;
  }));
  backend.Release();
  ExpectAllOk(&parked);
  for (Client& c : clients) ASSERT_TRUE(c.future.get().ok());
  const BatchingEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.served, 3 + 1);  // the three rows and the parked one
  EXPECT_GE(stats.timeout_flushes, 1);
  EXPECT_EQ(stats.shed, 0);
}

TEST(BatchingEngineTest, CoalescesPerK) {
  // Rows of one GEMM must share k: interleaved k=2 / k=5 submissions
  // must come out as homogeneous batches.
  FakeBackend backend(kF);
  BatchingOptions options;
  options.max_batch_rows = 8;
  options.max_wait_ms = kNeverFlushMs;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  std::vector<Client> parked = backend.ParkExecutors(engine->get(), 2);
  std::vector<Client> small = MakeClients(5, 2);
  std::vector<Client> large = MakeClients(5, 5);
  for (Index i = 0; i < 5; ++i) {
    Client& s = small[static_cast<std::size_t>(i)];
    Client& l = large[static_cast<std::size_t>(i)];
    s.future = (*engine)->SubmitNewUser(s.vector.data(), 2, s.row.data());
    l.future = (*engine)->SubmitNewUser(l.vector.data(), 5, l.row.data());
  }
  (*engine)->Flush();
  backend.Release();
  ExpectAllOk(&parked);
  for (Client& c : small) ASSERT_TRUE(c.future.get().ok());
  for (Client& c : large) ASSERT_TRUE(c.future.get().ok());
  // Behind the parked row, two homogeneous batches of 5, not one mixed
  // batch of 10.
  EXPECT_EQ(backend.batch_rows(), (std::vector<Index>{1, 5, 5}));
}

TEST(BatchingEngineTest, DeadlineExpiresQueuedRequest) {
  FakeBackend backend(kF);
  BatchingOptions options;
  options.max_batch_rows = 64;
  options.max_wait_ms = kNeverFlushMs;  // nothing dispatches on the clock
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> parked = backend.ParkExecutors(engine->get(), k);
  std::vector<Client> clients = MakeClients(1, k);
  clients[0].future = (*engine)->SubmitNewUser(clients[0].vector.data(), k,
                                               clients[0].row.data(),
                                               /*deadline_ms=*/20);
  // The executor stays parked: the dispatcher's prompt purge resolves it.
  const Status status = clients[0].future.get();
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
      << status.ToString();
  const BatchingEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(stats.served, 0);
  EXPECT_EQ(backend.calls(), 1);  // the parked row only
  backend.Release();
  ExpectAllOk(&parked);
}

TEST(BatchingEngineTest, IdleExecutorDispatchesAtOnce) {
  // No clock, no Flush: a lone row on an idle engine goes straight to the
  // executor.
  FakeBackend backend(kF);
  BatchingOptions options;
  options.max_batch_rows = 64;
  options.max_wait_ms = kNeverFlushMs;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> clients = MakeClients(1, k);
  clients[0].future = (*engine)->SubmitNewUser(clients[0].vector.data(), k,
                                               clients[0].row.data());
  ASSERT_EQ(clients[0].future.wait_for(kAwait), std::future_status::ready);
  EXPECT_TRUE(clients[0].future.get().ok());
  const BatchingEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.idle_flushes, 1);
  EXPECT_EQ(stats.timeout_flushes, 0);
  EXPECT_EQ(stats.batches_dispatched, 1);
}

TEST(BatchingEngineTest, BusyExecutorsCoalesceArrivals) {
  // Rows that arrive while the executor runs wait for it and leave as
  // one batch when it frees up.
  FakeBackend backend(kF);
  BatchingOptions options;
  options.max_batch_rows = 64;
  options.max_wait_ms = kNeverFlushMs;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> parked = backend.ParkExecutors(engine->get(), k);
  std::vector<Client> clients = MakeClients(10, k);
  for (Client& c : clients) {
    c.future = (*engine)->SubmitNewUser(c.vector.data(), k, c.row.data());
  }
  backend.Release();
  ExpectAllOk(&parked);
  for (Index i = 0; i < 10; ++i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    ASSERT_TRUE(c.future.get().ok()) << "request " << i;
    EXPECT_EQ(c.row[0].score, static_cast<Real>(i));
  }
  EXPECT_EQ(backend.batch_rows(), (std::vector<Index>{1, 10}));
  const BatchingEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.idle_flushes, 2);
  EXPECT_EQ(stats.size_flushes + stats.timeout_flushes + stats.forced_flushes,
            0);
}

TEST(BatchingEngineTest, SecondIdleExecutorTakesWork) {
  // With one executor held inside the backend, the other, idle one takes
  // the next row at once.
  FakeBackend backend(kF);
  backend.Pause();
  BatchingOptions options;
  options.max_batch_rows = 64;
  options.max_wait_ms = kNeverFlushMs;
  options.executor_threads = 2;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> clients = MakeClients(2, k);
  clients[0].future = (*engine)->SubmitNewUser(clients[0].vector.data(), k,
                                               clients[0].row.data());
  ASSERT_TRUE(backend.AwaitHeld(1));
  clients[1].future = (*engine)->SubmitNewUser(clients[1].vector.data(), k,
                                               clients[1].row.data());
  EXPECT_TRUE(backend.AwaitHeld(2));  // while the first is still held
  backend.Release();
  ExpectAllOk(&clients);
  EXPECT_EQ(backend.batch_rows(), (std::vector<Index>{1, 1}));
}

TEST(BatchingEngineTest, ShedPolicyFailsFastAtTheBound) {
  FakeBackend backend(kF);
  backend.Pause();  // hold admitted rows outstanding inside the backend
  BatchingOptions options;
  options.max_batch_rows = 1;  // every submission dispatches immediately
  options.max_queue_rows = 2;
  options.max_wait_ms = kNeverFlushMs;
  options.overload_policy = OverloadPolicy::kShed;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> clients = MakeClients(3, k);
  clients[0].future =
      (*engine)->SubmitNewUser(clients[0].vector.data(), k,
                               clients[0].row.data());
  clients[1].future =
      (*engine)->SubmitNewUser(clients[1].vector.data(), k,
                               clients[1].row.data());
  // Third submission finds 2 outstanding rows against a bound of 2.
  clients[2].future =
      (*engine)->SubmitNewUser(clients[2].vector.data(), k,
                               clients[2].row.data());
  const Status shed_status = clients[2].future.get();
  EXPECT_EQ(shed_status.code(), StatusCode::kResourceExhausted)
      << shed_status.ToString();

  backend.Release();
  ASSERT_TRUE(clients[0].future.get().ok());
  ASSERT_TRUE(clients[1].future.get().ok());
  const BatchingEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.max_queue_rows_observed, 2);
}

TEST(BatchingEngineTest, BlockPolicyWaitsForCapacity) {
  FakeBackend backend(kF);
  backend.Pause();
  BatchingOptions options;
  options.max_batch_rows = 1;
  options.max_queue_rows = 1;
  options.max_wait_ms = kNeverFlushMs;
  options.overload_policy = OverloadPolicy::kBlock;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> clients = MakeClients(2, k);
  clients[0].future =
      (*engine)->SubmitNewUser(clients[0].vector.data(), k,
                               clients[0].row.data());
  // The second admission must block, so run it on its own thread.
  std::atomic<bool> admitted{false};
  std::thread blocked([&] {
    clients[1].future =
        (*engine)->SubmitNewUser(clients[1].vector.data(), k,
                                 clients[1].row.data());
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(admitted.load());  // still blocked at the bound

  backend.Release();
  blocked.join();
  ASSERT_TRUE(clients[0].future.get().ok());
  ASSERT_TRUE(clients[1].future.get().ok());
  const BatchingEngine::Stats stats = (*engine)->stats();
  EXPECT_EQ(stats.blocked, 1);
  EXPECT_EQ(stats.served, 2);
  EXPECT_EQ(stats.shed, 0);
}

TEST(BatchingEngineTest, DropExpiredPolicyShedsWhenNothingExpired) {
  // Nothing in the pending queue is expired, so kDropExpired degrades
  // to shedding.
  FakeBackend backend(kF);
  backend.Pause();
  BatchingOptions options;
  options.max_batch_rows = 1;
  options.max_queue_rows = 1;
  options.max_wait_ms = kNeverFlushMs;
  options.overload_policy = OverloadPolicy::kDropExpired;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> clients = MakeClients(2, k);
  clients[0].future =
      (*engine)->SubmitNewUser(clients[0].vector.data(), k,
                               clients[0].row.data());
  clients[1].future =
      (*engine)->SubmitNewUser(clients[1].vector.data(), k,
                               clients[1].row.data());
  EXPECT_EQ(clients[1].future.get().code(), StatusCode::kResourceExhausted);
  backend.Release();
  ASSERT_TRUE(clients[0].future.get().ok());
  EXPECT_EQ((*engine)->stats().shed, 1);
}

TEST(BatchingEngineTest, ShutdownDrainsPendingRequests) {
  // Seven rows are still pending when destruction starts: the parked
  // executor cannot take them and the clock never flushes them.  A
  // submitter blocked at the admission bound returns only once the
  // shutdown has begun, and only then is the backend released.
  FakeBackend backend(kF);
  BatchingOptions options;
  options.max_batch_rows = 8;
  options.max_queue_rows = 8;  // the parked row and seven pending ones
  options.max_wait_ms = kNeverFlushMs;
  options.overload_policy = OverloadPolicy::kBlock;
  auto engine = BatchingEngine::Create(backend.AsBackend(), kF, options);
  ASSERT_TRUE(engine.ok());

  const Index k = 2;
  std::vector<Client> parked = backend.ParkExecutors(engine->get(), k);
  std::vector<Client> clients = MakeClients(7, k);
  for (Client& c : clients) {
    c.future = (*engine)->SubmitNewUser(c.vector.data(), k, c.row.data());
  }
  std::vector<Client> late = MakeClients(1, k);
  std::thread blocked([&] {
    late[0].future = (*engine)->SubmitNewUser(late[0].vector.data(), k,
                                              late[0].row.data());
  });
  // It is inside the admission wait before destruction starts.
  EXPECT_TRUE(AwaitStats(**engine, [](const BatchingEngine::Stats& s) {
    return s.blocked == 1;
  }));
  std::thread destroy([&engine] { engine->reset(); });
  blocked.join();
  EXPECT_EQ(late[0].future.get().code(), StatusCode::kFailedPrecondition);
  backend.Release();
  destroy.join();
  // Destruction served everything admitted.
  ExpectAllOk(&parked);
  for (Index i = 0; i < 7; ++i) {
    Client& c = clients[static_cast<std::size_t>(i)];
    ASSERT_TRUE(c.future.get().ok()) << "request " << i;
    EXPECT_EQ(c.row[0].score, static_cast<Real>(i));
  }
  EXPECT_EQ(backend.batch_rows(), (std::vector<Index>{1, 7}));
}

TEST(BatchingEngineTest, RejectsInvalidArgumentsAndOptions) {
  FakeBackend backend(kF);
  BatchingOptions bad;
  bad.max_batch_rows = 0;
  EXPECT_FALSE(BatchingEngine::Create(backend.AsBackend(), kF, bad).ok());
  bad = BatchingOptions();
  bad.max_queue_rows = 4;
  bad.max_batch_rows = 8;
  EXPECT_FALSE(BatchingEngine::Create(backend.AsBackend(), kF, bad).ok());
  bad = BatchingOptions();
  bad.executor_threads = 0;
  EXPECT_FALSE(BatchingEngine::Create(backend.AsBackend(), kF, bad).ok());
  EXPECT_FALSE(BatchingEngine::Create(nullptr, kF, BatchingOptions()).ok());

  auto engine =
      BatchingEngine::Create(backend.AsBackend(), kF, BatchingOptions());
  ASSERT_TRUE(engine.ok());
  TopKEntry row[2];
  Real vec[kF] = {0, 0, 0, 0};
  EXPECT_FALSE((*engine)->SubmitNewUser(nullptr, 2, row).get().ok());
  EXPECT_FALSE((*engine)->SubmitNewUser(vec, 0, row).get().ok());
  EXPECT_FALSE((*engine)->SubmitNewUser(vec, 2, nullptr).get().ok());
  // A non-finite vector is refused at admission, alone, instead of
  // failing the batch it would have joined.
  vec[1] = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_EQ((*engine)->SubmitNewUser(vec, 2, row).get().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*engine)->stats().submitted, 0);
}

TEST(BatchingEngineTest, ParsesOverloadPolicies) {
  EXPECT_EQ(*ParseOverloadPolicy("block"), OverloadPolicy::kBlock);
  EXPECT_EQ(*ParseOverloadPolicy("shed"), OverloadPolicy::kShed);
  EXPECT_EQ(*ParseOverloadPolicy("drop_expired"),
            OverloadPolicy::kDropExpired);
  EXPECT_FALSE(ParseOverloadPolicy("nope").ok());
  EXPECT_STREQ(ToString(OverloadPolicy::kShed), "shed");
}

// ---------------------------------------------------------------------
// End-to-end: real engines behind the batching front.
// ---------------------------------------------------------------------

TEST(BatchingEngineTest, ConcurrentCallersGetSingletonAnswers) {
  const auto model = MakeTestModel(300, 500, 16);
  EngineOptions engine_options;
  engine_options.k = 6;
  engine_options.solvers = {"bmm", "lemp"};
  engine_options.batch_shape_decisions = true;
  auto engine = MipsEngine::Open(ConstRowBlock(model.users), ConstRowBlock(model.items),
                                 engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Index kThreads = 8;
  const Index kPerThread = 25;
  const Index k = 6;
  const Matrix queries =
      RandomMatrix(kThreads * kPerThread, model.num_factors(), 3);
  // Batches of different sizes fall into different shape buckets, which
  // may decide for different strategies, and each strategy scores in its
  // own accumulation order: pin one strategy at a time.
  for (const char* forced : {"bmm", "lemp"}) {
    SCOPED_TRACE(forced);
    ASSERT_TRUE((*engine)->ForceStrategy(forced).ok());
    // Reference rows served in one batch, before any coalescing.
    TopKResult reference;
    ASSERT_TRUE((*engine)
                    ->TopKNewUsers(queries.data(), kThreads * kPerThread, k,
                                   &reference)
                    .ok());

    BatchingOptions options;
    options.max_batch_rows = 16;
    options.max_wait_ms = 1;
    options.executor_threads = 2;
    auto batching = BatchingOver(engine->get(), options);
    ASSERT_TRUE(batching.ok()) << batching.status().ToString();

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (Index t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<TopKEntry> row(static_cast<std::size_t>(k));
        for (Index i = 0; i < kPerThread; ++i) {
          const Index q = t * kPerThread + i;
          const Status status =
              (*batching)->TopKNewUser(queries.Row(q), k, row.data());
          if (!status.ok()) {
            ++failures;
            continue;
          }
          const TopKEntry* want = reference.Row(q);
          for (Index e = 0; e < k; ++e) {
            if (row[static_cast<std::size_t>(e)].item != want[e].item ||
                row[static_cast<std::size_t>(e)].score != want[e].score) {
              ++failures;
              break;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    const BatchingEngine::Stats stats = (*batching)->stats();
    EXPECT_EQ(stats.served, kThreads * kPerThread);
    EXPECT_EQ(stats.shed + stats.expired, 0);
    // Sync callers park on their futures while batches form, so at least
    // some coalescing must have happened across 8 concurrent threads.
    EXPECT_LT(stats.batches_dispatched, stats.served);
  }
}

TEST(BatchingFrontTest, MatchesPlainEngine) {
  const auto model = MakeTestModel(250, 400, 12);
  const Index kQueries = 40;
  const Matrix queries = RandomMatrix(kQueries, model.num_factors(), 77);
  // Both engines are pinned to one strategy at a time: each strategy
  // scores in its own accumulation order, and a shape bucket of the
  // batching engine may decide otherwise than the plain engine.  LEMP is
  // pinned to one bucket algorithm, so the two engines share its table.
  for (const char* forced : {"bmm", "lemp"}) {
    SCOPED_TRACE(forced);
    EngineOptions plain;
    plain.k = 5;
    plain.solvers = {"bmm", "lemp:forced_algorithm=2"};
    auto reference = MipsEngine::Open(ConstRowBlock(model.users),
                                      ConstRowBlock(model.items), plain);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE((*reference)->ForceStrategy(forced).ok());

    EngineOptions shaped = plain;
    shaped.batch_shape_decisions = true;
    auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items), shaped);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->ForceStrategy(forced).ok());
    BatchingOptions options;
    options.max_batch_rows = 8;
    options.max_wait_ms = 1;
    auto batching = BatchingOver(engine->get(), options);
    ASSERT_TRUE(batching.ok()) << batching.status().ToString();

    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<TopKEntry> row(5);
        std::vector<TopKEntry> want(5);
        for (Index q = t; q < kQueries; q += 4) {
          if (!(*batching)->TopKNewUser(queries.Row(q), 5, row.data()).ok() ||
              !(*reference)
                   ->TopKNewUser(queries.Row(q), 5, want.data())
                   .ok()) {
            ++failures;
            continue;
          }
          for (Index e = 0; e < 5; ++e) {
            if (row[static_cast<std::size_t>(e)].item !=
                    want[static_cast<std::size_t>(e)].item ||
                row[static_cast<std::size_t>(e)].score !=
                    want[static_cast<std::size_t>(e)].score) {
              ++failures;
              break;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ((*engine)->stats().new_users_served, kQueries);

    // Async admission with a deadline resolves too.
    std::vector<TopKEntry> row(5);
    auto future = (*batching)->SubmitNewUser(queries.Row(0), 5, row.data(),
                                             /*deadline_ms=*/1000);
    EXPECT_TRUE(future.get().ok());
  }
}

TEST(BatchingFrontTest, ShardedEngineBackendServes) {
  const auto model = MakeTestModel(200, 300, 12);
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.engine.k = 4;
  sharded_options.engine.solvers = {"bmm", "lemp"};
  sharded_options.engine.batch_shape_decisions = true;
  auto engine = ShardedMipsEngine::Open(ConstRowBlock(model.users),
                                        ConstRowBlock(model.items),
                                        sharded_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  BatchingOptions options;
  options.max_batch_rows = 4;
  options.max_wait_ms = 1;
  auto batching = BatchingOver(engine->get(), options);
  ASSERT_TRUE(batching.ok()) << batching.status().ToString();

  const Matrix queries = RandomMatrix(10, model.num_factors(), 13);
  std::vector<TopKEntry> row(4);
  std::vector<TopKEntry> want(4);
  // A coalesced batch and a singleton fall into different shape buckets,
  // which may decide for different strategies: pin one at a time.
  for (const char* forced : {"bmm", "lemp"}) {
    ASSERT_TRUE((*engine)->ForceStrategy(forced).ok());
    for (Index q = 0; q < 10; ++q) {
      ASSERT_TRUE(
          (*batching)->TopKNewUser(queries.Row(q), 4, row.data()).ok());
      ASSERT_TRUE((*engine)->TopKNewUser(queries.Row(q), 4, want.data()).ok());
      ExpectBitIdenticalRow(row.data(), want.data(), 4,
                            std::string(forced) + " sharded row " +
                                std::to_string(q));
    }
  }
}

}  // namespace
}  // namespace mips
