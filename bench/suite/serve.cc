// serve-newuser: an open loop of Poisson single-vector requests through
// a BatchingEngine (64 rows, 2 ms wait, shed, queue 1024, 2 executors)
// into a MipsEngine that keys its OPTIMUS decisions on the coalesced
// batch shape.  The only workload that exercises the serve layer:
// coalescing, shape-keyed decisions and small-batch GEMM.
//
// Every request is timed from its scheduled send, not its actual send,
// so a stall that delays later sends is charged to those requests; the
// generator's own lateness is reported beside it.

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <random>
#include <vector>

#include "core/engine.h"
#include "serve/batching_engine.h"
#include "workloads.h"

namespace mipsbench {
namespace {

using mips::ConstRowBlock;
using mips::MipsEngine;

constexpr Index kK = 10;
constexpr int64_t kRing = 1 << 16;
/// Every kCheckEvery-th measured response goes through the gate.
constexpr int64_t kCheckEvery = 97;

/// One in-flight request.  The slot is reused kRing requests later,
/// after the collector has consumed it.
struct Slot {
  std::future<mips::Status> done;
  Clock::time_point due;
  uint64_t span_id = 0;
  Index user = 0;
  std::array<mips::TopKEntry, kK> row;
};

struct Checked {
  Index user = 0;
  std::array<mips::TopKEntry, kK> row;
};

}  // namespace

Result RunServeScenario(const mips::MFModel& model, const ServeParams& params,
                        const RunOptions& options, Tracer* tracer) {
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  mips::EngineOptions engine_options;
  engine_options.k = kK;
  engine_options.solvers = {"bmm", "maximus"};
  engine_options.threads = 0;
  engine_options.batch_shape_decisions = true;
  engine_options.warm_batch_shapes = {1, 2, 4, 8, 16, 32, 64};
  mips::BatchingOptions batching;
  batching.max_batch_rows = 64;
  batching.max_wait_ms = 2.0;
  batching.max_queue_rows = 1024;
  batching.overload_policy = mips::OverloadPolicy::kShed;
  batching.executor_threads = 2;

  Result result;
  ReferenceClock setup_clock;  // ticked before each set-up
  // Only the hypervisor's steal is divided out of this workload's
  // latencies: with four threads waking and sleeping, p50 followed how
  // long the host kept them from running (two ten-run sets spread by 0.38
  // and 0.06 as measured, by 0.17 and 0.03 with the steal divided out).
  const StealMeter steal;
  std::vector<double> setup_s;
  // The backend records spans only once the traced phase has begun.
  std::atomic<Tracer*> backend_tracer{nullptr};
  std::unique_ptr<MipsEngine> engine;
  std::unique_ptr<mips::BatchingEngine> batcher;  // destroyed first
  for (int i = 0; i < params.setups; ++i) {
    batcher.reset();
    engine.reset();
    for (int t = 0; t < ReferenceClock::kTicksPerSetup; ++t) {
      setup_clock.Tick();
    }
    const Clock::time_point t0 = Clock::now();
    auto opened = MipsEngine::Open(users, items, engine_options);
    opened.status().CheckOK();
    engine = std::move(*opened);
    MipsEngine* backend_engine = engine.get();
    auto created = mips::BatchingEngine::Create(
        [backend_engine, &backend_tracer](const Real* vectors, Index rows,
                                          Index k, mips::TopKResult* out) {
          const Clock::time_point start = Clock::now();
          mips::Status status =
              backend_engine->TopKNewUsers(vectors, rows, k, out);
          Trace(backend_tracer.load(std::memory_order_relaxed),
                SpanName::kBackend, start, Clock::now());
          return status;
        },
        model.num_factors(), batching);
    created.status().CheckOK();
    batcher = std::move(*created);
    const Clock::time_point t1 = Clock::now();
    Trace(tracer, SpanName::kOpen, t0, t1);
    setup_s.push_back(SecondsBetween(t0, t1));
  }
  Put(&result.metrics, "setup_s", Median(setup_s), "s");
  result.info["strategy"] = engine->strategy();

  std::vector<Slot> ring(static_cast<std::size_t>(kRing));

  const Clock::time_point begin = Clock::now();
  const auto at = [begin](double seconds) {
    return begin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  // Measured: [untraced phase][window].  Only the window is traced and
  // reported; the untraced phase gives the tracing overhead its base.
  const Clock::time_point measure_start = at(params.warmup_s);
  const Clock::time_point window_start =
      at(params.warmup_s + params.untraced_s);
  const Clock::time_point window_end =
      at(params.warmup_s + params.untraced_s + params.window_s);
  const auto in_window = [&](Clock::time_point due) {
    return due >= window_start && due < window_end;
  };

  // One client thread both sends, on a fixed Poisson schedule, and
  // collects the answers, in send order; it spins between the two rather
  // than sleeping.  With a separate sleeping generator and collector the
  // run had five threads on four cores (with the dispatcher and the two
  // executors), and each answer waited for its collector to be woken, so
  // the host's scheduling moved p50 by half between identical runs.
  // Behind schedule the client sends at once (a burst), never thins out.
  // Batches dispatch in arrival order, so a ready request waits behind an
  // unready earlier one for at most one batch's backend time.
  std::mt19937_64 rng(options.seed ^ 0x5e7e1a7ull);
  std::exponential_distribution<double> gap(params.rate);
  Latencies latency;
  Latencies untraced_latency;
  Latencies lag;
  std::vector<Checked> checks;
  int64_t measured = 0;
  int64_t failed = 0;
  int64_t window_served = 0;
  MipsEngine::Stats engine_before;
  mips::BatchingEngine::Stats batch_before;
  bool window_seen = false;
  int64_t sent = 0;
  int64_t collected = 0;
  Clock::time_point due = at(gap(rng));
  for (;;) {
    const bool sending = due < window_end;
    if (sending && due <= Clock::now() && sent - collected < kRing) {
      if (tracer != nullptr && !window_seen && due >= window_start) {
        window_seen = true;
        engine_before = engine->stats();
        batch_before = batcher->stats();
        backend_tracer.store(tracer, std::memory_order_relaxed);
      }
      Tracer* request_tracer = in_window(due) ? tracer : nullptr;
      Slot& slot = ring[static_cast<std::size_t>(sent % kRing)];
      slot.due = due;
      slot.user = static_cast<Index>(rng() % static_cast<uint64_t>(
                                                 model.num_users()));
      slot.span_id = request_tracer != nullptr ? request_tracer->NewId() : 0;
      const Clock::time_point send = Clock::now();
      if (in_window(due)) lag.Add(SecondsBetween(due, send));
      slot.done = batcher->SubmitNewUser(users.Row(slot.user), kK,
                                         slot.row.data());
      ++sent;
      Trace(request_tracer, SpanName::kAdmit, send, Clock::now(), 0,
            slot.span_id, static_cast<uint64_t>(sent));
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(gap(rng)));
      continue;
    }
    if (collected == sent) {
      if (!sending) break;
      continue;
    }
    Slot& slot = ring[static_cast<std::size_t>(collected % kRing)];
    if (slot.done.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;
    }
    const mips::Status status = slot.done.get();
    const Clock::time_point now = Clock::now();
    ++collected;
    const bool traced_phase = in_window(slot.due);
    if (traced_phase) {
      Trace(tracer, SpanName::kRequest, slot.due, now, slot.span_id, 0,
            static_cast<uint64_t>(collected));
    }
    if (slot.due < measure_start) continue;
    ++measured;
    if (!status.ok()) {
      ++failed;
      continue;
    }
    (traced_phase ? latency : untraced_latency)
        .Add(SecondsBetween(slot.due, now));
    if (traced_phase) ++window_served;
    if ((measured - 1) % kCheckEvery == 0) {
      checks.push_back({slot.user, slot.row});
    }
  }

  backend_tracer.store(nullptr, std::memory_order_relaxed);
  result.attempted = measured;
  result.failed = failed;
  Put(&result.metrics, "throughput_per_s",
      static_cast<double>(window_served) / params.window_s, "1/s");
  PutMs(&result.metrics, "p50_ms", latency.At(0.5));
  PutMs(&result.metrics, "request.p90_ms", latency.At(0.9));
  Put(&result.metrics, "heap_mb", HeapInUseMb(), "MB");
  const double steal_share = steal.Share();
  // Set-up is read on the reference clock like the closed-loop
  // workloads': on the wall clock its medians moved by a quarter between
  // sets taken while the host ran at different speeds.
  ToHostClock(setup_clock.slowdown(ReferenceClock::kSetupTracking),
              {"setup_s"}, &result.metrics);
  ToHostClock(1 / steal_share, {"p50_ms", "request.p90_ms"}, &result.metrics);
  PutHostSpeed(setup_clock, steal_share, &result.metrics);

  // Correctness gate: every kCheckEvery-th measured response against
  // brute force.  Item ids must match exactly; scores to the index
  // tolerance, because a batch's shape bucket may be served by MAXIMUS.
  if (options.inject_mismatch && !checks.empty()) checks[0].row[0].item ^= 1;
  std::vector<Index> check_users;
  for (const Checked& c : checks) check_users.push_back(c.user);
  const mips::Matrix queries = mips::GatherRows(users, check_users);
  const mips::TopKResult want = ReferenceTopK(
      queries.data(), static_cast<Index>(checks.size()), items, kK);
  for (std::size_t c = 0; c < checks.size(); ++c) {
    ++result.checked;
    if (!RowMatches(checks[c].row.data(), want.Row(static_cast<Index>(c)), kK,
                    /*exact=*/false)) {
      ++result.mismatches;
    }
  }
  result.failed += result.mismatches;

  if (tracer == nullptr) return result;
  const MipsEngine::Stats engine_after = engine->stats();
  const mips::BatchingEngine::Stats batch_after = batcher->stats();
  Metrics* m = &result.metrics;
  const double served =
      static_cast<double>(batch_after.served - batch_before.served);
  const double batches = static_cast<double>(batch_after.batches_dispatched -
                                             batch_before.batches_dispatched);
  Put(m, "serve.queue_wait_ms",
      Ratio(batch_after.queue_wait_seconds - batch_before.queue_wait_seconds,
          served) * 1e3,
      "ms");
  Put(m, "serve.backend_ms_per_batch",
      Ratio(batch_after.backend_seconds - batch_before.backend_seconds,
          batches) * 1e3,
      "ms");
  Put(m, "serve.mean_batch_rows", Ratio(served, batches), "count");
  Put(m, "serve.timeout_flush_frac",
      Ratio(static_cast<double>(batch_after.timeout_flushes -
                              batch_before.timeout_flushes),
          batches),
      "ratio");
  Put(m, "serve.shed",
      static_cast<double>(batch_after.shed - batch_before.shed), "count");
  Put(m, "serve.expired",
      static_cast<double>(batch_after.expired - batch_before.expired), "count");
  PutDecisionCounts(engine_before, engine_after, m);
  // A few host stalls moved p99 by up to 2x between identical runs, so it
  // is tracked here, without a bound, rather than end to end.
  PutMs(m, "serve.request_p99_ms", latency.At(0.99));
  ToHostClock(1 / steal_share, {"serve.request_p99_ms"}, m);
  PutMs(m, "harness.lag_p99_ms", lag.At(0.99));
  if (params.untraced_s > 0) PutTraceOverhead(untraced_latency, latency, m);
  return result;
}

Result RunServeNewUser(const RunOptions& options, Tracer* tracer) {
  const mips::MFModel model =
      MakeWorkloadModel("netflix-nomad-50", options.smoke ? 0.1 : 10);
  ServeParams params;
  params.untraced_s = tracer != nullptr ? options.seconds / 2 : 0;
  params.window_s = options.seconds - params.untraced_s;
  if (options.smoke) {
    params.rate = 2000;
    params.warmup_s = 0.1;
    params.setups = 1;
  }
  Result result = RunServeScenario(model, params, options, tracer);
  if (tracer == nullptr) return result;
  Metrics* m = &result.metrics;
  ProbeLinalg(model, m);
  ProbeTopk(model, m);
  ProbeSolversAndOptimus(model, m);
  ProbeEngineShard(model, 8, /*decision_counts=*/false, m);
  ProbeCatalog(model, options, &result);
  return result;
}

}  // namespace mipsbench
