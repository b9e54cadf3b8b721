// batch-flat and batch-skewed: one caller streams mini-batches of known
// users through a single-threaded MipsEngine::TopK, whose opening OPTIMUS
// decision picked among bmm, maximus and lemp.
//
// The two workloads differ only in the model, which is the paper's point:
// on the flat-norm Netflix-like model BMM wins and GEMM plus top-k
// extraction do the work; on the norm-skewed R2-like model an index wins
// and clustering, index build and traversal do it.  The item matrices
// are sized on either side of one core's 2 MB L2 (1.4 MB vs 4.9 MB).

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "core/engine.h"
#include "workloads.h"

namespace mipsbench {
namespace {

using mips::ConstRowBlock;
using mips::MipsEngine;

constexpr Index kK = 10;
constexpr Index kGateUsers = 256;

/// `window_tracking`: how fully the window's TopK calls follow the
/// reference pass (ReferenceClock::slowdown); see the callers.
Result RunBatch(const char* preset, double scale, double window_tracking,
                const RunOptions& options, Tracer* tracer) {
  const mips::MFModel model =
      MakeWorkloadModel(preset, options.smoke ? 0.1 : scale);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);

  // No pool: on a shared host a pool's static chunks wait for their
  // slowest thread, which made multi-threaded runs spread 3-4x wider.
  mips::EngineOptions engine_options;
  engine_options.k = kK;
  engine_options.solvers = {"bmm", "maximus", "lemp"};

  Result result;
  ReferenceClock setup_clock;   // ticked before each set-up
  ReferenceClock window_clock;  // ticked after each request of the window
  // Recorded, not divided out: the passes run on the client's own thread
  // and already see the steal it sees (README, Host speed).
  const StealMeter steal;
  std::vector<double> setup_s;
  std::unique_ptr<MipsEngine> engine;
  for (int i = 0; i < (options.smoke ? 1 : 5); ++i) {
    engine.reset();  // one engine alive at a time
    for (int t = 0; t < ReferenceClock::kTicksPerSetup; ++t) {
      setup_clock.Tick();
    }
    const Clock::time_point t0 = Clock::now();
    auto opened = MipsEngine::Open(users, items, engine_options);
    opened.status().CheckOK();
    const Clock::time_point t1 = Clock::now();
    Trace(tracer, SpanName::kOpen, t0, t1);
    engine = std::move(*opened);
    setup_s.push_back(SecondsBetween(t0, t1));
    result.info["strategy.open" + std::to_string(i)] = engine->strategy();
  }
  Put(&result.metrics, "setup_s", Median(setup_s), "s");
  result.info["strategy"] = engine->strategy();

  // Requests are consecutive ranges of a seeded shuffle of the user ids,
  // cycling over all users.
  const Index num_users = model.num_users();
  const Index request_rows = std::min<Index>(options.smoke ? 256 : 2048,
                                             num_users);
  std::vector<Index> ids(static_cast<std::size_t>(num_users));
  std::iota(ids.begin(), ids.end(), 0);
  std::mt19937_64 rng(options.seed ^ 0x5eedba7c4ull);
  std::shuffle(ids.begin(), ids.end(), rng);
  Index cursor = 0;
  mips::TopKResult out;
  const auto next_request = [&]() {
    const Index n = std::min(request_rows, num_users - cursor);
    const std::span<const Index> span(ids.data() + cursor,
                                      static_cast<std::size_t>(n));
    cursor = (cursor + n) % num_users;
    return span;
  };

  const Clock::time_point warm_start = Clock::now();
  const double warm_s = options.smoke ? 0.05 : 0.5;
  while (SecondsBetween(warm_start, Clock::now()) < warm_s) {
    engine->TopK(kK, next_request(), &out).CheckOK();
  }

  struct Phase {
    Latencies latency;
    int64_t users_served = 0;
    /// Time inside TopK calls, summed: the window less the reference
    /// passes between the calls.
    double busy_s = 0;
  };
  const auto run_phase = [&](double seconds, Tracer* phase_tracer) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    while (SecondsBetween(start, Clock::now()) < seconds) {
      const std::span<const Index> request = next_request();
      const Clock::time_point t0 = Clock::now();
      const mips::Status status = engine->TopK(kK, request, &out);
      const Clock::time_point t1 = Clock::now();
      Trace(phase_tracer, SpanName::kRequest, t0, t1);
      window_clock.Tick();
      ++result.attempted;
      phase.busy_s += SecondsBetween(t0, t1);
      if (!status.ok()) {
        ++result.failed;
        continue;
      }
      phase.latency.Add(SecondsBetween(t0, t1));
      phase.users_served += static_cast<int64_t>(request.size());
    }
    return phase;
  };
  // Traced, the window's first half runs untraced for the overhead ratio.
  const Phase untraced =
      tracer != nullptr ? run_phase(options.seconds / 2, nullptr) : Phase{};
  const MipsEngine::Stats before = engine->stats();
  const Phase measured =
      run_phase(tracer != nullptr ? options.seconds / 2 : options.seconds,
                tracer);
  const MipsEngine::Stats after = engine->stats();
  Put(&result.metrics, "throughput_per_s",
      static_cast<double>(measured.users_served) / measured.busy_s, "1/s");
  PutMs(&result.metrics, "p50_ms", measured.latency.At(0.5));
  PutMs(&result.metrics, "request.p90_ms", measured.latency.At(0.9));
  Put(&result.metrics, "heap_mb", HeapInUseMb(), "MB");
  ToHostClock(setup_clock.slowdown(ReferenceClock::kSetupTracking),
              {"setup_s"}, &result.metrics);
  ToHostClock(window_clock.slowdown(window_tracking),
              {"throughput_per_s", "p50_ms", "request.p90_ms"},
              &result.metrics);
  PutHostSpeed(window_clock, steal.Share(), &result.metrics);

  // Correctness gate: a seeded sample of users against brute force.
  // Scores must be bit-for-bit when BMM serves (same GEMM fold).
  std::vector<Index> sample(static_cast<std::size_t>(
      std::min(kGateUsers, num_users)));
  for (Index& id : sample) {
    id = static_cast<Index>(rng() % static_cast<uint64_t>(num_users));
  }
  mips::TopKResult got;
  engine->TopK(kK, sample, &got).CheckOK();
  if (options.inject_mismatch) got.Row(0)[0].item ^= 1;
  const mips::Matrix queries = mips::GatherRows(users, sample);
  const mips::TopKResult want = ReferenceTopK(
      queries.data(), static_cast<Index>(sample.size()), items, kK);
  const bool exact = engine->strategy() == "bmm";
  for (Index q = 0; q < got.num_queries(); ++q) {
    ++result.checked;
    if (!RowMatches(got.Row(q), want.Row(q), kK, exact)) ++result.mismatches;
  }
  result.failed += result.mismatches;

  if (tracer == nullptr) return result;

  // ---- Per-layer metrics (traced run only) ----
  Metrics* m = &result.metrics;
  PutTraceOverhead(untraced.latency, measured.latency, m);
  PutDecisionCounts(before, after, m);
  engine.reset();
  ProbeLinalg(model, m);
  ProbeTopk(model, m);
  ProbeSolversAndOptimus(model, m);
  ProbeEngineShard(model, 8, /*decision_counts=*/false, m);
  ProbeServe(model, options, &result);
  ProbeCatalog(model, options, &result);
  return result;
}

}  // namespace

// The window exponents kept throughput and p50 steadiest over eight
// ten-seed sets (README, Host speed).  BMM's GEMM and its top-k pass
// over streamed score blocks are fixed work bound by the core and follow
// the pass nearly fully; MAXIMUS's index walk also waits on cache misses,
// which a faster core does not shorten.
Result RunBatchFlat(const RunOptions& options, Tracer* tracer) {
  return RunBatch("netflix-nomad-50", 10, /*window_tracking=*/0.9, options,
                  tracer);
}

Result RunBatchSkewed(const RunOptions& options, Tracer* tracer) {
  return RunBatch("r2-nomad-50", 6, /*window_tracking=*/0.6, options, tracer);
}

}  // namespace mipsbench
