// live-mutate: a LiveCatalog (4 growth shards, bmm + maximus) serving
// one closed-loop client's new-user queries while a mutator paced at 200
// ops/s sends Insert/Update/Remove at 60:25:15.  The only workload with
// writes beside reads, background rebuilds and epoch swaps.
//
// The query loop is closed (the client waits for each answer) so that a
// collapsed catalog still yields finite, repeatable numbers; the mutator
// is open-loop and its latency is timed from each scheduled send.
// Rebuild-window classification polls LiveCatalog::stats(), which copies
// the dead-id union under the state lock, so only traced runs poll it.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

#include "catalog/live_catalog.h"
#include "catalog/segment.h"
#include "workloads.h"

namespace mipsbench {
namespace {

using mips::ConstRowBlock;
using mips::LiveCatalog;

constexpr Index kK = 10;
constexpr Index kGateQueries = 64;
constexpr double kMutationRate = 200;  // ops/s, evenly spaced
/// How fully the window's queries follow the reference pass
/// (ReferenceClock::slowdown).  Like set-up, a query runs OPTIMUS's timed
/// sampling (it re-decides on each shard whenever the dead count gives it
/// a new k), whose length grows with timing noise; 0.5 kept throughput
/// and p50 steadiest over eight ten-seed sets (README, Host speed).
constexpr double kWindowTracking = 0.5;
/// A traced window alternates untraced and traced slices of this length
/// (at most a quarter of the window).  The catalog grows as the mutator
/// inserts, so queries slow down across the window: with the first half
/// untraced and the second traced, the "overhead" read 1.3-1.45 even
/// with the rebuild monitor switched off.
constexpr double kTraceSliceS = 1.0;

/// Rebuild-window state seen by the monitor thread.
struct Monitor {
  std::atomic<bool> rebuilding{false};
  double polls = 0;
  double buffered_rows_sum = 0;
  double dead_masked_sum = 0;
  Index dead_masked_max = 0;
  std::set<Index> dead_masked_seen;
  int64_t windows = 0;
  double window_seconds = 0;
};

/// What the query client saw over one or more phases.  A second client
/// made throughput swing by a quarter between identical runs, with how
/// often the two happened to share a fresh decision.
struct Client {
  /// Untraced, every query is `steady`; traced, `window` holds those
  /// that overlapped a rebuild or an epoch swap.
  Latencies steady;
  Latencies window;
  int64_t ok = 0;
  int64_t errors = 0;
  /// From each phase's start until its last query returned, summed.
  double elapsed_s = 0;
  /// Time inside TopKNewUser calls, summed: elapsed_s less the reference
  /// passes between the calls.
  double busy_s = 0;
};

/// Correctness gate: persists the live catalog, reopens the segment and
/// checks queries against brute force over the reopened rows.  The
/// segment compacts ids to 0..n-1 in ascending-id order, so the live ids
/// (`live`, sorted) map to segment rows by rank.
void CheckAgainstSegment(LiveCatalog* catalog, const std::vector<Index>& live,
                         const ConstRowBlock& users, const RunOptions& options,
                         Result* result) {
  static std::atomic<int> segment_counter{0};
  const std::string path = options.tmp_dir + "/live-" +
                           std::to_string(getpid()) + "-" +
                           std::to_string(segment_counter++) + ".seg";
  catalog->SaveSegment(path).CheckOK();
  {
    auto segment = mips::CatalogSegment::Open(path);
    segment.status().CheckOK();
    ++result->checked;
    if (segment->rows() != static_cast<Index>(live.size())) {
      ++result->mismatches;
    }
    std::mt19937_64 rng(options.seed ^ 0x6a7e5ull);
    std::vector<mips::TopKEntry> got(kK);
    for (Index q = 0; q < kGateQueries; ++q) {
      const Real* vector = users.Row(
          static_cast<Index>(rng() % static_cast<uint64_t>(users.rows())));
      catalog->TopKNewUser(vector, kK, got.data()).CheckOK();
      if (options.inject_mismatch && q == 0) got[0].item ^= 1;
      for (mips::TopKEntry& e : got) {
        if (e.item < 0) continue;
        const auto it = std::lower_bound(live.begin(), live.end(), e.item);
        e.item = it != live.end() && *it == e.item
                     ? static_cast<Index>(it - live.begin())
                     : -2;  // not a live id: matches no row
      }
      const mips::TopKResult want =
          ReferenceTopK(vector, 1, segment->items(), kK);
      ++result->checked;
      if (!RowMatches(got.data(), want.Row(0), kK, /*exact=*/false)) {
        ++result->mismatches;
      }
    }
  }  // unmapped before the file goes
  std::remove(path.c_str());
}

}  // namespace

Result RunLiveScenario(const mips::MFModel& model, const LiveParams& params,
                       const RunOptions& options, Tracer* tracer) {
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  const Index f = model.num_factors();

  mips::LiveCatalogOptions catalog_options;
  catalog_options.engine.k = kK;
  catalog_options.engine.solvers = {"bmm", "maximus"};
  catalog_options.num_shards = 4;
  catalog_options.sharding = mips::ShardingStrategy::kGrowth;
  catalog_options.threads = 0;
  catalog_options.rebuild_threshold = params.rebuild_threshold;

  Result result;
  ReferenceClock setup_clock;   // ticked before each set-up
  ReferenceClock window_clock;  // ticked after each query of the window
  // Recorded, not divided out: the passes run on the client's own thread
  // and already see the steal it sees (README, Host speed).
  const StealMeter steal;
  std::vector<double> setup_s;
  std::unique_ptr<LiveCatalog> catalog;
  for (int i = 0; i < params.setups; ++i) {
    catalog.reset();
    for (int t = 0; t < ReferenceClock::kTicksPerSetup; ++t) {
      setup_clock.Tick();
    }
    const Clock::time_point t0 = Clock::now();
    auto opened = LiveCatalog::Open(users, items, catalog_options);
    opened.status().CheckOK();
    const Clock::time_point t1 = Clock::now();
    Trace(tracer, SpanName::kOpen, t0, t1);
    catalog = std::move(*opened);
    setup_s.push_back(SecondsBetween(t0, t1));
  }
  Put(&result.metrics, "setup_s", Median(setup_s), "s");

  Monitor monitor;
  Index cursor = static_cast<Index>(options.seed %
                                    static_cast<uint64_t>(model.num_users()));
  std::vector<mips::TopKEntry> out(kK);

  // The closed-loop query client, on this thread, for one phase, adding
  // to `client`.  With a tracer it records spans and splits latencies by
  // rebuild/swap windows.  With `tick`, a reference pass follows each
  // query.
  const auto run_client = [&](double seconds, Tracer* phase_tracer,
                              Client* client, bool tick) {
    const bool classify = phase_tracer != nullptr;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    while (SecondsBetween(start, now) < seconds) {
      cursor = (cursor + 1) % model.num_users();
      const bool rebuilding_before = monitor.rebuilding.load();
      const int64_t epoch_before = classify ? catalog->catalog_epoch() : 0;
      const Clock::time_point t0 = Clock::now();
      const mips::Status status =
          catalog->TopKNewUser(users.Row(cursor), kK, out.data());
      now = Clock::now();
      Trace(phase_tracer, SpanName::kCatalogQuery, t0, now);
      client->busy_s += SecondsBetween(t0, now);
      if (tick) window_clock.Tick();
      ++result.attempted;
      if (!status.ok()) {
        ++client->errors;
        ++result.failed;
        continue;
      }
      ++client->ok;
      const bool in_window =
          classify && (rebuilding_before || monitor.rebuilding.load() ||
                       catalog->catalog_epoch() != epoch_before);
      (in_window ? client->window : client->steady)
          .Add(SecondsBetween(t0, now));
    }
    client->elapsed_s += SecondsBetween(start, now);
  };

  // Reads-only phase: warms the catalog and gives the static baseline.
  Client reads_only;
  run_client(params.static_s, nullptr, &reads_only, /*tick=*/false);

  // Live phase: the client plus the mutator; in the window, with a tracer,
  // alternately untraced and traced with the rebuild monitor on.
  std::atomic<bool> stop{false};
  std::vector<Index> live(static_cast<std::size_t>(model.num_items()));
  std::iota(live.begin(), live.end(), 0);
  Latencies mutation_latency;
  int64_t mutations = 0;
  int64_t mutation_errors = 0;
  std::thread mutator([&]() {
    std::mt19937_64 rng(options.seed ^ 0x3a7a7e5ull);
    std::uniform_real_distribution<double> draw(0.0, 1.0);
    std::uniform_real_distribution<Real> perturb(Real(0.9), Real(1.1));
    const std::size_t min_live = static_cast<std::size_t>(kK) + 16;
    std::vector<Real> vector(static_cast<std::size_t>(f));
    Clock::time_point due = Clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kMutationRate));
      if (due > Clock::now()) std::this_thread::sleep_until(due);
      if (stop.load(std::memory_order_relaxed)) break;
      const Real* src = items.Row(
          static_cast<Index>(rng() % static_cast<uint64_t>(items.rows())));
      for (std::size_t d = 0; d < vector.size(); ++d) {
        vector[d] = src[d] * perturb(rng);
      }
      const double u = draw(rng);
      const std::size_t pick =
          static_cast<std::size_t>(rng() % static_cast<uint64_t>(live.size()));
      const Clock::time_point t0 = Clock::now();
      mips::Status status;
      if (u < 0.60) {
        auto id = catalog->Insert(vector);
        status = id.status();
        if (id.ok()) live.push_back(*id);
      } else if (u < 0.85 || live.size() <= min_live) {
        status = catalog->Update(live[pick], vector);
      } else {
        status = catalog->Remove(live[pick]);
        if (status.ok()) {
          live[pick] = live.back();
          live.pop_back();
        }
      }
      const Clock::time_point t1 = Clock::now();
      Trace(tracer, SpanName::kCatalogMutation, t0, t1);
      if (status.ok()) {
        ++mutations;
        mutation_latency.Add(SecondsBetween(due, t1));
      } else {
        ++mutation_errors;
      }
    }
  });
  const LiveCatalog::Stats stats_before =
      tracer != nullptr ? catalog->stats() : LiveCatalog::Stats{};
  std::thread monitor_thread;
  if (tracer != nullptr) {
    monitor_thread = std::thread([&]() {
      Clock::time_point window_start;
      bool was = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const LiveCatalog::Stats s = catalog->stats();
        const Clock::time_point now = Clock::now();
        monitor.rebuilding.store(s.rebuild_running);
        monitor.polls += 1;
        monitor.buffered_rows_sum += s.buffered_rows;
        monitor.dead_masked_sum += s.dead_masked;
        monitor.dead_masked_max =
            std::max(monitor.dead_masked_max, s.dead_masked);
        monitor.dead_masked_seen.insert(s.dead_masked);
        if (s.rebuild_running && !was) window_start = now;
        if (!s.rebuild_running && was) {
          ++monitor.windows;
          monitor.window_seconds += SecondsBetween(window_start, now);
          Trace(tracer, SpanName::kRebuildWindow, window_start, now);
        }
        was = s.rebuild_running;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  Client untraced;
  Client live_client;
  if (tracer == nullptr) {
    run_client(params.window_s, nullptr, &live_client, /*tick=*/true);
  } else {
    const double slice_s = std::min(kTraceSliceS, params.window_s / 4);
    for (int slice = 0; slice * slice_s < params.window_s; ++slice) {
      const double length =
          std::min(slice_s, params.window_s - slice * slice_s);
      if (slice % 2 == 0) {
        run_client(length, nullptr, &untraced, /*tick=*/true);
      } else {
        run_client(length, tracer, &live_client, /*tick=*/true);
      }
    }
  }
  stop.store(true);
  mutator.join();
  if (monitor_thread.joinable()) monitor_thread.join();
  const LiveCatalog::Stats stats_after =
      tracer != nullptr ? catalog->stats() : LiveCatalog::Stats{};

  const Latencies& steady = live_client.steady;
  const Latencies& window = live_client.window;
  Latencies query_latency = steady;
  query_latency.Append(window);
  result.attempted += mutations + mutation_errors;
  result.failed += mutation_errors;
  Put(&result.metrics, "throughput_per_s",
      static_cast<double>(live_client.ok) / live_client.busy_s, "1/s");
  PutMs(&result.metrics, "p50_ms", query_latency.At(0.5));
  PutMs(&result.metrics, "request.p90_ms", query_latency.At(0.9));
  ToHostClock(setup_clock.slowdown(ReferenceClock::kSetupTracking),
              {"setup_s"}, &result.metrics);
  ToHostClock(window_clock.slowdown(kWindowTracking),
              {"throughput_per_s", "p50_ms", "request.p90_ms"},
              &result.metrics);
  PutHostSpeed(window_clock, steal.Share(), &result.metrics);

  std::sort(live.begin(), live.end());
  CheckAgainstSegment(catalog.get(), live, users, options, &result);
  result.failed += result.mismatches;
  // Memory is read after folding the buffer into one epoch: mid-window it
  // depends on where the last rebuild happened to stand.
  catalog->Rebuild().CheckOK();
  Put(&result.metrics, "heap_mb", HeapInUseMb(), "MB");

  if (tracer == nullptr) return result;
  result.info["base_strategy"] = stats_after.base_strategy;
  Metrics* m = &result.metrics;
  PutTraceOverhead(untraced.steady, query_latency, m);
  Put(m, "catalog.static_qps",
      static_cast<double>(reads_only.ok) / reads_only.elapsed_s, "1/s");
  Put(m, "catalog.rebuilds",
      static_cast<double>(stats_after.rebuilds_started -
                          stats_before.rebuilds_started),
      "count");
  Put(m, "catalog.swaps",
      static_cast<double>(stats_after.swaps - stats_before.swaps), "count");
  Put(m, "catalog.decisions_retired",
      static_cast<double>(stats_after.decisions_retired -
                          stats_before.decisions_retired),
      "count");
  Put(m, "catalog.rebuild_s",
      Ratio(monitor.window_seconds, static_cast<double>(monitor.windows)), "s");
  Put(m, "catalog.window_frac",
      Ratio(static_cast<double>(window.size()),
          static_cast<double>(query_latency.size())),
      "ratio");
  PutMs(m, "catalog.window_p90_ms", window.At(0.9));
  PutMs(m, "catalog.steady_p90_ms", steady.At(0.9));
  PutMs(m, "catalog.mutation_p99_ms", mutation_latency.At(0.99));
  Put(m, "catalog.buffered_rows_mean",
      Ratio(monitor.buffered_rows_sum, monitor.polls), "count");
  Put(m, "catalog.dead_masked_mean",
      Ratio(monitor.dead_masked_sum, monitor.polls), "count");
  Put(m, "catalog.dead_masked_max", monitor.dead_masked_max, "count");
  // Each distinct dead count is a distinct base-engine k (k + dead).
  Put(m, "catalog.base_k_distinct",
      static_cast<double>(monitor.dead_masked_seen.size()), "count");
  return result;
}

Result RunLiveMutate(const RunOptions& options, Tracer* tracer) {
  const mips::MFModel model =
      MakeWorkloadModel("netflix-nomad-50", options.smoke ? 0.1 : 1);
  LiveParams params;
  params.window_s = options.seconds;
  if (options.smoke) {
    params.static_s = 0.1;
    params.rebuild_threshold = 16;
    params.setups = 1;
  }
  Result result = RunLiveScenario(model, params, options, tracer);
  if (tracer == nullptr) return result;
  Metrics* m = &result.metrics;
  ProbeLinalg(model, m);
  ProbeTopk(model, m);
  ProbeSolversAndOptimus(model, m);
  const int extra_ks = std::clamp(
      static_cast<int>(m->at("catalog.dead_masked_max").value), 1, 16);
  ProbeEngineShard(model, extra_ks, /*decision_counts=*/true, m);
  ProbeServe(model, options, &result);
  return result;
}

}  // namespace mipsbench
