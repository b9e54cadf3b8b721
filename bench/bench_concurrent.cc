// Closed- and open-loop multi-client serving throughput (Figure 6
// extended into the Clipper-style setting).
//
// Closed loop: the paper's multi-core result parallelizes *inside* one
// query batch (user partitioning); a serving deployment additionally
// faces many independent clients hitting the same MipsEngine.  T client
// threads issue mixed-k TopK mini-batches back-to-back against one
// shared engine for a fixed wall-clock window; the table reports per-T
// throughput (QPS over requests and users) and request latency
// percentiles (p50/p99).  The mixed k values deliberately exercise the
// engine's per-k decision cache — the first request at each new k pays
// the (shared-mutex-serialized) OPTIMUS re-decision; the steady state
// is lock-shared reads.
//
//   bench_concurrent --clients=8 --seconds=2 --k=1,5,10 --threads=0
//
// Open loop (--rates): single-user new-user requests arrive on a
// Poisson process at each offered rate, regardless of how fast the
// server drains them — the regime where request coalescing matters.
// Each rate runs twice through the SAME admission pipeline
// (serve/batching_engine.h): a no-batching baseline (max_batch_rows=1:
// every request is its own 1-row GEMM) and the coalescing configuration
// (--batch_rows/--batch_wait_ms), so the delta is the batching win in
// isolation.  The table reports offered vs achieved QPS, latency
// percentiles over served requests, shed/expired counts (overload
// behavior under --batch_policy), and the realized mean batch size.
//
//   bench_concurrent --rates=100,200,400 --open_seconds=2
//                    --batch_rows=64 --batch_wait_ms=2 --batch_policy=shed
//
// --threads sizes the engine's internal pool (parallelism inside one
// batch); --clients scales the number of concurrent callers.  On a
// 1-core host expect flat QPS with rising latency as clients grow; on
// real multi-core hardware QPS should scale until cores saturate.
// --json_out additionally writes every measurement (closed and open
// loop) as JSON for checked-in snapshots and CI trend lines.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/engine.h"
#include "serve/batching_engine.h"
#include "shard/sharded_engine.h"

using namespace mips;
using namespace mips::bench;

namespace {

std::vector<std::string> SplitSpecs(const std::string& csv) {
  std::vector<std::string> specs;
  std::string current;
  for (const char c : csv) {
    if (c == ',') {
      if (!current.empty()) specs.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) specs.push_back(current);
  return specs;
}

double Percentile(std::vector<double>* sorted_seconds, double p) {
  if (sorted_seconds->empty()) return 0;
  const std::size_t idx = std::min(
      sorted_seconds->size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_seconds->size())));
  return (*sorted_seconds)[idx];
}

std::vector<double> ParseRateList(const std::string& csv) {
  std::vector<double> rates;
  for (const std::string& spec : SplitSpecs(csv)) {
    const double rate = std::strtod(spec.c_str(), nullptr);
    if (rate > 0) rates.push_back(rate);
  }
  return rates;
}

/// One measurement row, kept for --json_out.
struct ClosedLoopRow {
  std::string label;
  int clients = 0;
  int64_t requests = 0;
  double qps = 0;
  double users_per_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  int64_t redecisions = 0;
};

struct OpenLoopRow {
  std::string mode;  // "no_batching" or "batching"
  double offered_qps = 0;
  int64_t submitted = 0;
  int64_t served = 0;
  int64_t shed = 0;
  int64_t expired = 0;
  double achieved_qps = 0;
  double p50_s = 0;
  double p99_s = 0;
  int64_t batches = 0;
  double mean_batch_rows = 0;
};

/// One closed-loop client sweep (1, 2, 4, ... max_clients) against any
/// engine, expressed as a serve callback so the unsharded and sharded
/// engines run through identical harness code.
void RunSweep(const std::string& label, int max_clients, int batch_size,
              double seconds, const std::vector<Index>& ks, Index num_users,
              const std::function<void(Index, std::span<const Index>,
                                       TopKResult*)>& serve,
              const std::function<int64_t()>& redecisions,
              std::vector<ClosedLoopRow>* json_rows) {
  std::printf("-- %s --\n", label.c_str());
  TablePrinter table({"Clients", "Requests", "QPS", "Users/s", "p50", "p99",
                      "Redecisions"});
  for (int clients = 1; clients <= max_clients; clients *= 2) {
    const int64_t redecisions_before = redecisions();
    std::atomic<bool> stop{false};
    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> workers;
    for (int t = 0; t < clients; ++t) {
      workers.emplace_back([&, t]() {
        std::vector<double>& mine = latencies[static_cast<std::size_t>(t)];
        std::vector<Index> batch(static_cast<std::size_t>(batch_size));
        TopKResult out;
        Index cursor = static_cast<Index>(t) * 97 % num_users;
        std::size_t request = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const Index k = ks[request++ % ks.size()];
          for (auto& id : batch) {
            cursor = (cursor + 1) % num_users;
            id = cursor;
          }
          WallTimer timer;
          serve(k, batch, &out);
          mine.push_back(timer.Seconds());
        }
      });
    }
    WallTimer window;
    while (window.Seconds() < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop.store(true, std::memory_order_relaxed);
    for (auto& w : workers) w.join();
    const double elapsed = window.Seconds();

    std::vector<double> all;
    for (const auto& lane : latencies) {
      all.insert(all.end(), lane.begin(), lane.end());
    }
    std::sort(all.begin(), all.end());
    const double qps = static_cast<double>(all.size()) / elapsed;
    ClosedLoopRow row;
    row.label = label;
    row.clients = clients;
    row.requests = static_cast<int64_t>(all.size());
    row.qps = qps;
    row.users_per_s = qps * batch_size;
    row.p50_s = Percentile(&all, 0.50);
    row.p99_s = Percentile(&all, 0.99);
    row.redecisions = redecisions() - redecisions_before;
    if (json_rows != nullptr) json_rows->push_back(row);
    table.AddRow({FmtInt(clients), FmtInt(row.requests), Fmt(qps, 1),
                  Fmt(row.users_per_s, 1), FormatSeconds(row.p50_s),
                  FormatSeconds(row.p99_s), FmtInt(row.redecisions)});
  }
  table.Print();
  std::printf("\n");
}

/// One open-loop run: Poisson arrivals at `offered_qps` for
/// `window_seconds`, submitted asynchronously through a fresh
/// BatchingEngine in front of `engine`.  The arrival thread pre-draws
/// the whole schedule and never blocks on completions (true open loop;
/// use policy=shed so admission cannot block it either).  A collector
/// thread resolves futures in submission order — batches complete FIFO
/// per k, so the timestamp it takes after each get() is the request's
/// completion time to within the (sub-microsecond) bookkeeping cost.
OpenLoopRow RunOpenLoop(const std::string& mode, MipsEngine* engine,
                        const MFModel& model, double offered_qps,
                        double window_seconds, Index k,
                        const BatchingOptions& batching, uint64_t seed) {
  auto created = BatchingEngine::Create(
      [engine](const Real* vectors, Index rows, Index batch_k,
               TopKResult* out) {
        return engine->TopKNewUsers(vectors, rows, batch_k, out);
      },
      engine->num_factors(), batching);
  created.status().CheckOK();
  BatchingEngine* batcher = created->get();

  const int64_t total = std::max<int64_t>(
      1, static_cast<int64_t>(offered_qps * window_seconds));
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(offered_qps);
  std::vector<double> schedule(static_cast<std::size_t>(total));
  double t = 0;
  for (double& arrival : schedule) {
    // mips-tidy: allow(float-accumulation): Poisson arrival schedule.
    t += gap(rng);
    arrival = t;
  }

  const Index num_users = model.num_users();
  using Clock = std::chrono::steady_clock;
  std::vector<TopKEntry> out(static_cast<std::size_t>(total) *
                             static_cast<std::size_t>(k));
  std::vector<std::future<Status>> futures(static_cast<std::size_t>(total));
  std::vector<Clock::time_point> submit_time(static_cast<std::size_t>(total));
  std::atomic<int64_t> submitted_count{0};

  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(total));
  int64_t served = 0, shed = 0, expired = 0, other_errors = 0;
  Clock::time_point last_completion{};

  std::thread collector([&]() {
    for (int64_t i = 0; i < total; ++i) {
      while (submitted_count.load(std::memory_order_acquire) <= i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const std::size_t idx = static_cast<std::size_t>(i);
      const Status status = futures[idx].get();
      const Clock::time_point done = Clock::now();
      last_completion = done;
      if (status.ok()) {
        ++served;
        latencies.push_back(
            std::chrono::duration<double>(done - submit_time[idx]).count());
      } else if (status.code() == StatusCode::kResourceExhausted) {
        ++shed;
      } else if (status.code() == StatusCode::kDeadlineExceeded) {
        ++expired;
      } else {
        ++other_errors;
      }
    }
  });

  const Clock::time_point start = Clock::now();
  for (int64_t i = 0; i < total; ++i) {
    const std::size_t idx = static_cast<std::size_t>(i);
    const Clock::time_point target =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[idx]));
    // If we are behind schedule the arrivals burst instead of thinning —
    // that is what "open loop" means.
    if (target > Clock::now()) std::this_thread::sleep_until(target);
    const Index user = static_cast<Index>(i % num_users);
    submit_time[idx] = Clock::now();
    futures[idx] = batcher->SubmitNewUser(model.users.Row(user), k,
                                          &out[idx * static_cast<std::size_t>(k)]);
    submitted_count.store(i + 1, std::memory_order_release);
  }
  collector.join();

  const BatchingEngine::Stats stats = batcher->stats();
  OpenLoopRow row;
  row.mode = mode;
  row.offered_qps = offered_qps;
  row.submitted = total;
  row.served = served;
  row.shed = shed;
  row.expired = expired + other_errors;
  const double elapsed =
      std::chrono::duration<double>(last_completion - start).count();
  row.achieved_qps = elapsed > 0 ? static_cast<double>(served) / elapsed : 0;
  std::sort(latencies.begin(), latencies.end());
  row.p50_s = Percentile(&latencies, 0.50);
  row.p99_s = Percentile(&latencies, 0.99);
  row.batches = stats.batches_dispatched;
  row.mean_batch_rows =
      stats.batches_dispatched > 0
          ? static_cast<double>(stats.served) /
                static_cast<double>(stats.batches_dispatched)
          : 0;
  return row;
}

void WriteJson(const std::string& path, const std::string& model_name,
               const BenchConfig& config, int engine_threads,
               const std::vector<ClosedLoopRow>& closed,
               const std::vector<OpenLoopRow>& open) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"concurrent\",\n");
  std::fprintf(f, "  \"model\": \"%s\",\n", model_name.c_str());
  std::fprintf(f, "  \"scale\": %g,\n", config.scale);
  std::fprintf(f, "  \"engine_threads\": %d,\n", engine_threads);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"closed_loop\": [");
  for (std::size_t i = 0; i < closed.size(); ++i) {
    const ClosedLoopRow& r = closed[i];
    std::fprintf(f,
                 "%s\n    {\"label\": \"%s\", \"clients\": %d, "
                 "\"requests\": %lld, \"qps\": %.1f, \"users_per_s\": %.1f, "
                 "\"p50_s\": %.6g, \"p99_s\": %.6g, \"redecisions\": %lld}",
                 i == 0 ? "" : ",", r.label.c_str(), r.clients,
                 static_cast<long long>(r.requests), r.qps, r.users_per_s,
                 r.p50_s, r.p99_s, static_cast<long long>(r.redecisions));
  }
  std::fprintf(f, "\n  ],\n");
  std::fprintf(f, "  \"open_loop\": [");
  for (std::size_t i = 0; i < open.size(); ++i) {
    const OpenLoopRow& r = open[i];
    std::fprintf(f,
                 "%s\n    {\"mode\": \"%s\", \"offered_qps\": %.1f, "
                 "\"submitted\": %lld, \"served\": %lld, \"shed\": %lld, "
                 "\"expired\": %lld, \"achieved_qps\": %.1f, "
                 "\"p50_s\": %.6g, \"p99_s\": %.6g, \"batches\": %lld, "
                 "\"mean_batch_rows\": %.2f}",
                 i == 0 ? "" : ",", r.mode.c_str(), r.offered_qps,
                 static_cast<long long>(r.submitted),
                 static_cast<long long>(r.served),
                 static_cast<long long>(r.shed),
                 static_cast<long long>(r.expired), r.achieved_qps, r.p50_s,
                 r.p99_s, static_cast<long long>(r.batches),
                 r.mean_batch_rows);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  BenchConfig config;
  int32_t max_clients = 8;
  int32_t batch_size = 16;
  int32_t shards = 0;
  std::string shard_strategy = "contiguous";
  double seconds = 2.0;
  std::string solvers = "bmm,maximus";
  std::string rates;
  double open_seconds = 2.0;
  int32_t open_k = 10;
  int32_t batch_rows = 64;
  double batch_wait_ms = 2.0;
  std::string batch_policy = "shed";
  int32_t queue_rows = 1024;
  double deadline_ms = 0;
  int32_t executors = 2;
  std::string json_out;
  flags.Int32("clients", &max_clients,
              "max concurrent client threads (sweeps 1,2,4,... up to this)");
  flags.Int32("batch", &batch_size, "users per TopK request");
  flags.Int32("shards", &shards,
              "also sweep a ShardedMipsEngine with this many item shards "
              "(0 = unsharded only) and report the overhead vs the "
              "unsharded baseline");
  flags.String("shard_strategy", &shard_strategy,
               "item placement for --shards: contiguous or hash");
  flags.Double("seconds", &seconds, "measurement window per client count");
  flags.String("solvers", &solvers, "engine candidate specs, comma-separated");
  flags.String("rates", &rates,
               "open-loop offered rates in requests/s, comma-separated "
               "(empty = closed loop only); each rate runs a no-batching "
               "baseline and the --batch_rows coalescing config");
  flags.Double("open_seconds", &open_seconds,
               "open-loop arrival window per rate");
  flags.Int32("open_k", &open_k, "k for open-loop new-user requests");
  flags.Int32("batch_rows", &batch_rows,
              "open loop: max coalesced rows per dispatched batch");
  flags.Double("batch_wait_ms", &batch_wait_ms,
               "open loop: bounded-delay flush timeout");
  flags.String("batch_policy", &batch_policy,
               "open loop overload policy: shed, block, or drop_expired "
               "(block stalls the Poisson arrival thread at the bound, "
               "turning the run closed-loop under overload)");
  flags.Int32("queue_rows", &queue_rows,
              "open loop: admission bound on outstanding rows");
  flags.Double("deadline_ms", &deadline_ms,
               "open loop: per-request deadline (0 = none)");
  flags.Int32("executors", &executors,
              "open loop: batch executor threads");
  flags.String("json_out", &json_out,
               "write all measurements to this file as JSON");
  config.ks = "1,5,10";
  ParseBenchFlags(argc, argv, &flags, &config);

  auto preset = FindModelPreset("netflix-nomad-50");
  preset.status().CheckOK();
  const MFModel model = MakeBenchModel(*preset, config);
  const std::vector<Index> ks = ParseKList(config.ks);

  EngineOptions options;
  options.k = ks.empty() ? 10 : ks.front();
  options.solvers = SplitSpecs(solvers);
  options.threads = config.threads > 1 ? config.threads : 0;
  auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items), options);
  engine.status().CheckOK();

  std::printf(
      "== Concurrent serving: %s (%d users, %d items), batch=%d, "
      "ks=%s, engine threads=%d ==\n",
      preset->display_name.c_str(), model.num_users(), model.num_items(),
      batch_size, config.ks.c_str(), options.threads);
  std::printf("host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  const Index num_users = model.num_users();
  std::vector<ClosedLoopRow> closed_rows;
  std::vector<OpenLoopRow> open_rows;
  RunSweep("unsharded baseline", max_clients, batch_size, seconds, ks,
           num_users,
           [&](Index k, std::span<const Index> batch, TopKResult* out) {
             (*engine)->TopK(k, batch, out).CheckOK();
           },
           [&]() { return (*engine)->stats().redecisions; }, &closed_rows);

  if (shards > 1) {
    auto strategy = ParseShardingStrategy(shard_strategy);
    strategy.status().CheckOK();
    ShardedEngineOptions sharded_options;
    sharded_options.num_shards = shards;
    sharded_options.sharding = *strategy;
    sharded_options.engine = options;
    sharded_options.threads = options.threads;
    auto sharded = ShardedMipsEngine::Open(ConstRowBlock(model.users),
                                           ConstRowBlock(model.items),
                                           sharded_options);
    sharded.status().CheckOK();
    RunSweep("sharded: " + std::to_string(shards) + " " + shard_strategy +
                 " item shards",
             max_clients, batch_size, seconds, ks, num_users,
             [&](Index k, std::span<const Index> batch, TopKResult* out) {
               (*sharded)->TopK(k, batch, out).CheckOK();
             },
             [&]() { return (*sharded)->stats().redecisions; }, &closed_rows);

    // Per-shard decision summary: the paper's point is that the winner is
    // data-dependent, so heterogeneous shards should show heterogeneous
    // choices — and the re-decision column shows what the mixed-k stream
    // cost each shard.
    TablePrinter shard_table({"Shard", "Items", "Opening choice", "Serving",
                              "Redecisions", "Cache hit/miss"});
    const ShardedMipsEngine::Stats stats = (*sharded)->stats();
    for (int s = 0; s < (*sharded)->num_shards(); ++s) {
      const auto& shard = stats.shards[static_cast<std::size_t>(s)];
      shard_table.AddRow(
          {FmtInt(s), FmtInt(shard.num_items),
           shard.opening_choice.empty() ? "-" : shard.opening_choice,
           shard.strategy.empty() ? "-" : shard.strategy,
           FmtInt(shard.stats.redecisions),
           FmtInt(shard.stats.decision_cache_hits) + "/" +
               FmtInt(shard.stats.decision_cache_misses)});
    }
    shard_table.Print();
    std::printf("\n");
  }

  std::printf(
      "Closed loop: each client issues its next request as soon as the "
      "previous one returns.  Re-decisions only appear in the first "
      "window (the per-k cache is shared and persistent).\n");

  const std::vector<double> open_rates = ParseRateList(rates);
  if (!open_rates.empty()) {
    // A dedicated engine with shape-keyed decisions: OPTIMUS re-decides
    // per realized batch size, so 1-row baseline traffic and 64-row
    // coalesced batches each get the winner for *their* shape.
    EngineOptions open_options = options;
    open_options.k = open_k;
    open_options.batch_shape_decisions = true;
    auto open_engine = MipsEngine::Open(ConstRowBlock(model.users),
                                        ConstRowBlock(model.items),
                                        open_options);
    open_engine.status().CheckOK();

    auto policy = ParseOverloadPolicy(batch_policy);
    policy.status().CheckOK();
    BatchingOptions coalescing;
    coalescing.max_batch_rows = batch_rows;
    coalescing.max_wait_ms = batch_wait_ms;
    coalescing.max_queue_rows = std::max<Index>(queue_rows, batch_rows);
    coalescing.overload_policy = *policy;
    coalescing.default_deadline_ms = deadline_ms;
    coalescing.executor_threads = executors;
    BatchingOptions singleton = coalescing;
    singleton.max_batch_rows = 1;
    singleton.max_queue_rows = std::max<Index>(queue_rows, 1);

    std::printf(
        "\n== Open loop: Poisson arrivals, k=%d, %.1fs per rate, "
        "policy=%s, batch_rows=%d, wait=%.1fms ==\n",
        open_k, open_seconds, ToString(*policy), batch_rows, batch_wait_ms);
    TablePrinter open_table({"Mode", "Offered", "Achieved", "Served", "Shed",
                             "Expired", "p50", "p99", "Rows/batch"});
    uint64_t seed = config.seed;
    struct ModeConfig {
      const char* name;
      const BatchingOptions* opts;
    };
    const ModeConfig modes[] = {{"no_batching", &singleton},
                                {"batching", &coalescing}};
    for (const double rate : open_rates) {
      for (const ModeConfig& mode : modes) {
        const OpenLoopRow row =
            RunOpenLoop(mode.name, open_engine->get(), model, rate,
                        open_seconds, open_k, *mode.opts, ++seed);
        open_rows.push_back(row);
        open_table.AddRow({row.mode, Fmt(row.offered_qps, 1),
                           Fmt(row.achieved_qps, 1), FmtInt(row.served),
                           FmtInt(row.shed), FmtInt(row.expired),
                           FormatSeconds(row.p50_s), FormatSeconds(row.p99_s),
                           Fmt(row.mean_batch_rows, 2)});
      }
    }
    open_table.Print();
    std::printf(
        "\nOpen loop: arrivals do not wait for completions; under "
        "overload the %s policy decides what gives.  Both modes run the "
        "same admission pipeline — no_batching pins max_batch_rows=1.\n",
        ToString(*policy));
  }

  if (!json_out.empty()) {
    WriteJson(json_out, preset->display_name, config, options.threads,
              closed_rows, open_rows);
  }
  return 0;
}
