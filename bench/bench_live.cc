// Live-catalog serving under online mutation (the serving-layer story
// the static benches cannot tell).
//
// A LiveCatalog serves exact top-K while Insert/Update/Remove land in
// its write buffer and background rebuilds fold the buffer into fresh
// epochs (catalog/live_catalog.h).  The question for a deployment is
// what mutations and epoch swaps cost the *query* path: the brute-force
// pass over the buffer grows with buffered rows, and a swap retires cached
// OPTIMUS decisions, so the first queries after an install pay
// re-decisions.
//
// The harness runs two open-loop phases against one catalog:
//
//   static: Poisson query arrivals only — the no-mutation baseline.
//   live:   the same query load, plus a mutator thread replaying a
//           paced insert/update/remove stream (--mutation_rate ops/s,
//           --mix insert:update:remove).  Buffered mutations trip the
//           catalog's rebuild threshold, so background rebuilds and
//           epoch swaps happen mid-measurement.
//
// Each query samples the catalog's (lock-free) epoch counter before
// and after, and a monitor thread tracks whether a rebuild is running;
// latencies are bucketed into "steady" and "rebuild/swap window" so
// the table shows what the swap machinery costs while it is active,
// not just averaged away.
//
//   bench_live --seconds=2 --rate=400 --mutation_rate=200
//              --mix=60:25:15 --rebuild_threshold=64 --shards=4
//
// --json_out writes every phase row for checked-in snapshots.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "catalog/live_catalog.h"
#include "common/timer.h"
#include "shard/partition.h"

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

/// insert:update:remove fractions, normalized from "60:25:15".
struct MutationMix {
  double insert = 0.6;
  double update = 0.25;
  double remove = 0.15;
};

bool ParseMix(const std::string& spec, MutationMix* mix) {
  double i = 0, u = 0, r = 0;
  if (std::sscanf(spec.c_str(), "%lf:%lf:%lf", &i, &u, &r) != 3) return false;
  const double total = i + u + r;
  if (!(total > 0) || i < 0 || u < 0 || r < 0) return false;
  mix->insert = i / total;
  mix->update = u / total;
  mix->remove = r / total;
  return true;
}

/// One measurement row, kept for --json_out.
struct PhaseRow {
  std::string phase;
  int64_t requests = 0;
  double offered_qps = 0;
  double achieved_qps = 0;
  double p50_s = 0;
  double p99_s = 0;
  int64_t steady_samples = 0;
  double p50_steady_s = 0;
  double p99_steady_s = 0;
  int64_t window_samples = 0;  // taken during a rebuild or across a swap
  double p50_window_s = 0;
  double p99_window_s = 0;
  int64_t mutations = 0;
  int64_t mutation_errors = 0;
  int64_t rebuilds = 0;
  int64_t swaps = 0;
  int64_t epochs_drained = 0;
  int64_t decisions_retired = 0;
  int64_t live_items = 0;
};

struct MutatorConfig {
  double rate = 0;  // ops/s; 0 disables the mutator entirely
  MutationMix mix;
  Index min_live = 0;  // removes are skipped below this floor
};

/// Replays a paced mutation stream until `stop`.  The mutator owns the
/// id universe (single writer): it starts from the base ids and tracks
/// inserts/removes locally, so Update/Remove always target live ids.
void RunMutator(LiveCatalog* catalog, const ConstRowBlock& items,
                const MutatorConfig& config, uint64_t seed,
                const std::atomic<bool>* stop, int64_t* applied,
                int64_t* errors) {
  using Clock = std::chrono::steady_clock;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(config.rate);
  std::uniform_real_distribution<double> op_draw(0.0, 1.0);
  std::uniform_real_distribution<Real> perturb(Real(0.9), Real(1.1));
  const Index f = items.cols();
  std::vector<Index> live(static_cast<std::size_t>(catalog->num_items()));
  for (std::size_t i = 0; i < live.size(); ++i) {
    live[i] = static_cast<Index>(i);
  }
  std::vector<Real> vector(static_cast<std::size_t>(f));
  Clock::time_point next = Clock::now();
  while (!stop->load(std::memory_order_relaxed)) {
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(gap(rng)));
    if (next > Clock::now()) std::this_thread::sleep_until(next);
    if (stop->load(std::memory_order_relaxed)) break;

    const std::size_t src = static_cast<std::size_t>(
        rng() % static_cast<uint64_t>(items.rows()));
    const Real* row = items.Row(static_cast<Index>(src));
    for (std::size_t d = 0; d < vector.size(); ++d) {
      vector[d] = row[d] * perturb(rng);
    }

    double u = op_draw(rng);
    // Force inserts back in whenever the floor makes removes illegal, so
    // the realized mix stays close to the requested one over time.
    const bool can_shrink =
        static_cast<Index>(live.size()) > config.min_live;
    Status status;
    if (u < config.mix.insert || live.empty()) {
      auto id = catalog->Insert(vector);
      status = id.status();
      if (id.ok()) live.push_back(*id);
    } else if (u < config.mix.insert + config.mix.update || !can_shrink) {
      const std::size_t pick = static_cast<std::size_t>(
          rng() % static_cast<uint64_t>(live.size()));
      status = catalog->Update(live[pick], vector);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng() % static_cast<uint64_t>(live.size()));
      status = catalog->Remove(live[pick]);
      if (status.ok()) {
        live[pick] = live.back();
        live.pop_back();
      }
    }
    if (status.ok()) {
      ++*applied;
    } else {
      ++*errors;
    }
  }
}

/// One open-loop phase: Poisson query arrivals split across `clients`
/// threads, each issuing single new-user requests synchronously and
/// classifying its own latencies by the catalog's epoch counter and
/// the monitor's rebuild flag.
PhaseRow RunPhase(const std::string& phase, LiveCatalog* catalog,
                  const MFModel& model, int clients, double offered_qps,
                  double seconds, Index k, const MutatorConfig& mutator,
                  uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  const LiveCatalog::Stats before = catalog->stats();

  std::atomic<bool> stop{false};
  std::atomic<bool> rebuild_active{false};
  std::thread monitor([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      rebuild_active.store(catalog->stats().rebuild_running,
                           std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  int64_t mutations = 0, mutation_errors = 0;
  std::thread mutator_thread;
  if (mutator.rate > 0) {
    mutator_thread = std::thread([&]() {
      RunMutator(catalog, ConstRowBlock(model.items), mutator, seed ^ 0x9e3779b9,
                 &stop, &mutations, &mutation_errors);
    });
  }

  struct Lane {
    std::vector<double> steady;
    std::vector<double> window;
  };
  std::vector<Lane> lanes(static_cast<std::size_t>(clients));
  std::vector<std::thread> workers;
  const double per_client_rate = offered_qps / clients;
  const Index num_users = model.num_users();
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&, t]() {
      Lane& lane = lanes[static_cast<std::size_t>(t)];
      std::mt19937_64 rng(seed + static_cast<uint64_t>(t) * 7919);
      std::exponential_distribution<double> gap(per_client_rate);
      std::vector<TopKEntry> out(static_cast<std::size_t>(k));
      Index cursor = static_cast<Index>(t) * 131 % num_users;
      Clock::time_point next = Clock::now();
      while (!stop.load(std::memory_order_relaxed)) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap(rng)));
        // Behind schedule => burst, not thin out (open loop).
        if (next > Clock::now()) std::this_thread::sleep_until(next);
        if (stop.load(std::memory_order_relaxed)) break;
        cursor = (cursor + 1) % num_users;
        const bool rebuilding = rebuild_active.load(std::memory_order_relaxed);
        const int64_t epoch_before = catalog->catalog_epoch();
        WallTimer timer;
        catalog->TopKNewUser(model.users.Row(cursor), k, out.data()).CheckOK();
        const double latency = timer.Seconds();
        const bool in_window = rebuilding ||
                               rebuild_active.load(std::memory_order_relaxed) ||
                               catalog->catalog_epoch() != epoch_before;
        (in_window ? lane.window : lane.steady).push_back(latency);
      }
    });
  }

  WallTimer window_timer;
  while (window_timer.Seconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  if (mutator_thread.joinable()) mutator_thread.join();
  monitor.join();
  const double elapsed = window_timer.Seconds();

  std::vector<double> steady, in_window, all;
  for (const Lane& lane : lanes) {
    steady.insert(steady.end(), lane.steady.begin(), lane.steady.end());
    in_window.insert(in_window.end(), lane.window.begin(), lane.window.end());
  }
  all = steady;
  all.insert(all.end(), in_window.begin(), in_window.end());
  std::sort(steady.begin(), steady.end());
  std::sort(in_window.begin(), in_window.end());
  std::sort(all.begin(), all.end());

  const LiveCatalog::Stats after = catalog->stats();
  PhaseRow row;
  row.phase = phase;
  row.requests = static_cast<int64_t>(all.size());
  row.offered_qps = offered_qps;
  row.achieved_qps =
      elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  row.p50_s = Percentile(&all, 0.50);
  row.p99_s = Percentile(&all, 0.99);
  row.steady_samples = static_cast<int64_t>(steady.size());
  row.p50_steady_s = Percentile(&steady, 0.50);
  row.p99_steady_s = Percentile(&steady, 0.99);
  row.window_samples = static_cast<int64_t>(in_window.size());
  row.p50_window_s = Percentile(&in_window, 0.50);
  row.p99_window_s = Percentile(&in_window, 0.99);
  row.mutations = mutations;
  row.mutation_errors = mutation_errors;
  row.rebuilds = after.rebuilds_started - before.rebuilds_started;
  row.swaps = after.swaps - before.swaps;
  row.epochs_drained = after.epochs_drained - before.epochs_drained;
  row.decisions_retired = after.decisions_retired - before.decisions_retired;
  row.live_items = after.live_items;
  return row;
}

void WriteJson(const std::string& path, const std::string& model_name,
               const BenchConfig& config, int shards,
               int64_t rebuild_threshold, double mutation_rate,
               const std::string& mix, const std::vector<PhaseRow>& phases) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"live\",\n");
  std::fprintf(f, "  \"model\": \"%s\",\n", model_name.c_str());
  std::fprintf(f, "  \"scale\": %g,\n", config.scale);
  std::fprintf(f, "  \"shards\": %d,\n", shards);
  std::fprintf(f, "  \"rebuild_threshold\": %lld,\n",
               static_cast<long long>(rebuild_threshold));
  std::fprintf(f, "  \"mutation_rate\": %g,\n", mutation_rate);
  std::fprintf(f, "  \"mix\": \"%s\",\n", mix.c_str());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"phases\": [");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRow& r = phases[i];
    std::fprintf(
        f,
        "%s\n    {\"phase\": \"%s\", \"requests\": %lld, "
        "\"offered_qps\": %.1f, \"achieved_qps\": %.1f, "
        "\"p50_s\": %.6g, \"p99_s\": %.6g, "
        "\"steady_samples\": %lld, \"p50_steady_s\": %.6g, "
        "\"p99_steady_s\": %.6g, \"window_samples\": %lld, "
        "\"p50_window_s\": %.6g, \"p99_window_s\": %.6g, "
        "\"mutations\": %lld, \"mutation_errors\": %lld, "
        "\"rebuilds\": %lld, \"swaps\": %lld, \"epochs_drained\": %lld, "
        "\"decisions_retired\": %lld, \"live_items\": %lld}",
        i == 0 ? "" : ",", r.phase.c_str(),
        static_cast<long long>(r.requests), r.offered_qps, r.achieved_qps,
        r.p50_s, r.p99_s, static_cast<long long>(r.steady_samples),
        r.p50_steady_s, r.p99_steady_s,
        static_cast<long long>(r.window_samples), r.p50_window_s,
        r.p99_window_s, static_cast<long long>(r.mutations),
        static_cast<long long>(r.mutation_errors),
        static_cast<long long>(r.rebuilds), static_cast<long long>(r.swaps),
        static_cast<long long>(r.epochs_drained),
        static_cast<long long>(r.decisions_retired),
        static_cast<long long>(r.live_items));
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  BenchConfig config;
  int32_t clients = 4;
  int32_t k = 10;
  int32_t shards = 0;
  int64_t rebuild_threshold = 64;
  double seconds = 2.0;
  double rate = 400.0;
  double mutation_rate = 200.0;
  std::string mix_spec = "60:25:15";
  std::string solvers = "bmm,maximus";
  std::string json_out;
  flags.Int32("clients", &clients, "concurrent query client threads");
  flags.Int32("k", &k, "top-K per query");
  flags.Int32("shards", &shards,
              "item shards per epoch (0/1 = unsharded; > 1 uses the "
              "growth strategy so appends land in the newest shard)");
  flags.Int64("rebuild_threshold", &rebuild_threshold,
              "buffered mutations that trigger a background rebuild");
  flags.Double("seconds", &seconds, "measurement window per phase");
  flags.Double("rate", &rate, "offered query rate (requests/s, open loop)");
  flags.Double("mutation_rate", &mutation_rate,
               "offered mutation rate during the live phase (ops/s)");
  flags.String("mix", &mix_spec,
               "insert:update:remove mix for the mutation stream");
  flags.String("solvers", &solvers, "engine candidate specs, comma-separated");
  flags.String("json_out", &json_out,
               "write all phase measurements to this file as JSON");
  ParseBenchFlags(argc, argv, &flags, &config);

  MutationMix mix;
  if (!ParseMix(mix_spec, &mix)) {
    std::fprintf(stderr, "bad --mix %s (want insert:update:remove)\n",
                 mix_spec.c_str());
    return 1;
  }

  auto preset = FindModelPreset("netflix-nomad-50");
  preset.status().CheckOK();
  const MFModel model = MakeBenchModel(*preset, config);

  LiveCatalogOptions options;
  options.engine.k = k;
  options.engine.solvers = SplitSpecs(solvers);
  options.threads = config.threads > 1 ? config.threads : 0;
  options.rebuild_threshold = rebuild_threshold;
  if (shards > 1) {
    options.num_shards = shards;
    options.sharding = ShardingStrategy::kGrowth;
  }
  auto catalog = LiveCatalog::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items), options);
  catalog.status().CheckOK();

  std::printf(
      "== Live catalog: %s (%d users, %d items), k=%d, clients=%d, "
      "query rate=%.0f/s, mutation rate=%.0f/s (%s), "
      "rebuild_threshold=%lld, shards=%d ==\n",
      preset->display_name.c_str(), model.num_users(), model.num_items(), k,
      clients, rate, mutation_rate, mix_spec.c_str(),
      static_cast<long long>(rebuild_threshold), shards);
  std::printf("host hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  MutatorConfig none;
  MutatorConfig live;
  live.rate = mutation_rate;
  live.mix = mix;
  live.min_live = static_cast<Index>(k) + 16;

  std::vector<PhaseRow> rows;
  rows.push_back(RunPhase("static", catalog->get(), model, clients, rate,
                          seconds, k, none, config.seed));
  rows.push_back(RunPhase("live", catalog->get(), model, clients, rate,
                          seconds, k, live, config.seed + 1));

  TablePrinter table({"Phase", "Requests", "QPS", "p50", "p99", "Steady p99",
                      "Window p99", "Window n", "Mutations", "Rebuilds",
                      "Swaps"});
  for (const PhaseRow& r : rows) {
    table.AddRow({r.phase, FmtInt(r.requests), Fmt(r.achieved_qps, 1),
                  FormatSeconds(r.p50_s), FormatSeconds(r.p99_s),
                  FormatSeconds(r.p99_steady_s),
                  r.window_samples > 0 ? FormatSeconds(r.p99_window_s) : "-",
                  FmtInt(r.window_samples), FmtInt(r.mutations),
                  FmtInt(r.rebuilds), FmtInt(r.swaps)});
  }
  table.Print();
  std::printf(
      "\n\"Window\" latencies were sampled while a background rebuild "
      "was running or across an epoch swap; \"steady\" is everything "
      "else.  The static phase is the same open-loop query load with "
      "the mutator disabled.\n");

  const LiveCatalog::Stats stats = (*catalog)->stats();
  std::printf(
      "catalog: epoch=%lld live_items=%lld buffered=%lld dead_masked=%lld "
      "drained=%lld decisions_retired=%lld\n",
      static_cast<long long>(stats.catalog_epoch),
      static_cast<long long>(stats.live_items),
      static_cast<long long>(stats.buffered_rows),
      static_cast<long long>(stats.dead_masked),
      static_cast<long long>(stats.epochs_drained),
      static_cast<long long>(stats.decisions_retired));

  if (!json_out.empty()) {
    WriteJson(json_out, preset->display_name, config, shards,
              rebuild_threshold, mutation_rate, mix_spec, rows);
  }
  return 0;
}
