// mips_cli: command-line exact MIPS over matrix files.
//
// Load user/item factor matrices (MIPSMAT1 binary or CSV), serve top-K
// through a ShardedMipsEngine (one item shard unless --shards says
// otherwise), and write the results as CSV
// (user_id,rank,item_id,score).  The on-ramp for using this library
// without writing C++:
//
//   # generate a demo model first (or bring your own matrices)
//   ./build/examples/mips_cli --demo=r2-nomad-50
//       --users_out=/tmp/u.bin --items_out=/tmp/i.bin
//   # serve top-10 with the optimizer and inspect the decision
//   ./build/examples/mips_cli --users=/tmp/u.bin --items=/tmp/i.bin
//       --solver=optimus --k=10 --out=/tmp/topk.csv
//   # or pick one solver and tune it via its spec
//   ./build/examples/mips_cli --users=/tmp/u.bin --items=/tmp/i.bin
//       --solver=maximus:clusters=64,block_size=2048
//   # persist the catalog as a mmap-able segment, then restart from it
//   ./build/examples/mips_cli --users=/tmp/u.bin --items=/tmp/i.bin
//       --save_segment=/tmp/items.seg
//   ./build/examples/mips_cli --users=/tmp/u.bin
//       --load_segment=/tmp/items.seg --k=10 --out=/tmp/topk.csv
//
// --solver accepts "optimus" (OPTIMUS over the --candidates list) or any
// registry spec "name:key=value,...".  --list_solvers prints every
// registered solver with its schema; malformed specs fail with an error
// naming the offending key.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/segment.h"
#include "common/flags.h"
#include "common/timer.h"
#include "data/datasets.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "serve/batching_engine.h"
#include "sparse/csr_matrix.h"
#include "shard/sharded_engine.h"
#include "solvers/registry.h"

using namespace mips;

namespace {

StatusOr<Matrix> LoadAny(const std::string& path) {
  if (path.size() > 4 && path.substr(path.size() - 4) == ".csv") {
    return LoadMatrixCsv(path);
  }
  return LoadMatrixBinary(path);
}

Status WriteTopKCsv(const TopKResult& result, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot open for write: " + path);
  std::fprintf(f, "user_id,rank,item_id,score\n");
  for (Index q = 0; q < result.num_queries(); ++q) {
    for (Index e = 0; e < result.k(); ++e) {
      const TopKEntry& entry = result.Row(q)[e];
      if (entry.item < 0) continue;  // k exceeded the item count
      std::fprintf(f, "%d,%d,%d,%.17g\n", q, e + 1, entry.item, entry.score);
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("close failed: " + path);
}

// Replays every loaded user row as a concurrent single-user request
// through the batching tier: `clients` threads each submit synchronous
// TopKNewUser calls, which the BatchingEngine coalesces into
// mini-batches behind their backs.  Answers land in result row q for
// user q, same layout TopKAll produces.
void ServeViaBatching(BatchingEngine* batcher, Matrix* users, Index k,
                      int clients, TopKResult* result) {
  const Index n = users->rows();
  *result = TopKResult(n, k);
  std::atomic<Index> next{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < clients; ++t) {
    workers.emplace_back([&]() {
      while (true) {
        const Index q = next.fetch_add(1, std::memory_order_relaxed);
        if (q >= n) break;
        batcher->TopKNewUser(users->Row(q), k, result->Row(q)).CheckOK();
      }
    });
  }
  for (auto& w : workers) w.join();
}

void PrintBatchingStats(const BatchingEngine& batcher) {
  const BatchingEngine::Stats s = batcher.stats();
  const double mean_rows =
      s.batches_dispatched > 0
          ? static_cast<double>(s.served) /
                static_cast<double>(s.batches_dispatched)
          : 0;
  const double mean_wait_us =
      s.served > 0 ? s.queue_wait_seconds / static_cast<double>(s.served) * 1e6
                   : 0;
  std::printf(
      "batching: %lld served in %lld batches (%.1f rows/batch mean); "
      "flushes: %lld size, %lld timeout, %lld forced; "
      "mean queue wait %.0f us; backend time %.3f s\n",
      static_cast<long long>(s.served),
      static_cast<long long>(s.batches_dispatched), mean_rows,
      static_cast<long long>(s.size_flushes),
      static_cast<long long>(s.timeout_flushes),
      static_cast<long long>(s.forced_flushes), mean_wait_us,
      s.backend_seconds);
}

// Splits the --candidates list on ';' (specs contain ',' internally).
std::vector<std::string> SplitCandidates(const std::string& csv) {
  std::vector<std::string> specs;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t sep = csv.find(';', pos);
    if (sep == std::string::npos) sep = csv.size();
    const std::string spec = csv.substr(pos, sep - pos);
    if (!spec.empty()) specs.push_back(spec);
    pos = sep + 1;
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  std::string users_path;
  std::string items_path;
  std::string out_path = "/tmp/topk.csv";
  std::string solver_spec = "optimus";
  std::string candidates = "bmm;maximus;lemp";
  std::string demo;
  std::string users_out = "/tmp/mips_users.bin";
  std::string items_out = "/tmp/mips_items.bin";
  std::string save_segment;
  std::string load_segment;
  double density = 1.0;
  double dense_fraction = 0.0;
  int32_t k = 10;
  int32_t threads = 0;
  int32_t shards = 1;
  std::string shard_strategy = "contiguous";
  bool list_solvers = false;
  double demo_scale = 1.0;
  bool batching = false;
  int32_t batch_rows = 64;
  double batch_wait_ms = 2.0;
  std::string batch_policy = "block";
  int32_t batch_clients = 4;
  flags.String("users", &users_path, "user factor matrix (.bin or .csv)");
  flags.String("items", &items_path, "item factor matrix (.bin or .csv)");
  flags.String("out", &out_path, "output CSV path");
  flags.String("solver", &solver_spec,
               "\"optimus\" or a registry spec \"name:key=value,...\" "
               "(see --list_solvers)");
  flags.String("candidates", &candidates,
               "';'-separated candidate specs for --solver=optimus");
  flags.Int32("k", &k, "top-K size");
  flags.Int32("threads", &threads, "worker threads (0 = single-threaded)");
  flags.Int32("shards", &shards,
              "item shards, each with its own OPTIMUS decision");
  flags.String("shard_strategy", &shard_strategy,
               "item placement for --shards>1: contiguous or hash");
  flags.Bool("list_solvers", &list_solvers,
             "print every registered solver with its parameter schema");
  flags.Bool("batching", &batching,
             "serve each user row as a concurrent single-user request "
             "through the async batching tier (coalesced mini-batches, "
             "shape-keyed OPTIMUS decisions) instead of one TopKAll call");
  flags.Int32("batch_rows", &batch_rows,
              "--batching: max coalesced rows per dispatched batch");
  flags.Double("batch_wait_ms", &batch_wait_ms,
               "--batching: bounded-delay flush timeout");
  flags.String("batch_policy", &batch_policy,
               "--batching overload policy: block, shed, or drop_expired");
  flags.Int32("batch_clients", &batch_clients,
              "--batching: concurrent submitter threads");
  flags.Double("density", &density,
               "sparsify the loaded item matrix to this per-row density "
               "before serving (1 = leave dense); exposes the sparse/"
               "hybrid solvers' regime, answers stay exact");
  flags.Double("dense_fraction", &dense_fraction,
               "--density<1: fraction of item rows kept fully dense "
               "(mixed head/tail catalogs for the hybrid solver)");
  flags.String("demo", &demo,
               "generate a preset model instead of serving (preset id, "
               "e.g. netflix-nomad-50)");
  flags.Double("demo_scale", &demo_scale, "scale multiplier for --demo");
  flags.String("users_out", &users_out, "--demo: where to write users");
  flags.String("items_out", &items_out, "--demo: where to write items");
  flags.String("save_segment", &save_segment,
               "persist the item catalog (post --density sparsification) "
               "as a mmap-able catalog segment at this path "
               "(catalog/segment.h: versioned header, checksummed, "
               "crash-safe rename install)");
  flags.String("load_segment", &load_segment,
               "serve items from a catalog segment instead of --items; "
               "the engine opens zero-copy over the mapped pages "
               "(incompatible with --density<1: the mapping is "
               "read-only)");
  flags.Parse(argc, argv).CheckOK();

  // --- Schema listing mode. ---
  if (list_solvers) {
    std::printf("%s", SolverHelpText().c_str());
    return 0;
  }

  // --- Demo-generation mode. ---
  if (!demo.empty()) {
    auto preset = FindModelPreset(demo);
    if (!preset.ok()) {
      std::fprintf(stderr, "%s\navailable presets:\n",
                   preset.status().ToString().c_str());
      for (const auto& p : AllModelPresets()) {
        std::fprintf(stderr, "  %s\n", p.id.c_str());
      }
      return 2;
    }
    auto model = MakeModel(*preset, demo_scale);
    model.status().CheckOK();
    SaveMatrixBinary(model->users, users_out).CheckOK();
    SaveMatrixBinary(model->items, items_out).CheckOK();
    std::printf("wrote %s (%d x %d) and %s (%d x %d)\n", users_out.c_str(),
                model->num_users(), model->num_factors(), items_out.c_str(),
                model->num_items(), model->num_factors());
    return 0;
  }

  // --- Serving mode. ---
  if (users_path.empty() || (items_path.empty() && load_segment.empty())) {
    std::fprintf(stderr,
                 "need --users and --items or --load_segment (or --demo)\n%s",
                 flags.Usage().c_str());
    return 2;
  }
  auto users = LoadAny(users_path);
  users.status().CheckOK();

  // Items come from a matrix file (mutable, so --density can sparsify)
  // or from a mapped catalog segment (zero-copy, read-only).
  Matrix items_owned;
  std::optional<CatalogSegment> segment;
  ConstRowBlock item_view;
  if (!load_segment.empty()) {
    if (density < 1.0) {
      std::fprintf(stderr,
                   "--density<1 rewrites item rows, but a mapped segment "
                   "is read-only; load via --items instead\n");
      return 2;
    }
    auto opened = CatalogSegment::Open(load_segment);
    opened.status().CheckOK();
    segment.emplace(std::move(*opened));
    item_view = segment->items();
    std::printf("mapped segment %s: %d items, f=%d\n", load_segment.c_str(),
                item_view.rows(), item_view.cols());
  } else {
    auto items = LoadAny(items_path);
    items.status().CheckOK();
    items_owned = std::move(*items);
    if (density < 1.0) {
      SparsifyRows(&items_owned, static_cast<Real>(density),
                   static_cast<Real>(dense_fraction), /*seed=*/1)
          .CheckOK();
      const CsrMatrix::Stats s =
          CsrMatrix::FromDense(ConstRowBlock(items_owned)).ComputeStats();
      std::printf(
          "sparsified items: density %.4f (%lld nnz; row nnz min/mean/max "
          "%d/%.1f/%d)\n",
          s.density, static_cast<long long>(s.nnz), s.min_row_nnz,
          s.mean_row_nnz, s.max_row_nnz);
    }
    item_view = ConstRowBlock(items_owned);
  }
  if (users->cols() != item_view.cols()) {
    std::fprintf(stderr, "factor dimensions differ: %d vs %d\n",
                 users->cols(), item_view.cols());
    return 2;
  }
  if (!save_segment.empty()) {
    CatalogSegment::Write(item_view, save_segment).CheckOK();
    std::printf("wrote segment %s (%d items, f=%d)\n", save_segment.c_str(),
                item_view.rows(), item_view.cols());
  }
  std::printf("model: %d users x %d items, f=%d; k=%d\n", users->rows(),
              item_view.rows(), users->cols(), k);

  auto strategy = ParseShardingStrategy(shard_strategy);
  strategy.status().CheckOK();
  ShardedEngineOptions options;
  options.num_shards = shards;
  options.sharding = *strategy;
  options.threads = threads;
  options.engine.k = k;
  // The batching tier serves realized mini-batch shapes, so let the
  // optimizer key its decisions on them.
  options.engine.batch_shape_decisions = batching;
  const bool use_optimus = solver_spec == "optimus";
  options.engine.solvers =
      use_optimus ? SplitCandidates(candidates)
                  : std::vector<std::string>{solver_spec};

  BatchingOptions batching_options;
  batching_options.max_batch_rows = batch_rows;
  batching_options.max_wait_ms = batch_wait_ms;
  batching_options.max_queue_rows =
      std::max<Index>(batching_options.max_queue_rows, batch_rows);
  if (batching) {
    auto policy = ParseOverloadPolicy(batch_policy);
    policy.status().CheckOK();
    batching_options.overload_policy = *policy;
  }

  WallTimer timer;
  auto engine = ShardedMipsEngine::Open(ConstRowBlock(*users), item_view,
                                        options);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 2;
  }
  for (int s = 0; s < (*engine)->num_shards(); ++s) {
    const MipsEngine* shard = (*engine)->shard_engine(s);
    if (shard == nullptr) {
      std::printf("shard %d: empty\n", s);
      continue;
    }
    const OptimusReport& report = shard->decision_report();
    std::printf("shard %d: %d items, %s %s (representation: %s, gemm "
                "kernel: %s)",
                s, shard->num_items(),
                use_optimus ? "OPTIMUS chose" : "serving with",
                report.chosen.c_str(), report.representation.c_str(),
                report.gemm_kernel.c_str());
    if (!report.estimates.empty()) std::printf("; estimates:");
    for (const auto& est : report.estimates) {
      std::printf(" %s=%.3fs", est.name.c_str(), est.est_total_seconds);
    }
    std::printf("\n");
  }
  TopKResult result;
  if (batching) {
    ShardedMipsEngine* backend = engine->get();
    auto batcher = BatchingEngine::Create(
        [backend](const Real* vectors, Index rows, Index batch_k,
                  TopKResult* out) {
          return backend->TopKNewUsers(vectors, rows, batch_k, out);
        },
        backend->num_factors(), batching_options);
    batcher.status().CheckOK();
    ServeViaBatching(batcher->get(), &*users, k, batch_clients, &result);
    PrintBatchingStats(**batcher);
  } else {
    (*engine)->TopKAll(k, &result).CheckOK();
  }
  const double elapsed = timer.Seconds();
  WriteTopKCsv(result, out_path).CheckOK();
  std::printf("served %d users in %.3f s (%.1f us/user); results -> %s\n",
              result.num_queries(), elapsed,
              elapsed / result.num_queries() * 1e6, out_path.c_str());
  return 0;
}
