// Micro benchmarks (google-benchmark) for the hardware-efficiency claims
// in Section II-B: blocked GEMM vs repeated-sdot vs the naive triple loop
// ("substantial empirical speedups over naive inner products (40x) or
// even matrix-vector multiply (20x)"), plus the top-K heap pass, the
// k-means assignment GEMM, the level-1 dot kernels, and, per kernel
// variant, the whole score-and-select call; and MAXIMUS's bounded walk
// per walked list position, and per user for new users against known ones.
//
// The binary first prints the runtime SIMD dispatch report to stderr,
// so stdout under --benchmark_format=json stays one JSON document —
// per-variant packed-panel GFLOP/s from a fresh KernelProbe sweep, the
// installed kernel and any MIPS_GEMM_KERNEL override — and registers one
// BM_GemmBlocked run and the BM_ScoreTopK shapes per *supported* kernel
// variant, so a machine with pathological AVX-512 (the ~4x-slower
// emulated case that motivated runtime dispatch) is visible directly in
// the output.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "cluster/kmeans.h"
#include "common/rng.h"
#include "core/maximus.h"
#include "data/datasets.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "linalg/simd_dispatch.h"
#include "topk/score_select.h"
#include "topk/topk_block.h"

namespace mips {
namespace {

Matrix RandomMatrix(Index rows, Index cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<Real>(rng.Normal());
  }
  return m;
}

void ReportGemmRates(benchmark::State& state, Index m, Index n, Index k) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * m * n * k * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void BM_GemmBlocked(benchmark::State& state) {
  const Index m = static_cast<Index>(state.range(0));
  const Index n = static_cast<Index>(state.range(1));
  const Index k = static_cast<Index>(state.range(2));
  const Matrix a = RandomMatrix(m, k, 1);
  const Matrix b = RandomMatrix(n, k, 2);
  Matrix c(m, n);
  for (auto _ : state) {
    GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  ReportGemmRates(state, m, n, k);
}
BENCHMARK(BM_GemmBlocked)
    ->Args({1024, 1024, 50})
    ->Args({2048, 2048, 100})
    ->Args({512, 4096, 50});

void BM_GemmDotLoop(benchmark::State& state) {
  const Index m = static_cast<Index>(state.range(0));
  const Index n = static_cast<Index>(state.range(1));
  const Index k = static_cast<Index>(state.range(2));
  const Matrix a = RandomMatrix(m, k, 1);
  const Matrix b = RandomMatrix(n, k, 2);
  Matrix c(m, n);
  for (auto _ : state) {
    GemmDotNT(a.data(), m, b.data(), n, k, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  ReportGemmRates(state, m, n, k);
}
BENCHMARK(BM_GemmDotLoop)->Args({1024, 1024, 50});

void BM_GemmNaive(benchmark::State& state) {
  const Index m = static_cast<Index>(state.range(0));
  const Index n = static_cast<Index>(state.range(1));
  const Index k = static_cast<Index>(state.range(2));
  const Matrix a = RandomMatrix(m, k, 1);
  const Matrix b = RandomMatrix(n, k, 2);
  Matrix c(m, n);
  for (auto _ : state) {
    GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  ReportGemmRates(state, m, n, k);
}
BENCHMARK(BM_GemmNaive)->Args({1024, 1024, 50});

void BM_Gemv(benchmark::State& state) {
  // Matrix-vector scoring: the "one user at a time" strategy.
  const Index n = 4096;
  const Index k = 50;
  const Matrix items = RandomMatrix(n, k, 3);
  const Matrix user = RandomMatrix(1, k, 4);
  std::vector<Real> scores(static_cast<std::size_t>(n));
  for (auto _ : state) {
    Gemv(items.data(), n, k, user.Row(0), scores.data());
    benchmark::DoNotOptimize(scores.data());
  }
  ReportGemmRates(state, 1, n, k);
}
BENCHMARK(BM_Gemv);

void BM_DotProduct(benchmark::State& state) {
  const Index n = static_cast<Index>(state.range(0));
  const Matrix x = RandomMatrix(1, n, 5);
  const Matrix y = RandomMatrix(1, n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(x.Row(0), y.Row(0), n));
  }
}
BENCHMARK(BM_DotProduct)->Arg(50)->Arg(100)->Arg(200);

void BM_TopKFromScoreBlock(benchmark::State& state) {
  const Index m = 256;
  const Index n = 8192;
  const Index k = static_cast<Index>(state.range(0));
  const Matrix scores = RandomMatrix(m, n, 7);
  TopKResult result(m, k);
  for (auto _ : state) {
    TopKFromScoreBlock(scores.data(), m, n, n, k, 0, nullptr, &result, 0);
    benchmark::DoNotOptimize(result.Row(0));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(m) * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}
BENCHMARK(BM_TopKFromScoreBlock)->Arg(1)->Arg(10)->Arg(50);

void BM_KMeans(benchmark::State& state) {
  SyntheticModelConfig config;
  config.num_users = 8192;
  config.num_items = 1;
  config.num_factors = 50;
  const auto model = GenerateSyntheticModel(config);
  KMeansOptions options;
  options.num_clusters = 8;
  options.max_iterations = 3;
  for (auto _ : state) {
    Clustering clustering;
    KMeans(ConstRowBlock(model->users), options, &clustering).CheckOK();
    benchmark::DoNotOptimize(clustering.assignment.data());
  }
}
BENCHMARK(BM_KMeans);

// batch-skewed's norm-skewed model (r2-nomad-50 x6: 164,086 users x
// 12,306 items, f = 50) with MAXIMUS prepared on it once, with the
// default options.
struct SkewedMaximus {
  MFModel model;
  MaximusSolver solver;
};

SkewedMaximus& PreparedSkewedMaximus() {
  static SkewedMaximus* const prepared = [] {
    auto* p = new SkewedMaximus;
    auto preset = FindModelPreset("r2-nomad-50");
    preset.status().CheckOK();
    auto model = MakeModel(*preset, 6);
    model.status().CheckOK();
    p->model = std::move(model).value();
    p->solver.Prepare(ConstRowBlock(p->model.users),
                      ConstRowBlock(p->model.items)).CheckOK();
    return p;
  }();
  return *prepared;
}

// MAXIMUS's bounded walk under the installed kernel: TopKForUsers over
// 2,048-user requests that step through the users of batch-skewed's model
// (PreparedSkewedMaximus), at width k: k = 10 keeps each user's best k in
// a row record, k = 17 in a heap.  Reported as time per walked list
// position (the solver's mean_items_visited per user), the walk's
// counterpart of BM_ScoreTopK's time per cell.
void BM_MaximusTopK(benchmark::State& state) {
  SkewedMaximus& prepared = PreparedSkewedMaximus();
  const auto k = static_cast<Index>(state.range(0));
  const Index request = 2048;
  const Index users = prepared.model.num_users();
  std::vector<Index> ids(static_cast<std::size_t>(request));
  TopKResult result;
  Index cursor = 0;
  double positions = 0;
  for (auto _ : state) {
    for (Index r = 0; r < request; ++r) {
      ids[static_cast<std::size_t>(r)] = (cursor + r) % users;
    }
    prepared.solver.TopKForUsers(k, ids, &result).CheckOK();
    benchmark::DoNotOptimize(result.Row(0));
    positions += prepared.solver.mean_items_visited() * request;
    cursor = (cursor + request) % users;
  }
  state.counters["time/position"] = benchmark::Counter(
      positions, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MaximusTopK)
    ->ArgName("k")
    ->Arg(10)
    ->Arg(17)
    ->Unit(benchmark::kMillisecond);

// MAXIMUS's new-user path and its known-user twin at k = 10 on
// batch-skewed's model (PreparedSkewedMaximus): requests of `rows`
// prepared users (1, 4, 16 and 64, the batch sizes the serving tier
// coalesces), served as vectors through TopKNewUsers (`new`) or as ids
// through TopKForUsers (`known`, what OPTIMUS times).  Both step through
// the same 4,096 users, drawn once at random, so each request of one is a
// request of the other.  Reported as time per user.
void BM_MaximusNewUsers(benchmark::State& state, bool as_vectors) {
  SkewedMaximus& prepared = PreparedSkewedMaximus();
  const Index rows = static_cast<Index>(state.range(0));
  const Index k = 10;
  const Index f = prepared.model.num_factors();
  const Index cycle = 4096;
  std::vector<Index> ids(static_cast<std::size_t>(cycle));
  Matrix vectors(cycle, f);
  Rng rng(17);
  for (Index r = 0; r < cycle; ++r) {
    const auto u = static_cast<Index>(
        rng.UniformInt(static_cast<uint64_t>(prepared.model.num_users())));
    ids[static_cast<std::size_t>(r)] = u;
    std::copy_n(prepared.model.users.Row(u), f, vectors.Row(r));
  }
  TopKResult result;
  Index cursor = 0;
  for (auto _ : state) {
    if (as_vectors) {
      prepared.solver.TopKNewUsers(vectors.Row(cursor), rows, k, &result)
          .CheckOK();
    } else {
      const std::span<const Index> request(ids.data() + cursor,
                                           static_cast<std::size_t>(rows));
      prepared.solver.TopKForUsers(k, request, &result).CheckOK();
    }
    benchmark::DoNotOptimize(result.Row(0));
    cursor = (cursor + rows) % cycle;
  }
  state.counters["time/user"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(rows),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_MaximusNewUsers, new, true)
    ->ArgName("rows")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_MaximusNewUsers, known, false)
    ->ArgName("rows")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// One blocked-GEMM benchmark per installed kernel variant (registered in
// main for the variants this machine supports).  Forcing the kernel
// inside the benchmark keeps later registrations honest even though the
// install is process-global.
void BM_GemmBlockedKernel(benchmark::State& state, GemmKernel kernel) {
  ForceGemmKernel(kernel).CheckOK();
  const Index m = 1024, n = 1024, k = 50;
  const Matrix a = RandomMatrix(m, k, 1);
  const Matrix b = RandomMatrix(n, k, 2);
  Matrix c(m, n);
  for (auto _ : state) {
    GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  ReportGemmRates(state, m, n, k);
}

// One serial ScoreTopK call per kernel variant (registered in main like
// the GEMM above), m query rows against n items at f = 50 and width k,
// reported as time per user-item cell.  The shapes at k = 10:
// batch-flat's request (2,048 x 3,554), one new user against batch-flat's
// items (1 x 3,554, engine.new_user_us), one new user against one
// live-mutate shard (1 x 200), and one and two register tiles of rows (4
// and 8 x 3,554).  batch-flat's request also runs at k = 16 and k = 17,
// the widest k kept in row records and the narrowest kept in heaps
// (topk/select_kernel.h's kRowTopWidth).  `masked` items, spread evenly,
// are masked (topk/item_mask.h): the live-mutate shard at k = 10 with 12
// masked items, against the k = 22 call that over-fetched past them.
void BM_ScoreTopKKernel(benchmark::State& state, GemmKernel kernel) {
  ForceGemmKernel(kernel).CheckOK();
  const auto m = static_cast<Index>(state.range(0));
  const auto n = static_cast<Index>(state.range(1));
  const auto k = static_cast<Index>(state.range(2));
  const auto masked = static_cast<Index>(state.range(3));
  const Index f = 50;
  const Matrix users = RandomMatrix(m, f, 9);
  const Matrix items = RandomMatrix(n, f, 10);
  std::vector<Index> rows;
  for (Index i = 0; i < masked; ++i) rows.push_back(i * n / masked);
  TopKResult result(m, k);
  for (auto _ : state) {
    ScoreTopK(users.data(), m, items.data(), n, f, k, /*item_offset=*/0,
              /*item_ids=*/nullptr, /*pool=*/nullptr, &result,
              /*row_offset=*/0, /*row_ids=*/nullptr, kScoreTileRows,
              {rows.data(), masked, 0});
    benchmark::DoNotOptimize(result.Row(0));
  }
  state.counters["time/cell"] = benchmark::Counter(
      static_cast<double>(m) * n * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void PrintKernelProbeReport() {
  // Install first (env override, else probe) — exactly as any serving
  // binary's first GEMM would — then time every variant afresh for
  // display.  The installed kernel is the env override's when
  // MIPS_GEMM_KERNEL names a supported one, else the startup probe's
  // pick, which a fresh sweep on a busy host may not repeat.  Written to
  // stderr: stdout carries Google Benchmark's report, which must parse
  // on its own under --benchmark_format=json.
  const GemmKernel installed = ActiveGemmKernel();
  const GemmKernelProbe probe = ProbeGemmKernels();
  std::fprintf(stderr,
               "GEMM micro-kernel probe (packed 4x16 panel, kb=256):\n");
  for (const auto& variant : probe.variants) {
    if (variant.supported) {
      std::fprintf(stderr, "  %-8s %8.2f GFLOP/s%s\n",
                   ToString(variant.kernel), variant.gflops,
                   variant.kernel == probe.fastest ? "   <-- probe pick" : "");
    } else {
      std::fprintf(stderr, "  %-8s unsupported on this machine\n",
                   ToString(variant.kernel));
    }
  }
  std::fprintf(stderr, "installed: %s\n", ToString(installed));
  const char* env = std::getenv("MIPS_GEMM_KERNEL");
  if (env != nullptr) std::fprintf(stderr, "MIPS_GEMM_KERNEL=%s\n", env);
  std::fprintf(stderr, "\n");
}

void RegisterPerKernelBenchmarks() {
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const GemmKernel kernel = static_cast<GemmKernel>(v);
    if (!GemmKernelSupported(kernel)) continue;
    const std::string name =
        std::string("BM_GemmBlocked/kernel:") + ToString(kernel);
    benchmark::RegisterBenchmark(
        name.c_str(), [kernel](benchmark::State& state) {
          BM_GemmBlockedKernel(state, kernel);
        });
    const std::string score_name =
        std::string("BM_ScoreTopK/kernel:") + ToString(kernel);
    benchmark::RegisterBenchmark(
        score_name.c_str(),
        [kernel](benchmark::State& state) {
          BM_ScoreTopKKernel(state, kernel);
        })
        ->ArgNames({"m", "n", "k", "masked"})
        ->Args({2048, 3554, 10, 0})
        ->Args({2048, 3554, 16, 0})
        ->Args({2048, 3554, 17, 0})
        ->Args({1, 3554, 10, 0})
        ->Args({1, 200, 10, 0})
        ->Args({1, 200, 10, 12})
        ->Args({1, 200, 22, 0})
        ->Args({4, 3554, 10, 0})
        ->Args({8, 3554, 10, 0});
  }
}

}  // namespace
}  // namespace mips

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // ActiveGemmKernel() (inside the report) performs the startup install —
  // env override or probe — exactly as any serving binary would.
  mips::PrintKernelProbeReport();
  mips::RegisterPerKernelBenchmarks();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
