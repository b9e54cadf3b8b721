// Micro benchmarks (google-benchmark) for the hardware-efficiency claims
// in Section II-B: blocked GEMM vs repeated-sdot vs the naive triple loop
// ("substantial empirical speedups over naive inner products (40x) or
// even matrix-vector multiply (20x)"), plus the top-K heap pass, the
// k-means assignment GEMM, the level-1 dot kernels, and the top-k
// selection scan per kernel variant.
//
// The binary first prints the runtime SIMD dispatch report — per-variant
// packed-panel GFLOP/s from KernelProbe and the kernel it installs — and
// registers one BM_GemmBlocked and one BM_SelectIntoHeap run per
// *supported* kernel variant, so a machine with pathological AVX-512 (the
// ~4x-slower emulated case that motivated runtime dispatch) is visible
// directly in the output.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "cluster/kmeans.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "linalg/simd_dispatch.h"
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

// Top-k selection per kernel variant (registered in main like the GEMM
// above): one 3,554-wide score row, batch-flat's catalog width, folded
// into a k = 10 heap by SelectIntoHeap.  Reported as time per score.
void BM_SelectIntoHeapKernel(benchmark::State& state, GemmKernel kernel) {
  ForceGemmKernel(kernel).CheckOK();
  const Index n = 3554;
  const Matrix scores = RandomMatrix(1, n, 8);
  TopKHeap heap(10);
  for (auto _ : state) {
    SelectIntoHeap(scores.Row(0), n, /*bounds=*/nullptr, 0, nullptr, &heap);
    benchmark::DoNotOptimize(heap.MinScore());
    heap.Clear();
  }
  state.counters["time/score"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void PrintKernelProbeReport() {
  // Install first (env override, else probe) — exactly as any serving
  // binary's first GEMM would — then report the measurements that
  // install was actually based on.  Only when the choice came from an
  // override (no probe ran) is a fresh timing sweep taken for display.
  const GemmKernel installed = ActiveGemmKernel();
  const GemmKernelSource install_source = ActiveGemmKernelSource();
  const GemmKernelProbe probe = install_source == GemmKernelSource::kProbe
                                    ? ActiveGemmKernelProbe()
                                    : ProbeGemmKernels();
  std::printf("GEMM micro-kernel probe (packed 4x16 panel, kb=256):\n");
  for (const auto& variant : probe.variants) {
    if (variant.supported) {
      std::printf("  %-8s %8.2f GFLOP/s%s\n", ToString(variant.kernel),
                  variant.gflops,
                  variant.kernel == probe.fastest ? "   <-- probe pick" : "");
    } else {
      std::printf("  %-8s unsupported on this machine\n",
                  ToString(variant.kernel));
    }
  }
  const char* source = "probe";
  switch (install_source) {
    case GemmKernelSource::kEnv:
      source = "MIPS_GEMM_KERNEL env override";
      break;
    case GemmKernelSource::kForced:
      source = "ForceGemmKernel";
      break;
    case GemmKernelSource::kProbe:
      break;
  }
  std::printf("installed: %s (%s)\n\n", ToString(installed), source);
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
    const std::string select_name =
        std::string("BM_SelectIntoHeap/kernel:") + ToString(kernel);
    benchmark::RegisterBenchmark(
        select_name.c_str(), [kernel](benchmark::State& state) {
          BM_SelectIntoHeapKernel(state, kernel);
        });
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
