#include "linalg/simd_dispatch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "linalg/dot_kernel.h"
#include "linalg/gemm_kernel.h"

namespace mips {
namespace {

struct KernelTableEntry {
  GemmKernel kernel;
  const char* name;
  GemmMicroKernelFn fn;
  GemmMicroKernelScoreFn score_fn;
  GemmMicroKernelRowsFn rows_fn;
};

constexpr std::array<KernelTableEntry, kNumGemmKernels> kKernelTable = {{
    {GemmKernel::kPortable, "portable", &GemmMicroKernelPortable,
     &GemmMicroKernelScorePortable, &GemmMicroKernelRowsPortable},
    {GemmKernel::kAvx2, "avx2", &GemmMicroKernelAvx2,
     &GemmMicroKernelScoreAvx2, &GemmMicroKernelRowsAvx2},
    {GemmKernel::kAvx512, "avx512", &GemmMicroKernelAvx512,
     &GemmMicroKernelScoreAvx512, &GemmMicroKernelRowsAvx512},
}};

const KernelTableEntry& TableEntry(GemmKernel kernel) {
  return kKernelTable[static_cast<std::size_t>(kernel)];
}

/// The installed kernel, published as an atomic function pointer (null =
/// nothing installed yet; the next GEMM runs the env/probe path).  The
/// id atomic is attribution only — a racing reader may observe it a step
/// behind the pointer, but never an inconsistent result, because every
/// variant is bit-for-bit identical (gemm_kernel.h).
std::atomic<GemmMicroKernelFn> g_active_fn{nullptr};
std::atomic<int> g_active_kernel{static_cast<int>(GemmKernel::kPortable)};

/// The level-1 dot kernel installed alongside the GEMM kernel: one ISA
/// choice governs both (a machine whose AVX-512 is emulated for GEMM is
/// equally degraded for dots).  Like g_active_fn it may lag an install by
/// a step under a racing reader, which is harmless — every dot variant is
/// bit-for-bit identical (dot_kernel.h).
std::atomic<DotKernelFn> g_active_dot{nullptr};

/// The dot variant matching `kernel`.  A variant whose intrinsics body
/// was not compiled in already forwards to the portable kernel, but
/// selecting the portable entry directly skips the extra call.
DotKernelFn DotKernelFor(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kAvx2:
      return DotAvx2KernelCompiled() ? &DotKernelAvx2 : &DotKernelPortable;
    case GemmKernel::kAvx512:
      return DotAvx512KernelCompiled() ? &DotKernelAvx512
                                       : &DotKernelPortable;
    case GemmKernel::kPortable:
      break;
  }
  return &DotKernelPortable;
}

/// Serializes installs.
Mutex g_install_mu;

bool CpuSupportsIsa(GemmKernel kernel) {
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports accounts for OS AVX state support (XGETBV),
  // not just the CPUID feature bit.
  __builtin_cpu_init();
  switch (kernel) {
    case GemmKernel::kPortable:
      return true;
    case GemmKernel::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case GemmKernel::kAvx512:
      return __builtin_cpu_supports("avx512f");
  }
  return false;
#else
  return kernel == GemmKernel::kPortable;
#endif
}

/// Best-of-three packed-panel timing, mirroring the macro kernel's hot
/// loop: full 4x16 tiles over a KC-deep panel, the exact workload the
/// blocked GEMM spends its time in.
double TimeKernelGflops(GemmMicroKernelFn fn) {
  constexpr Index kb = 256;  // = kKC in gemm.cc: one full K panel
  constexpr int kIters = 192;
  constexpr int kReps = 3;
  std::vector<Real> ap(static_cast<std::size_t>(kGemmMR) * kb);
  std::vector<Real> bp(static_cast<std::size_t>(kGemmNR) * kb);
  std::vector<Real> c(static_cast<std::size_t>(kGemmMR) * kGemmNR, 0);
  // Deterministic small values (no RNG dependency, no subnormals).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<Real>(state >> 11) *
               (1.0 / 9007199254740992.0) - 0.5;
  };
  for (Real& v : ap) v = next();
  for (Real& v : bp) v = next();

  for (int warm = 0; warm < 8; ++warm) {
    fn(ap.data(), bp.data(), kb, 1.0 / 1024, c.data(), kGemmNR);
  }
  double best_seconds = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int it = 0; it < kIters; ++it) {
      // Tiny alpha keeps C bounded over thousands of accumulations.
      fn(ap.data(), bp.data(), kb, 1.0 / 1024, c.data(), kGemmNR);
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best_seconds = std::min(best_seconds, std::max(seconds, 1e-9));
  }
  const double flops =
      2.0 * kGemmMR * kGemmNR * static_cast<double>(kb) * kIters;
  return flops / best_seconds / 1e9;
}

void InstallLocked(GemmKernel kernel) REQUIRES(g_install_mu) {
  g_install_mu.AssertHeld();
  g_active_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
  g_active_dot.store(DotKernelFor(kernel), std::memory_order_release);
  g_active_fn.store(TableEntry(kernel).fn, std::memory_order_release);
}

GemmMicroKernelFn EnsureInstalled() {
  GemmMicroKernelFn fn = g_active_fn.load(std::memory_order_acquire);
  if (fn != nullptr) return fn;
  MutexLock lock(g_install_mu);
  fn = g_active_fn.load(std::memory_order_relaxed);
  if (fn != nullptr) return fn;

  const char* env = std::getenv("MIPS_GEMM_KERNEL");
  if (env != nullptr && env[0] != '\0' && std::strcmp(env, "auto") != 0) {
    const auto parsed = ParseGemmKernel(env);
    if (parsed.ok() && GemmKernelSupported(*parsed)) {
      InstallLocked(*parsed);
      return g_active_fn.load(std::memory_order_relaxed);
    }
    std::fprintf(stderr,
                 "MIPS_GEMM_KERNEL=%s%s; falling back to the startup probe\n",
                 env,
                 parsed.ok() ? " is not supported on this machine"
                             : " is not a known kernel");
  }

  InstallLocked(ProbeGemmKernels().fastest);
  return g_active_fn.load(std::memory_order_relaxed);
}

}  // namespace

const char* ToString(GemmKernel kernel) { return TableEntry(kernel).name; }

StatusOr<GemmKernel> ParseGemmKernel(std::string_view name) {
  for (const KernelTableEntry& entry : kKernelTable) {
    if (name == entry.name) return entry.kernel;
  }
  return Status::InvalidArgument(
      "unknown GEMM kernel \"" + std::string(name) +
      "\" (expected portable, avx2, or avx512)");
}

bool GemmKernelSupported(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kPortable:
      return true;
    case GemmKernel::kAvx2:
      return GemmAvx2KernelCompiled() && CpuSupportsIsa(kernel);
    case GemmKernel::kAvx512:
      return GemmAvx512KernelCompiled() && CpuSupportsIsa(kernel);
  }
  return false;
}

GemmKernelProbe ProbeGemmKernels() {
  GemmKernelProbe probe;
  double best = -1;
  for (const KernelTableEntry& entry : kKernelTable) {
    auto& variant = probe.variants[static_cast<std::size_t>(entry.kernel)];
    variant.kernel = entry.kernel;
    variant.supported = GemmKernelSupported(entry.kernel);
    if (!variant.supported) continue;
    variant.gflops = TimeKernelGflops(entry.fn);
    if (variant.gflops > best) {
      best = variant.gflops;
      probe.fastest = entry.kernel;
    }
  }
  return probe;
}

GemmKernel ActiveGemmKernel() {
  EnsureInstalled();
  return static_cast<GemmKernel>(
      g_active_kernel.load(std::memory_order_relaxed));
}

Status ForceGemmKernel(GemmKernel kernel) {
  if (!GemmKernelSupported(kernel)) {
    const bool compiled = kernel == GemmKernel::kPortable ||
                          (kernel == GemmKernel::kAvx2
                               ? GemmAvx2KernelCompiled()
                               : GemmAvx512KernelCompiled());
    return Status::FailedPrecondition(
        std::string("GEMM kernel \"") + ToString(kernel) +
        (compiled ? "\" is not supported by this CPU"
                  : "\" was not compiled into this binary"));
  }
  MutexLock lock(g_install_mu);
  InstallLocked(kernel);
  return Status::OK();
}

void ResetGemmKernelForTest() {
  MutexLock lock(g_install_mu);
  g_active_kernel.store(static_cast<int>(GemmKernel::kPortable),
                        std::memory_order_relaxed);
  g_active_dot.store(nullptr, std::memory_order_release);
  g_active_fn.store(nullptr, std::memory_order_release);
}

GemmMicroKernelFn ActiveGemmMicroKernel() { return EnsureInstalled(); }

GemmMicroKernelScoreFn ActiveGemmMicroKernelScore() {
  return TableEntry(ActiveGemmKernel()).score_fn;
}

GemmMicroKernelRowsFn ActiveGemmMicroKernelRows() {
  return TableEntry(ActiveGemmKernel()).rows_fn;
}

DotKernelFn ActiveDotKernel() {
  DotKernelFn fn = g_active_dot.load(std::memory_order_acquire);
  if (fn != nullptr) return fn;
  EnsureInstalled();
  fn = g_active_dot.load(std::memory_order_acquire);
  // A racing ResetGemmKernelForTest can null the pointer between the
  // install and this load; the portable kernel is always a bit-identical
  // answer.
  return fn != nullptr ? fn : &DotKernelPortable;
}

}  // namespace mips
