// Runtime SIMD dispatch for the blocked-GEMM micro-kernel.
//
// The paper's BMM cost model assumes blocked matrix multiply rides
// "decades of hardware optimization" — but the constant factor is only
// right if the kernel matches the machine.  On at least one VM class the
// AVX-512 path is ~4x SLOWER than the AVX2 one (emulated or down-clocked
// 512-bit units), which silently corrupts every OPTIMUS index-vs-BMM
// decision made on such hardware.  Instead of baking the kernel in at
// compile time, one binary now carries AVX-512, AVX2+FMA, and portable
// variants of the 4x16 micro-kernel; the first GEMM call (or an explicit
// ForceGemmKernel) installs one of them process-wide:
//
//   1. If MIPS_GEMM_KERNEL is set in the environment to "avx512", "avx2"
//      or "portable" and that variant is supported, it is installed.
//      ("auto", empty, or an unsupported/unknown value falls through to
//      the probe with a warning.)
//   2. Otherwise KernelProbe times every supported variant on a small
//      packed-panel workload (a few ms, once per process) and installs
//      the fastest.
//
// ForceGemmKernel() overrides both; it is the only in-process override,
// and a caller that wants a kernel for an engine calls it before
// MipsEngine::Open.  The installed kernel is process-global and published
// through an atomic function pointer, so installation may happen
// concurrently with running GEMMs; because every variant computes each C
// element with the identical IEEE operation sequence (gemm_kernel.h),
// results are bit-for-bit the same whichever variant a call observes.
// A later install changes no engine's cached OPTIMUS decisions: those
// retire only by LRU eviction (core/engine.h).
//
// MipsEngine::stats().gemm_kernel and OptimusReport::gemm_kernel record
// the installed kernel so serving decisions stay attributable to the
// throughput they were measured under.

#ifndef MIPS_LINALG_SIMD_DISPATCH_H_
#define MIPS_LINALG_SIMD_DISPATCH_H_

#include <array>
#include <string_view>

#include "common/status.h"
#include "common/types.h"

namespace mips {

/// The micro-kernel variants every binary carries, in increasing ISA
/// order.  kPortable is always supported.
enum class GemmKernel { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr int kNumGemmKernels = 3;

/// "portable", "avx2", "avx512".
const char* ToString(GemmKernel kernel);

/// Parses a kernel name as accepted by MIPS_GEMM_KERNEL ("auto" is
/// handled by the caller, not here).  InvalidArgument on unknown names.
StatusOr<GemmKernel> ParseGemmKernel(std::string_view name);

/// Whether `kernel` can run here: its real body was compiled in AND the
/// CPU (and OS, for AVX state) support its ISA.
bool GemmKernelSupported(GemmKernel kernel);

/// Outcome of timing the micro-kernel variants (KernelProbe).
struct GemmKernelProbe {
  struct Variant {
    GemmKernel kernel = GemmKernel::kPortable;
    bool supported = false;
    /// Measured packed-panel throughput; 0 for unsupported variants.
    double gflops = 0;
  };
  /// All kNumGemmKernels variants, in enum order.
  std::array<Variant, kNumGemmKernels> variants;
  /// The fastest supported variant.
  GemmKernel fastest = GemmKernel::kPortable;
};

/// Times every supported variant on a packed MRxNR panel workload (a few
/// hundred microseconds per variant) and returns the measurements.  Pure
/// measurement: does not install anything.
GemmKernelProbe ProbeGemmKernels();

/// The kernel GEMM calls are currently dispatched to, installing one
/// first (env override, then probe) if this is the first use.
GemmKernel ActiveGemmKernel();

/// Installs `kernel` process-wide, overriding the env variable and any
/// probe outcome.  FailedPrecondition if the kernel is not supported on
/// this machine.  Safe to call concurrently with running GEMMs (results
/// are bit-for-bit identical under every variant).
Status ForceGemmKernel(GemmKernel kernel);

/// Testing hook: uninstalls the active kernel so the next use re-runs the
/// env-override/probe path.  Not for production use — concurrent GEMMs
/// stay correct (see above), but the choice becomes nondeterministic
/// relative to in-flight ForceGemmKernel calls.
void ResetGemmKernelForTest();

}  // namespace mips

#endif  // MIPS_LINALG_SIMD_DISPATCH_H_
