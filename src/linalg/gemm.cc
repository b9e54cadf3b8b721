#include "linalg/gemm.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>

#include "common/dcheck.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/gemm_kernel.h"

namespace mips {
namespace {

// Register tile (gemm_kernel.h): the full-tile micro-kernel is selected
// at runtime by simd_dispatch.cc among AVX-512 / AVX2+FMA / portable
// variants — all bit-for-bit identical per C element, so the dispatch
// never affects results, only throughput.
constexpr Index kMR = kGemmMR;
constexpr Index kNR = kGemmNR;

// Cache blocking.  KC covers every latent-factor count in the paper
// (f <= 200) in a single K pass; MC*KC*8B ~= 256 KB targets L2.  The
// panel depth is public (gemm.h): the sparse rescore path replicates the
// per-panel accumulation fold and must agree on where panels break.
constexpr Index kKC = kGemmKPanel;
constexpr Index kMC = 128;
constexpr Index kNC = kGemmNC;

constexpr Index RoundUpToTile(Index extent, Index tile) {
  return (extent + tile - 1) / tile * tile;
}

// Edge tile (mr < MR or nr < NR): run the SAME full-tile kernel into a
// scratch MR x NR tile seeded with the valid C region, then copy the
// valid region back.  Every C element — full tile or edge — is therefore
// produced by the identical fma sequence of the installed kernel, so a
// score can never depend on which tile position an item happened to land
// in (duplicate items tie bit-for-bit even when one sits in the edge
// fringe), and swapping kernels still changes nothing (gemm_kernel.h).
// The scratch copies touch at most 64 doubles; the packed panels are
// already zero-padded, so the padding lanes compute garbage that is
// simply not copied back.
void MicroKernelEdge(GemmMicroKernelFn full, const Real* __restrict ap,
                     const Real* __restrict bp, Index kb, Real alpha,
                     Real* __restrict c, Index ldc, Index mr, Index nr) {
  // The scratch tile is exactly MR x NR; an oversized (mr, nr) here would
  // read past the packed panels and write past scratch.
  MIPS_DCHECK_GT(mr, 0);
  MIPS_DCHECK_LE(mr, kMR);
  MIPS_DCHECK_GT(nr, 0);
  MIPS_DCHECK_LE(nr, kNR);
  MIPS_DCHECK_GT(kb, 0);
  MIPS_DCHECK_GE(ldc, nr);
  alignas(64) Real scratch[kMR * kNR] = {};
  for (Index i = 0; i < mr; ++i) {
    std::memcpy(scratch + i * kNR, c + static_cast<std::size_t>(i) * ldc,
                static_cast<std::size_t>(nr) * sizeof(Real));
  }
  full(ap, bp, kb, alpha, scratch, kNR);
  for (Index i = 0; i < mr; ++i) {
    std::memcpy(c + static_cast<std::size_t>(i) * ldc, scratch + i * kNR,
                static_cast<std::size_t>(nr) * sizeof(Real));
  }
}

void MicroKernel(GemmMicroKernelFn full, const Real* __restrict ap,
                 const Real* __restrict bp, Index kb, Real alpha,
                 Real* __restrict c, Index ldc, Index mr, Index nr) {
  if (mr == kMR && nr == kNR) {
    full(ap, bp, kb, alpha, c, ldc);
  } else {
    MicroKernelEdge(full, ap, bp, kb, alpha, c, ldc, mr, nr);
  }
}

// PackPanels (gemm_kernel.h) at one panel width.
template <Index kTile>
void PackTiles(const Real* src, Index ld, const Index* ids, Index rows,
               Index p0, Index kb, Real* dst) {
  for (Index i = 0; i < rows; i += kTile) {
    const Index t = std::min(kTile, rows - i);
    const Real* row[kTile];
    for (Index r = 0; r < t; ++r) {
      const Index at = ids != nullptr ? ids[i + r] : i + r;
      row[r] = src + static_cast<std::size_t>(at) * ld + p0;
    }
    for (Index kk = 0; kk < kb; ++kk) {
      for (Index r = 0; r < t; ++r) dst[kk * kTile + r] = row[r][kk];
      for (Index r = t; r < kTile; ++r) dst[kk * kTile + r] = 0;
    }
    dst += static_cast<std::size_t>(kb) * kTile;
  }
}

}  // namespace

void PackPanels(const Real* src, Index ld, const Index* ids, Index rows,
                Index p0, Index kb, Index tile, Real* dst) {
  MIPS_DCHECK_GE(kb, 0);
  MIPS_DCHECK_LE(p0 + kb, ld);
  MIPS_DCHECK(tile == kMR || tile == kNR);
  if (tile == kMR) {
    PackTiles<kMR>(src, ld, ids, rows, p0, kb, dst);
  } else {
    PackTiles<kNR>(src, ld, ids, rows, p0, kb, dst);
  }
}

void GemmNT(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc) {
  if (m <= 0 || n <= 0) return;

  // Apply beta up front; the blocked passes below then purely accumulate.
  if (beta == 0) {
    for (Index i = 0; i < m; ++i) {
      std::memset(c + static_cast<std::size_t>(i) * ldc, 0,
                  static_cast<std::size_t>(n) * sizeof(Real));
    }
  } else if (beta != 1) {
    for (Index i = 0; i < m; ++i) {
      Scale(beta, c + static_cast<std::size_t>(i) * ldc, n);
    }
  }
  if (k <= 0 || alpha == 0) return;

  // One dispatch load per call (first use runs the env/probe install).
  const GemmMicroKernelFn full_tile = ActiveGemmMicroKernel();

  // Pack workspace sized to this call: the tallest A block and the widest
  // B block it packs, rounded up to whole register tiles, at the deepest K
  // panel.  Left uninitialised: PackPanels writes every lane the
  // micro-kernel reads, zero padding included.
  const Index kc = std::min(k, kKC);
  const std::size_t apack_size =
      static_cast<std::size_t>(RoundUpToTile(std::min(m, kMC), kMR)) * kc;
  const std::size_t bpack_size =
      static_cast<std::size_t>(RoundUpToTile(std::min(n, kNC), kNR)) * kc;
  const auto apack = std::make_unique_for_overwrite<Real[]>(apack_size);
  const auto bpack = std::make_unique_for_overwrite<Real[]>(bpack_size);
#ifdef MIPS_ENABLE_DCHECKS
  // A lane the packers missed then reaches C as NaN, not as whatever the
  // allocator left there.
  constexpr Real kPoison = std::numeric_limits<Real>::quiet_NaN();
  std::fill_n(apack.get(), apack_size, kPoison);
  std::fill_n(bpack.get(), bpack_size, kPoison);
#endif

  for (Index j0 = 0; j0 < n; j0 += kNC) {
    const Index nb = std::min(kNC, n - j0);
    for (Index p0 = 0; p0 < k; p0 += kKC) {
      const Index kb = std::min(kKC, k - p0);
      PackPanels(b + static_cast<std::size_t>(j0) * k, k, /*ids=*/nullptr,
                 nb, p0, kb, kNR, bpack.get());
      for (Index i0 = 0; i0 < m; i0 += kMC) {
        const Index mb = std::min(kMC, m - i0);
        PackPanels(a + static_cast<std::size_t>(i0) * k, k, /*ids=*/nullptr,
                   mb, p0, kb, kMR, apack.get());
        // Macro kernel: sweep the packed panels.
        for (Index jp = 0; jp < nb; jp += kNR) {
          const Index nr = std::min(kNR, nb - jp);
          const Real* bp =
              bpack.get() + static_cast<std::size_t>(jp / kNR) * kb * kNR;
          for (Index ip = 0; ip < mb; ip += kMR) {
            const Index mr = std::min(kMR, mb - ip);
            const Real* ap =
                apack.get() + static_cast<std::size_t>(ip / kMR) * kb * kMR;
            Real* ctile = c + static_cast<std::size_t>(i0 + ip) * ldc +
                          (j0 + jp);
            MicroKernel(full_tile, ap, bp, kb, alpha, ctile, ldc, mr, nr);
          }
        }
      }
    }
  }
}

void GemmNT(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc, ThreadPool* pool) {
  const int threads = (pool == nullptr) ? 1 : pool->num_threads();
  if (threads <= 1 || m <= 0 || n <= 0) {
    GemmNT(a, m, b, n, k, alpha, beta, c, ldc);
    return;
  }
  // Slab-partition the larger output dimension on register-tile
  // boundaries; every worker runs the full serial blocked algorithm on
  // its own slab (private pack buffers, disjoint C region).  Per C
  // element the K-panel order and micro-kernel accumulation sequence are
  // exactly the serial ones, so the threaded product is bit-for-bit
  // identical to the single-threaded call.
  if (n >= m) {
    const int64_t tiles = (n + kNR - 1) / kNR;
    for (const RangeChunk& chunk : SplitRange(tiles, threads)) {
      const Index j0 = static_cast<Index>(chunk.begin) * kNR;
      const Index j1 = std::min(static_cast<Index>(chunk.end) * kNR, n);
      if (j0 >= j1) continue;
      pool->Submit([=]() {
        GemmNT(a, m, b + static_cast<std::size_t>(j0) * k, j1 - j0, k,
               alpha, beta, c + j0, ldc);
      });
    }
  } else {
    const int64_t tiles = (m + kMR - 1) / kMR;
    for (const RangeChunk& chunk : SplitRange(tiles, threads)) {
      const Index i0 = static_cast<Index>(chunk.begin) * kMR;
      const Index i1 = std::min(static_cast<Index>(chunk.end) * kMR, m);
      if (i0 >= i1) continue;
      pool->Submit([=]() {
        GemmNT(a + static_cast<std::size_t>(i0) * k, i1 - i0, b, n, k,
               alpha, beta, c + static_cast<std::size_t>(i0) * ldc, ldc);
      });
    }
  }
  pool->Wait();
}

void GemmNT(const ConstRowBlock& a, const ConstRowBlock& b, Matrix* c) {
  assert(a.cols() == b.cols());
  c->Resize(a.rows(), b.rows());
  GemmNT(a.data(), a.rows(), b.data(), b.rows(), a.cols(), /*alpha=*/1,
         /*beta=*/0, c->data(), c->cols());
}

void Gemv(const Real* a, Index m, Index k, const Real* x, Real* y) {
  for (Index i = 0; i < m; ++i) {
    y[i] = Dot(a + static_cast<std::size_t>(i) * k, x, k);
  }
}

void GemmNaiveNT(const Real* a, Index m, const Real* b, Index n, Index k,
                 Real alpha, Real beta, Real* c, Index ldc) {
  for (Index i = 0; i < m; ++i) {
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (Index j = 0; j < n; ++j) {
      const Real* brow = b + static_cast<std::size_t>(j) * k;
      Real acc = 0;
      for (Index kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = alpha * acc + beta * crow[j];
    }
  }
}

void GemmDotNT(const Real* a, Index m, const Real* b, Index n, Index k,
               Real* c, Index ldc) {
  for (Index i = 0; i < m; ++i) {
    const Real* arow = a + static_cast<std::size_t>(i) * k;
    Real* crow = c + static_cast<std::size_t>(i) * ldc;
    for (Index j = 0; j < n; ++j) {
      crow[j] = Dot(arow, b + static_cast<std::size_t>(j) * k, k);
    }
  }
}

}  // namespace mips
