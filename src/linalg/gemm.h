// Blocked, register-tiled dense matrix multiply — the library's "BLAS
// sgemm" substitute.
//
// The dominant operation in this codebase is scoring a block of users
// against a block of items:
//
//     S (m x n)  =  U (m x f)  *  I^T      with U, I row-major,
//
// i.e. a GEMM where the second operand is accessed transposed ("NT" form:
// every S[u][i] is a row-row dot product).  GemmNT implements the BLIS/
// OpenBLAS design: pack panels of both operands into contiguous buffers,
// then drive a register-tiled micro-kernel (MR x NR accumulators) over the
// packed data so FMA vector code runs with no strided loads.  This is what
// gives blocked matrix multiply its "decades of hardware optimization"
// constant factor over naive loops (Section II-B).
//
// The full-tile micro-kernel is selected AT RUNTIME among AVX-512,
// AVX2+FMA, and portable variants (linalg/simd_dispatch.h): the binary
// carries all three, and the first GEMM call installs the fastest
// supported one (or whatever MIPS_GEMM_KERNEL / ForceGemmKernel asks
// for).  All variants compute every C element with the identical IEEE
// FMA sequence, so results are bit-for-bit independent of the choice.
//
// GemmNaiveNT (triple loop) and GemmDotNT (row-dot loop, i.e. repeated
// sdot) are kept as reference points for the micro benchmarks that
// reproduce the paper's "40x over naive inner products" claim.

#ifndef MIPS_LINALG_GEMM_H_
#define MIPS_LINALG_GEMM_H_

#include "linalg/matrix.h"

namespace mips {

class ThreadPool;

/// K-panel depth of the blocked driver: every C element is accumulated in
/// per-panel chains of up to this many fma steps, folded into the output
/// one panel at a time (acc = 0; acc = fma(a, b, acc) over the panel;
/// c += acc).  Exported because the sparse scoring path (src/sparse)
/// replicates exactly this fold over a CSR row to stay bit-for-bit
/// identical to the dense GEMM score.
inline constexpr Index kGemmKPanel = 256;

/// C (m x n) = alpha * A * B^T + beta * C.
///
/// A is m x k row-major, B is n x k row-major (so B^T is k x n), and C is
/// m x n row-major with leading dimension ldc >= n.
///
/// Each call with k > 0 and alpha != 0 allocates two uninitialised pack
/// buffers bounded by its shape: min(m, 128) rows of A and min(n, 2048)
/// rows of B, each rounded up to the register tile, times min(k, 256)
/// doubles.  That is 8 KB for a 1 x 16 x 50 call and never more than
/// 4.25 MiB, whatever the shape.
void GemmNT(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc);

/// Multi-threaded GemmNT: statically partitions the macro-panels of the
/// larger output dimension (register-tile-aligned slabs of N, or of M)
/// across `pool`.  Each worker runs the serial blocked kernel on its own
/// pack buffers over a disjoint slab of C, with the same K-panel and
/// micro-kernel accumulation order as the serial call — results are
/// bit-for-bit identical to GemmNT without a pool.  Null pool (or one
/// worker) falls back to the serial path.  Must not be called from inside
/// a task already running on `pool` (the internal Wait would deadlock).
void GemmNT(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc, ThreadPool* pool);

/// Convenience overload: resizes *c to (a.rows() x b.rows()) and computes
/// C = A * B^T.
void GemmNT(const ConstRowBlock& a, const ConstRowBlock& b, Matrix* c);

/// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C.  Implemented by
/// transposing B once and delegating to GemmNT; intended for the small
/// f x f basis products (FEXIPRO), not for the hot scoring path.
void GemmNN(const Real* a, Index m, const Real* b, Index n, Index k,
            Real alpha, Real beta, Real* c, Index ldc);

/// y (m) = A (m x k) * x (k): blocked matrix-vector product.
void Gemv(const Real* a, Index m, Index k, const Real* x, Real* y);

/// Reference triple-loop C = A * B^T (+beta*C).  O(mnk) with no blocking;
/// used for correctness tests and the naive baseline benchmark.
void GemmNaiveNT(const Real* a, Index m, const Real* b, Index n, Index k,
                 Real alpha, Real beta, Real* c, Index ldc);

/// Row-by-row dot-product C = A * B^T, i.e. the "repeated sdot" strategy
/// from Section II-B (vectorized dots but no cache blocking).
void GemmDotNT(const Real* a, Index m, const Real* b, Index n, Index k,
               Real* c, Index ldc);

}  // namespace mips

#endif  // MIPS_LINALG_GEMM_H_
