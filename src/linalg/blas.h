// Level-1 BLAS-style kernels (dot, norms, axpy) plus the prefix/suffix dot
// products used by the pruning indexes.
//
// These are the "sdot" building blocks from Section II-B of the paper.
// Dot() dispatches at runtime to an 8-lane fma kernel (AVX-512 / AVX2 /
// portable — linalg/dot_kernel.h) selected by the same installed-kernel
// choice as the blocked GEMM, with every variant bit-for-bit identical;
// the naive single-accumulator loop is kept as DotNaive for the
// naive-vs-blocked micro benchmark.

#ifndef MIPS_LINALG_BLAS_H_
#define MIPS_LINALG_BLAS_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"

namespace mips {

/// Inner product <x, y> over n elements (runtime-dispatched 8-lane fma
/// kernel; bit-for-bit identical under every installed variant).
Real Dot(const Real* x, const Real* y, Index n);

/// Reference single-accumulator inner product (intentionally unoptimized).
Real DotNaive(const Real* x, const Real* y, Index n);

/// Euclidean norm ||x||_2, also where its square overflows or underflows.
Real Nrm2(const Real* x, Index n);

/// Squared Euclidean norm ||x||_2^2.
Real Nrm2Squared(const Real* x, Index n);

/// y += alpha * x.
void Axpy(Real alpha, const Real* x, Real* y, Index n);

/// x *= alpha.
void Scale(Real alpha, Real* x, Index n);

/// Per-row Euclidean norms of an n x f row-major block into out[0..n).
void RowNorms(const Real* data, Index rows, Index cols, Real* out);

/// Cosine of the angle between x and y; 0 if either vector is zero.
/// The result is clamped to [-1, 1] so acos() is always safe.
Real CosineSimilarity(const Real* x, const Real* y, Index n);

/// The same cosine given y_norm = Nrm2(y, n), for a y whose norm is
/// shared by many calls.
Real CosineSimilarity(const Real* x, const Real* y, Index n, Real y_norm);

/// Position of the first NaN or +-Inf among x[0..n), or -1 when every
/// element is finite.  The guard the public vector boundaries (catalog
/// mutations, new-user queries) run before a value can reach a score.
int64_t FirstNonFinite(const Real* x, std::size_t n);

/// The new-user boundary check: a batch of num_rows x num_factors
/// row-major components must be non-null, have num_rows > 0, and hold
/// only finite components (a NaN or +-Inf component makes the row's
/// scores NaN or infinite, which the BetterEntry order cannot rank).
/// The serving facades' one entry (ServingFacade, core/engine.h) runs it
/// before any scoring, and BatchingEngine runs it at admission.
Status ValidateNewUserBatch(const Real* user_vectors, Index num_rows,
                            Index num_factors);

}  // namespace mips

#endif  // MIPS_LINALG_BLAS_H_
