#include "linalg/blas.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/dot_kernel.h"

namespace mips {

Real Dot(const Real* x, const Real* y, Index n) {
  // Dispatched 8-lane fma kernel (dot_kernel.h): AVX-512 / AVX2 /
  // portable, selected by the same runtime install as the GEMM
  // micro-kernel.  Every variant is bit-for-bit identical, so swapping
  // kernels never changes a Dot-derived score.
  return ActiveDotKernel()(x, y, n);
}

Real DotNaive(const Real* x, const Real* y, Index n) {
  Real acc = 0;
  for (Index i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

Real Nrm2Squared(const Real* x, Index n) { return Dot(x, x, n); }

Real Nrm2(const Real* x, Index n) { return std::sqrt(Nrm2Squared(x, n)); }

void Axpy(Real alpha, const Real* x, Real* y, Index n) {
  for (Index i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void Scale(Real alpha, Real* x, Index n) {
  for (Index i = 0; i < n; ++i) x[i] *= alpha;
}

void RowNorms(const Real* data, Index rows, Index cols, Real* out) {
  for (Index r = 0; r < rows; ++r) {
    out[r] = Nrm2(data + static_cast<std::size_t>(r) * cols, cols);
  }
}

Real CosineSimilarity(const Real* x, const Real* y, Index n) {
  const Real nx = Nrm2(x, n);
  const Real ny = Nrm2(y, n);
  if (nx == 0 || ny == 0) return 0;
  const Real cos = Dot(x, y, n) / (nx * ny);
  return std::clamp(cos, Real{-1}, Real{1});
}

int64_t FirstNonFinite(const Real* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return static_cast<int64_t>(i);
  }
  return -1;
}

Status ValidateNewUserBatch(const Real* user_vectors, Index num_rows,
                            Index num_factors) {
  if (user_vectors == nullptr) {
    return Status::InvalidArgument("user_vectors must not be null");
  }
  if (num_rows <= 0) {
    return Status::InvalidArgument("num_rows must be positive, got " +
                                   std::to_string(num_rows));
  }
  const int64_t bad = FirstNonFinite(
      user_vectors, static_cast<std::size_t>(num_rows) *
                        static_cast<std::size_t>(num_factors));
  if (bad >= 0) {
    return Status::InvalidArgument(
        "user vector row " + std::to_string(bad / num_factors) +
        " has a non-finite component at factor " +
        std::to_string(bad % num_factors));
  }
  return Status::OK();
}

}  // namespace mips
