// Unit and property tests for src/linalg: Matrix, level-1 kernels, the
// blocked GEMM (vs. the naive reference across a shape sweep), the
// runtime SIMD dispatch layer (per-kernel differential suites, forced
// overrides, the probe), and the Jacobi symmetric eigen-decomposition.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/dot_kernel.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "linalg/simd_dispatch.h"
#include "linalg/matrix.h"
#include "linalg/sym_eigen.h"
#include "counting_new.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::RandomMatrix;

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
}

TEST(MatrixTest, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
}

TEST(MatrixTest, StorageIsAligned) {
  Matrix m(5, 7);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data()) % 64, 0u);
}

TEST(MatrixTest, RowMajorIndexing) {
  Matrix m(2, 3);
  m(0, 0) = 1;
  m(0, 2) = 3;
  m(1, 1) = 5;
  EXPECT_EQ(m.Row(0)[0], 1);
  EXPECT_EQ(m.Row(0)[2], 3);
  EXPECT_EQ(m.Row(1)[1], 5);
  EXPECT_EQ(m.data()[3 * 1 + 1], 5);  // row 1 starts at offset cols
}

TEST(MatrixTest, CopySemantics) {
  Matrix a = RandomMatrix(4, 5, 1);
  Matrix b = a;
  EXPECT_TRUE(a == b);
  b(0, 0) += 1;
  EXPECT_FALSE(a == b);  // deep copy
}

TEST(MatrixTest, CopyAssignSelf) {
  Matrix a = RandomMatrix(3, 3, 2);
  const Matrix snapshot = a;
  a = *&a;
  EXPECT_TRUE(a == snapshot);
}

TEST(MatrixTest, MoveSemantics) {
  Matrix a = RandomMatrix(4, 5, 3);
  const Matrix snapshot = a;
  Matrix b = std::move(a);
  EXPECT_TRUE(b == snapshot);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(MatrixTest, FillSetsEveryElement) {
  Matrix m(3, 3);
  m.Fill(2.5);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 2.5);
}

TEST(MatrixTest, TransposedRoundTrip) {
  const Matrix a = RandomMatrix(37, 53, 4);
  const Matrix t = a.Transposed();
  ASSERT_EQ(t.rows(), 53);
  ASSERT_EQ(t.cols(), 37);
  for (Index r = 0; r < a.rows(); ++r) {
    for (Index c = 0; c < a.cols(); ++c) EXPECT_EQ(a(r, c), t(c, r));
  }
  EXPECT_TRUE(t.Transposed() == a);
}

TEST(MatrixTest, RowSlice) {
  const Matrix a = RandomMatrix(10, 4, 5);
  const Matrix s = a.RowSlice(3, 7);
  ASSERT_EQ(s.rows(), 4);
  for (Index r = 0; r < 4; ++r) {
    for (Index c = 0; c < 4; ++c) EXPECT_EQ(s(r, c), a(r + 3, c));
  }
  EXPECT_EQ(a.RowSlice(2, 2).rows(), 0);
}

TEST(ConstRowBlockTest, ViewsMatrixRows) {
  const Matrix a = RandomMatrix(6, 3, 6);
  ConstRowBlock whole(a);
  EXPECT_EQ(whole.rows(), 6);
  EXPECT_EQ(whole.data(), a.data());
  ConstRowBlock part(a, 2, 5);
  EXPECT_EQ(part.rows(), 3);
  EXPECT_EQ(part(0, 1), a(2, 1));
  EXPECT_EQ(part(2, 2), a(4, 2));
}

// ------------------------------------------------------------- Level 1

TEST(BlasTest, DotMatchesNaive) {
  Rng rng(7);
  for (Index n : {0, 1, 2, 3, 4, 5, 7, 8, 16, 63, 100, 257}) {
    std::vector<Real> x(static_cast<std::size_t>(n));
    std::vector<Real> y(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = rng.Normal();
      y[static_cast<std::size_t>(i)] = rng.Normal();
    }
    EXPECT_NEAR(Dot(x.data(), y.data(), n), DotNaive(x.data(), y.data(), n),
                1e-10 * (1 + std::abs(DotNaive(x.data(), y.data(), n))));
  }
}

TEST(BlasTest, NormsAndScale) {
  std::vector<Real> x = {3, 4};
  EXPECT_DOUBLE_EQ(Nrm2(x.data(), 2), 5.0);
  EXPECT_DOUBLE_EQ(Nrm2Squared(x.data(), 2), 25.0);
  Scale(2.0, x.data(), 2);
  EXPECT_DOUBLE_EQ(x[0], 6.0);
  EXPECT_DOUBLE_EQ(Nrm2(x.data(), 2), 10.0);
}

// A squared sum that overflows says nothing of the norm: Nrm2 sums the
// squares again with x scaled by a power of two.
TEST(BlasTest, Nrm2OfComponentsWhoseSquaresOverflow) {
  std::vector<Real> x = {3e200, 4e200, 0, 0, 0, 0, 0, 0};
  ASSERT_TRUE(std::isinf(Nrm2Squared(x.data(), 8)));
  EXPECT_DOUBLE_EQ(Nrm2(x.data(), 8), 5e200);
  std::vector<Real> one = {0.5, -1, 1e200, 2, 0, 0.25, -3, 1};
  EXPECT_DOUBLE_EQ(Nrm2(one.data(), 8), 1e200);
  std::vector<Real> near_max = {1e308, 1e308};
  EXPECT_DOUBLE_EQ(Nrm2(near_max.data(), 2), std::sqrt(2.0) * 1e308);
  const Real inf = std::numeric_limits<Real>::infinity();
  std::vector<Real> past_max = {1.5e308, 1e308, -inf, 1};
  EXPECT_EQ(Nrm2(past_max.data(), 2), inf);
  EXPECT_EQ(Nrm2(past_max.data(), 4), inf);
}

// And one that underflows to zero or to a subnormal double, likewise.
TEST(BlasTest, Nrm2OfComponentsWhoseSquaresUnderflow) {
  std::vector<Real> x = {3e-170, -4e-170, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(Nrm2Squared(x.data(), 8), 0.0);
  EXPECT_DOUBLE_EQ(Nrm2(x.data(), 8), 5e-170);
  std::vector<Real> subnormal_sum = {3e-160, 4e-160};
  ASSERT_FALSE(std::isnormal(Nrm2Squared(subnormal_sum.data(), 2)));
  EXPECT_DOUBLE_EQ(Nrm2(subnormal_sum.data(), 2), 5e-160);
  const Real least = std::numeric_limits<Real>::denorm_min();
  std::vector<Real> subnormal = {3 * least, 4 * least};
  EXPECT_EQ(Nrm2(subnormal.data(), 2), 5 * least);
  std::vector<Real> zero(8, 0.0);
  EXPECT_EQ(Nrm2(zero.data(), 8), 0.0);
}

// Wherever the squared sum is a normal double, the norm is still its root,
// bit for bit.
TEST(BlasTest, Nrm2IsTheRootOfANormalSquaredSum) {
  Rng rng(11);
  for (const Real scale : {1e-150, 1e-20, 1.0, 1e20, 1e150}) {
    for (const Index n : {1, 7, 8, 50}) {
      std::vector<Real> x(static_cast<std::size_t>(n));
      for (Real& v : x) v = scale * rng.Normal();
      const Real squared = Nrm2Squared(x.data(), n);
      ASSERT_TRUE(std::isnormal(squared));
      EXPECT_EQ(std::bit_cast<uint64_t>(Nrm2(x.data(), n)),
                std::bit_cast<uint64_t>(std::sqrt(squared)))
          << "scale " << scale << " n " << n;
    }
  }
}

TEST(BlasTest, Axpy) {
  std::vector<Real> x = {1, 2, 3};
  std::vector<Real> y = {10, 20, 30};
  Axpy(2.0, x.data(), y.data(), 3);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(BlasTest, RowNorms) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(0, 1) = 4;
  m(1, 0) = 0;
  m(1, 1) = 2;
  Real norms[2];
  RowNorms(m.data(), 2, 2, norms);
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 2.0);
}

TEST(BlasTest, CosineSimilarity) {
  std::vector<Real> x = {1, 0};
  std::vector<Real> y = {0, 1};
  std::vector<Real> z = {2, 0};
  std::vector<Real> zero = {0, 0};
  EXPECT_NEAR(CosineSimilarity(x.data(), y.data(), 2), 0.0, 1e-12);
  EXPECT_NEAR(CosineSimilarity(x.data(), z.data(), 2), 1.0, 1e-12);
  EXPECT_EQ(CosineSimilarity(x.data(), zero.data(), 2), 0.0);
}

TEST(BlasTest, CosineSimilarityClamped) {
  // Nearly parallel vectors can produce cos slightly above 1 in floating
  // point; the result must stay in [-1, 1].
  std::vector<Real> x = {1e150, 1e-150};
  const Real cos = CosineSimilarity(x.data(), x.data(), 2);
  EXPECT_LE(cos, 1.0);
  EXPECT_GE(cos, -1.0);
}

// ----------------------------------------------------------------- GEMM

class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, BlockedMatchesReference) {
  const auto [m, n, k] = GetParam();
  const Matrix a = RandomMatrix(m, k, 17 + m);
  const Matrix b = RandomMatrix(n, k, 31 + n);
  Matrix c_blocked(m, n);
  Matrix c_ref(m, n);
  GemmNT(a.data(), m, b.data(), n, k, 1.0, 0.0, c_blocked.data(), n);
  GemmNaiveNT(a.data(), m, b.data(), n, k, 1.0, 0.0, c_ref.data(), n);
  for (std::size_t i = 0; i < c_ref.size(); ++i) {
    EXPECT_NEAR(c_blocked.data()[i], c_ref.data()[i],
                1e-9 * (1 + std::abs(c_ref.data()[i])))
        << "element " << i << " shape " << m << "x" << n << "x" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapeTest,
    ::testing::Values(
        // Tiny and degenerate-ish shapes.
        std::make_tuple(1, 1, 1), std::make_tuple(1, 17, 3),
        std::make_tuple(5, 1, 10), std::make_tuple(3, 3, 1),
        // Micro-kernel edges (MR=4, NR=16).
        std::make_tuple(4, 16, 8), std::make_tuple(5, 17, 8),
        std::make_tuple(3, 15, 7), std::make_tuple(8, 32, 16),
        // Cache-block edges (MC=128, KC=256, NC=2048).
        std::make_tuple(64, 64, 64), std::make_tuple(65, 63, 100),
        std::make_tuple(128, 100, 256), std::make_tuple(70, 130, 257),
        std::make_tuple(200, 300, 31),
        // Latent-factor-like shapes.
        std::make_tuple(100, 500, 50), std::make_tuple(37, 211, 10)));

// Every combination of one below, at and one above each cache-block edge.
// The pack workspace is sized to the call, so an over-read or over-write
// of a packed panel at any of these edges lands outside its allocation.
INSTANTIATE_TEST_SUITE_P(BlockEdges, GemmShapeTest,
                         ::testing::Combine(::testing::Values(127, 128, 129),
                                            ::testing::Values(2047, 2048, 2049),
                                            ::testing::Values(256, 257)));

// The threaded overload promises bit-for-bit identity with the serial
// kernel (each slab runs the same K-panel/micro-kernel order), so this
// differential sweep uses exact equality, not a tolerance.
TEST(GemmTest, ThreadedMatchesSerialBitForBit) {
  ThreadPool pool(4);
  for (const auto& [m, n, k] :
       std::vector<std::tuple<int, int, int>>{
           {1, 1, 1},       // degenerate
           {3, 2000, 64},   // wide N: column-slab partition
           {500, 7, 33},    // tall M: row-slab partition
           {129, 131, 70},  // both dims straddle tile edges
           {256, 512, 96},  // tile-aligned
           {2, 4096, 8},    // more column tiles than workers
           // Tall: every row slab straddles the NC edge.
           {2050, 2049, 8}}) {
    const Matrix a = RandomMatrix(m, k, 1000 + m);
    const Matrix b = RandomMatrix(n, k, 2000 + n);
    Matrix c_serial(m, n);
    Matrix c_threaded(m, n);
    GemmNT(a.data(), m, b.data(), n, k, 1.5, 0.0, c_serial.data(), n);
    GemmNT(a.data(), m, b.data(), n, k, 1.5, 0.0, c_threaded.data(), n,
           &pool);
    for (std::size_t i = 0; i < c_serial.size(); ++i) {
      ASSERT_EQ(c_serial.data()[i], c_threaded.data()[i])
          << "element " << i << " shape " << m << "x" << n << "x" << k;
    }
    // beta != 0 accumulation partitions identically.
    Matrix acc_serial = RandomMatrix(m, n, 77);
    Matrix acc_threaded = acc_serial;
    GemmNT(a.data(), m, b.data(), n, k, 1.0, 0.5, acc_serial.data(), n);
    GemmNT(a.data(), m, b.data(), n, k, 1.0, 0.5, acc_threaded.data(), n,
           &pool);
    for (std::size_t i = 0; i < acc_serial.size(); ++i) {
      ASSERT_EQ(acc_serial.data()[i], acc_threaded.data()[i])
          << "element " << i << " shape " << m << "x" << n << "x" << k;
    }
  }
}

TEST(GemmTest, AlphaBetaHandling) {
  const Matrix a = RandomMatrix(5, 3, 71);
  const Matrix b = RandomMatrix(4, 3, 72);
  Matrix c = RandomMatrix(5, 4, 73);
  Matrix expected = c;
  GemmNaiveNT(a.data(), 5, b.data(), 4, 3, 2.0, 0.5, expected.data(), 4);
  GemmNT(a.data(), 5, b.data(), 4, 3, 2.0, 0.5, c.data(), 4);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], expected.data()[i], 1e-9);
  }
}

TEST(GemmTest, BetaOneAccumulates) {
  const Matrix a = RandomMatrix(6, 5, 81);
  const Matrix b = RandomMatrix(7, 5, 82);
  Matrix c(6, 7);
  c.Fill(1.0);
  GemmNT(a.data(), 6, b.data(), 7, 5, 1.0, 1.0, c.data(), 7);
  Matrix ref(6, 7);
  GemmNaiveNT(a.data(), 6, b.data(), 7, 5, 1.0, 0.0, ref.data(), 7);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i] + 1.0, 1e-9);
  }
}

TEST(GemmTest, AlphaZeroOnlyScalesC) {
  const Matrix a = RandomMatrix(3, 4, 91);
  const Matrix b = RandomMatrix(2, 4, 92);
  Matrix c(3, 2);
  c.Fill(3.0);
  GemmNT(a.data(), 3, b.data(), 2, 4, 0.0, 2.0, c.data(), 2);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_DOUBLE_EQ(c.data()[i], 6.0);
}

TEST(GemmTest, LeadingDimensionLargerThanN) {
  const Matrix a = RandomMatrix(4, 3, 95);
  const Matrix b = RandomMatrix(5, 3, 96);
  Matrix c(4, 8);  // ldc = 8 > n = 5
  c.Fill(7.0);
  GemmNT(a.data(), 4, b.data(), 5, 3, 1.0, 0.0, c.data(), 8);
  Matrix ref(4, 5);
  GemmNaiveNT(a.data(), 4, b.data(), 5, 3, 1.0, 0.0, ref.data(), 5);
  for (Index r = 0; r < 4; ++r) {
    for (Index col = 0; col < 5; ++col) {
      EXPECT_NEAR(c(r, col), ref(r, col), 1e-9);
    }
    for (Index col = 5; col < 8; ++col) {
      EXPECT_DOUBLE_EQ(c(r, col), 7.0);  // padding untouched
    }
  }
}

// A one-user query against a small shard must not pay for a pack
// workspace sized to the largest possible call: 1 x 16 x 50 packs one A
// tile and one B tile, 8,000 bytes in all.  Counts bytes, not time.
TEST(GemmTest, SmallCallWorkspaceIsSizedToShape) {
  const Matrix a = RandomMatrix(1, 50, 121);
  const Matrix b = RandomMatrix(16, 50, 122);
  Matrix c(1, 16);
  // The first call installs the micro-kernel; its probe allocates.
  GemmNT(a.data(), 1, b.data(), 16, 50, 1.0, 0.0, c.data(), 16);
  testing::AllocationCounter counter;
  GemmNT(a.data(), 1, b.data(), 16, 50, 1.0, 0.0, c.data(), 16);
  EXPECT_LT(counter.bytes(), std::size_t{64} << 10);
}

TEST(GemmTest, MatrixOverloadResizesOutput) {
  const Matrix a = RandomMatrix(9, 6, 101);
  const Matrix b = RandomMatrix(11, 6, 102);
  Matrix c;
  GemmNT(ConstRowBlock(a), ConstRowBlock(b), &c);
  EXPECT_EQ(c.rows(), 9);
  EXPECT_EQ(c.cols(), 11);
  Matrix ref(9, 11);
  GemmNaiveNT(a.data(), 9, b.data(), 11, 6, 1.0, 0.0, ref.data(), 11);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-9);
  }
}

TEST(GemmTest, GemvMatchesDots) {
  const Matrix a = RandomMatrix(7, 9, 121);
  const Matrix x = RandomMatrix(1, 9, 122);
  std::vector<Real> y(7);
  Gemv(a.data(), 7, 9, x.Row(0), y.data());
  for (Index r = 0; r < 7; ++r) {
    EXPECT_NEAR(y[static_cast<std::size_t>(r)], Dot(a.Row(r), x.Row(0), 9),
                1e-10);
  }
}

TEST(GemmTest, GemmDotMatchesReference) {
  const Matrix a = RandomMatrix(13, 21, 131);
  const Matrix b = RandomMatrix(17, 21, 132);
  Matrix c(13, 17);
  GemmDotNT(a.data(), 13, b.data(), 17, 21, c.data(), 17);
  Matrix ref(13, 17);
  GemmNaiveNT(a.data(), 13, b.data(), 17, 21, 1.0, 0.0, ref.data(), 17);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i], 1e-9);
  }
}

// ------------------------------------------------- runtime SIMD dispatch

std::vector<GemmKernel> SupportedKernels() {
  std::vector<GemmKernel> kernels;
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const GemmKernel kernel = static_cast<GemmKernel>(v);
    if (GemmKernelSupported(kernel)) kernels.push_back(kernel);
  }
  return kernels;
}

/// Restores auto dispatch after every forced-kernel test, so suites that
/// run later are not pinned to whatever kernel a test left installed.
class GemmKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGemmKernelForTest(); }
};

TEST_F(GemmKernelTest, ParseAndNames) {
  EXPECT_STREQ(ToString(GemmKernel::kPortable), "portable");
  EXPECT_STREQ(ToString(GemmKernel::kAvx2), "avx2");
  EXPECT_STREQ(ToString(GemmKernel::kAvx512), "avx512");
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const GemmKernel kernel = static_cast<GemmKernel>(v);
    auto parsed = ParseGemmKernel(ToString(kernel));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kernel);
  }
  EXPECT_FALSE(ParseGemmKernel("sse9").ok());
  EXPECT_FALSE(ParseGemmKernel("").ok());
  EXPECT_FALSE(ParseGemmKernel("AVX2").ok());  // names are lowercase
}

TEST_F(GemmKernelTest, DotBitForBitAcrossForcedKernels) {
  // The level-1 dot kernels share the GEMM dispatch and the same
  // bit-for-bit contract (linalg/dot_kernel.h): 8 independent lanes,
  // per-lane fma chains, fixed reduction tree.  Forcing any supported
  // kernel must leave every Dot() result EXACTLY unchanged, remainder
  // tails and empty inputs included.
  Rng rng(91);
  for (const Index n : {0, 1, 3, 7, 8, 9, 31, 64, 100, 257}) {
    std::vector<Real> x(static_cast<std::size_t>(n));
    std::vector<Real> y(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(i)] = rng.Normal();
      y[static_cast<std::size_t>(i)] = rng.Normal();
    }
    ASSERT_TRUE(ForceGemmKernel(GemmKernel::kPortable).ok());
    const Real want = Dot(x.data(), y.data(), n);
    // The variant entry points agree regardless of what is installed
    // (unsupported ISAs forward to the portable body).
    EXPECT_EQ(DotKernelPortable(x.data(), y.data(), n), want) << "n=" << n;
    EXPECT_EQ(DotKernelAvx2(x.data(), y.data(), n), want) << "n=" << n;
    EXPECT_EQ(DotKernelAvx512(x.data(), y.data(), n), want) << "n=" << n;
    for (int v = 0; v < kNumGemmKernels; ++v) {
      const GemmKernel kernel = static_cast<GemmKernel>(v);
      if (!GemmKernelSupported(kernel)) continue;
      ASSERT_TRUE(ForceGemmKernel(kernel).ok());
      EXPECT_EQ(Dot(x.data(), y.data(), n), want)
          << "n=" << n << " kernel=" << ToString(kernel);
    }
  }
}

TEST_F(GemmKernelTest, PortableAlwaysSupportedAndInstallable) {
  EXPECT_TRUE(GemmKernelSupported(GemmKernel::kPortable));
  ASSERT_TRUE(ForceGemmKernel(GemmKernel::kPortable).ok());
  EXPECT_EQ(ActiveGemmKernel(), GemmKernel::kPortable);
}

TEST_F(GemmKernelTest, ForcedOverrideInstallsEverySupportedKernel) {
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const GemmKernel kernel = static_cast<GemmKernel>(v);
    if (GemmKernelSupported(kernel)) {
      ASSERT_TRUE(ForceGemmKernel(kernel).ok()) << ToString(kernel);
      EXPECT_EQ(ActiveGemmKernel(), kernel);
    } else {
      // Unsupported variants must be refused, not silently downgraded.
      const Status status = ForceGemmKernel(kernel);
      EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
          << ToString(kernel);
    }
  }
}

TEST_F(GemmKernelTest, ProbeMeasuresEverySupportedVariant) {
  const GemmKernelProbe probe = ProbeGemmKernels();
  bool fastest_seen = false;
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const auto& variant = probe.variants[static_cast<std::size_t>(v)];
    EXPECT_EQ(variant.kernel, static_cast<GemmKernel>(v));
    EXPECT_EQ(variant.supported,
              GemmKernelSupported(static_cast<GemmKernel>(v)));
    if (variant.supported) {
      EXPECT_GT(variant.gflops, 0.0) << ToString(variant.kernel);
    } else {
      EXPECT_EQ(variant.gflops, 0.0) << ToString(variant.kernel);
    }
    if (variant.kernel == probe.fastest) fastest_seen = variant.supported;
  }
  EXPECT_TRUE(fastest_seen) << "probe picked an unsupported kernel";
}

TEST_F(GemmKernelTest, EnvOverrideInstallsRequestedKernel) {
  // The env override is read at install time, so resetting the dispatch
  // makes it testable in-process.  Every supported kernel it names is
  // installed, whatever the probe would pick.  Forced installs must still
  // win over the env value.
  for (const GemmKernel kernel : SupportedKernels()) {
    ResetGemmKernelForTest();
    ASSERT_EQ(setenv("MIPS_GEMM_KERNEL", ToString(kernel), /*overwrite=*/1),
              0);
    EXPECT_EQ(ActiveGemmKernel(), kernel);
  }

  ResetGemmKernelForTest();
  ASSERT_EQ(setenv("MIPS_GEMM_KERNEL", "not-a-kernel", 1), 0);
  const GemmKernel probed = ActiveGemmKernel();  // warns, falls back
  EXPECT_TRUE(GemmKernelSupported(probed));
  EXPECT_EQ(ActiveGemmKernel(), probed);  // installed once, not re-probed

  ASSERT_EQ(setenv("MIPS_GEMM_KERNEL", "portable", 1), 0);
  const auto kernels = SupportedKernels();
  ASSERT_TRUE(ForceGemmKernel(kernels.back()).ok());
  EXPECT_EQ(ActiveGemmKernel(), kernels.back());
  ASSERT_EQ(unsetenv("MIPS_GEMM_KERNEL"), 0);
}

// Every compiled-and-supported variant must produce BIT-FOR-BIT the
// portable kernel's results — not merely close ones.  All variants run
// the identical per-element IEEE fma sequence (gemm_kernel.h), so the
// differential is exact across serial and threaded paths and edge tiles
// (m, n not multiples of MR=4 / NR=16, where the scratch-tile edge path
// must also ride the installed kernel).
TEST_F(GemmKernelTest, VariantsMatchPortableBitForBitNT) {
  const auto shapes = std::vector<std::tuple<int, int, int>>{
      {1, 1, 1},      {5, 17, 8},    {3, 15, 7},     {4, 16, 8},
      {129, 131, 70}, {64, 64, 64},  {100, 500, 50}, {2, 300, 257},
      {37, 211, 10},  {70, 130, 31},
  };
  for (const auto& [m, n, k] : shapes) {
    const Matrix a = RandomMatrix(m, k, 400 + m);
    const Matrix b = RandomMatrix(n, k, 500 + n);
    ASSERT_TRUE(ForceGemmKernel(GemmKernel::kPortable).ok());
    Matrix want(m, n);
    GemmNT(a.data(), m, b.data(), n, k, 1.25, 0.0, want.data(), n);
    for (const GemmKernel kernel : SupportedKernels()) {
      if (kernel == GemmKernel::kPortable) continue;
      ASSERT_TRUE(ForceGemmKernel(kernel).ok());
      Matrix got(m, n);
      GemmNT(a.data(), m, b.data(), n, k, 1.25, 0.0, got.data(), n);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got.data()[i], want.data()[i])
            << ToString(kernel) << " element " << i << " shape " << m << "x"
            << n << "x" << k;
      }
    }
  }
}

TEST_F(GemmKernelTest, VariantsMatchPortableBitForBitNNAndThreaded) {
  ThreadPool pool(3);
  const auto shapes = std::vector<std::tuple<int, int, int>>{
      {5, 6, 4}, {129, 131, 70}, {3, 2000, 64}, {500, 7, 33}};
  for (const auto& [m, n, k] : shapes) {
    const Matrix a = RandomMatrix(m, k, 600 + m);
    const Matrix bt = RandomMatrix(n, k, 700 + n);
    ASSERT_TRUE(ForceGemmKernel(GemmKernel::kPortable).ok());
    Matrix want_threaded(m, n);
    GemmNT(a.data(), m, bt.data(), n, k, 1.0, 0.0, want_threaded.data(), n,
           &pool);
    for (const GemmKernel kernel : SupportedKernels()) {
      if (kernel == GemmKernel::kPortable) continue;
      ASSERT_TRUE(ForceGemmKernel(kernel).ok());
      Matrix got_threaded(m, n);
      GemmNT(a.data(), m, bt.data(), n, k, 1.0, 0.0, got_threaded.data(), n,
             &pool);
      for (std::size_t i = 0; i < want_threaded.size(); ++i) {
        ASSERT_EQ(got_threaded.data()[i], want_threaded.data()[i])
            << "threaded " << ToString(kernel) << " element " << i;
      }
    }
  }
}

// Each micro-kernel's scorer entry and its in-place twin (gemm_kernel.h)
// must write the tile bit for bit as the kernel does with alpha = 1 from
// the same rows packed, over c or over +0.0, padded lanes included, and
// return the same hit mask: every panel width nr, depths around the
// twins' 4- and 8-value steps, and row strides longer than the depth.
// B's last row ends its buffer, so a read past row nr - 1 reads past the
// buffer, and the values between depth kb and the stride are NaN, so a
// step past kb shows in C.
TEST_F(GemmKernelTest, InPlaceTwinsMatchPackedKernelsBitForBit) {
  struct Variant {
    GemmKernel kernel;
    GemmMicroKernelFn packed;
    GemmMicroKernelScoreFn score;
    GemmMicroKernelRowsFn in_place;
  };
  const Variant variants[] = {
      {GemmKernel::kPortable, &GemmMicroKernelPortable,
       &GemmMicroKernelScorePortable, &GemmMicroKernelRowsPortable},
      {GemmKernel::kAvx2, &GemmMicroKernelAvx2, &GemmMicroKernelScoreAvx2,
       &GemmMicroKernelRowsAvx2},
      {GemmKernel::kAvx512, &GemmMicroKernelAvx512,
       &GemmMicroKernelScoreAvx512, &GemmMicroKernelRowsAvx512}};
  Rng rng(97);
  const auto random = [&rng](std::size_t size) {
    std::vector<Real> v(size);
    for (Real& x : v) x = rng.Normal();
    return v;
  };
  constexpr std::size_t kTile = kGemmMR * kGemmNR;
  const std::vector<Real> bounds = random(kGemmNR);
  for (const Index kb : {1, 2, 3, 4, 5, 7, 8, 9, 16, 50, 256}) {
    const std::vector<Real> ap = random(kGemmMR * static_cast<std::size_t>(kb));
    for (const Index ldb : {kb, kb + 3}) {
      for (Index nr = 1; nr <= kGemmNR; ++nr) {
        std::vector<Real> b(static_cast<std::size_t>((nr - 1) * ldb + kb));
        for (std::size_t i = 0; i < b.size(); ++i) {
          b[i] = static_cast<Index>(i % static_cast<std::size_t>(ldb)) < kb
                     ? rng.Normal()
                     : std::numeric_limits<Real>::quiet_NaN();
        }
        std::vector<Real> bp(kGemmNR * static_cast<std::size_t>(kb));
        PackPanels(b.data(), ldb, /*ids=*/nullptr, nr, 0, kb, kGemmNR,
                   bp.data());
        const std::vector<Real> c = random(kTile);
        const std::vector<Real> thresholds = random(kGemmMR);
        for (const bool accumulate : {false, true}) {
          for (const Variant& v : variants) {
            if (!GemmKernelSupported(v.kernel)) continue;
            std::vector<Real> want =
                accumulate ? c : std::vector<Real>(kTile, 0.0);
            std::vector<Real> scored = c;
            std::vector<Real> got = c;
            v.packed(ap.data(), bp.data(), kb, 1, want.data(), kGemmNR);
            const Real* test_bounds = accumulate ? bounds.data() : nullptr;
            const uint64_t want_hits =
                v.score(ap.data(), bp.data(), kb, scored.data(), accumulate,
                        thresholds.data(), test_bounds);
            const uint64_t got_hits =
                v.in_place(ap.data(), b.data(), ldb, nr, kb, got.data(),
                           accumulate, thresholds.data(), test_bounds);
            ASSERT_EQ(got_hits, want_hits)
                << ToString(v.kernel) << " kb=" << kb << " ldb=" << ldb
                << " nr=" << nr << " accumulate=" << accumulate;
            for (std::size_t i = 0; i < kTile; ++i) {
              ASSERT_EQ(std::bit_cast<uint64_t>(scored[i]),
                        std::bit_cast<uint64_t>(want[i]))
                  << ToString(v.kernel) << " kb=" << kb << " cell " << i;
              ASSERT_EQ(std::bit_cast<uint64_t>(got[i]),
                        std::bit_cast<uint64_t>(want[i]))
                  << ToString(v.kernel) << " kb=" << kb << " ldb=" << ldb
                  << " nr=" << nr << " accumulate=" << accumulate
                  << " cell " << i;
            }
          }
        }
      }
    }
  }
}

// Full tiles and edge tiles must agree: a duplicated row landing at a
// tile-interior column and at the ragged fringe must receive identical
// scores (this is what keeps duplicate items exactly tied under any
// sharding — see sharded_test).
TEST_F(GemmKernelTest, EdgeTileMatchesFullTilePerElement) {
  const Index m = 4;
  const Index k = 50;
  const Index n = 19;  // columns 16..18 are the edge fringe
  const Matrix a = RandomMatrix(m, k, 901);
  Matrix b = RandomMatrix(n, k, 902);
  // Column 18 (edge) duplicates column 2 (full tile).
  for (Index kk = 0; kk < k; ++kk) b(18, kk) = b(2, kk);
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    Matrix c(m, n);
    GemmNT(a.data(), m, b.data(), n, k, 1.0, 0.0, c.data(), n);
    for (Index r = 0; r < m; ++r) {
      ASSERT_EQ(c(r, 18), c(r, 2)) << ToString(kernel) << " row " << r;
    }
  }
}

// ----------------------------------------------------------- Sym eigen

TEST(SymEigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 1;
  a(1, 1) = 5;
  a(2, 2) = 3;
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 5, 1e-12);
  EXPECT_NEAR(eig.values[1], 3, 1e-12);
  EXPECT_NEAR(eig.values[2], 1, 1e-12);
}

TEST(SymEigenTest, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  EXPECT_NEAR(eig.values[0], 3, 1e-12);
  EXPECT_NEAR(eig.values[1], 1, 1e-12);
  // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-10);
  EXPECT_NEAR(std::abs(eig.vectors(0, 1)), std::sqrt(0.5), 1e-10);
}

TEST(SymEigenTest, ReconstructsRandomSymmetric) {
  const Index n = 24;
  Matrix base = RandomMatrix(n, n, 141);
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = base(i, j) + base(j, i);
  }
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  // A == V^T diag(values) V with rows of `vectors` the eigenvectors.
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real sum = 0;
      for (Index r = 0; r < n; ++r) {
        // mips-tidy: allow(float-accumulation): naive reconstruction
        // reference for the eigendecomposition, EXPECT_NEAR with 1e-8.
        sum += eig.values[static_cast<std::size_t>(r)] * eig.vectors(r, i) *
               eig.vectors(r, j);
      }
      EXPECT_NEAR(sum, a(i, j), 1e-8);
    }
  }
  // Eigenvalues descending.
  for (std::size_t r = 1; r < eig.values.size(); ++r) {
    EXPECT_GE(eig.values[r - 1], eig.values[r] - 1e-12);
  }
}

TEST(SymEigenTest, EigenvectorsOrthonormal) {
  const Index n = 16;
  Matrix base = RandomMatrix(n, n, 151);
  Matrix a(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < n; ++j) a(i, j) = base(i, j) + base(j, i);
  }
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(a, &eig).ok());
  for (Index r = 0; r < n; ++r) {
    for (Index s = 0; s < n; ++s) {
      const Real dot = Dot(eig.vectors.Row(r), eig.vectors.Row(s), n);
      EXPECT_NEAR(dot, r == s ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(SymEigenTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EigenDecomposition eig;
  EXPECT_EQ(JacobiEigenSymmetric(a, &eig).code(),
            StatusCode::kInvalidArgument);
}

TEST(SymEigenTest, RejectsNonSymmetric) {
  Matrix a(2, 2);
  a(0, 1) = 1;
  a(1, 0) = 2;
  EigenDecomposition eig;
  EXPECT_EQ(JacobiEigenSymmetric(a, &eig).code(),
            StatusCode::kFailedPrecondition);
}

TEST(SymEigenTest, GramMatrixIsCorrect) {
  const Matrix p = RandomMatrix(40, 7, 161);
  const Matrix g = GramMatrix(ConstRowBlock(p));
  ASSERT_EQ(g.rows(), 7);
  ASSERT_EQ(g.cols(), 7);
  for (Index a = 0; a < 7; ++a) {
    for (Index b = 0; b < 7; ++b) {
      Real expected = 0;
      for (Index r = 0; r < 40; ++r) expected += p(r, a) * p(r, b);
      EXPECT_NEAR(g(a, b), expected, 1e-9);
    }
  }
}

TEST(SymEigenTest, GramEigenvaluesNonNegative) {
  const Matrix p = RandomMatrix(30, 8, 171);
  EigenDecomposition eig;
  ASSERT_TRUE(JacobiEigenSymmetric(GramMatrix(ConstRowBlock(p)), &eig).ok());
  for (Real v : eig.values) EXPECT_GE(v, -1e-8);
}

}  // namespace
}  // namespace mips
