// Shared helpers for the test suites: random model builders and exact
// top-K comparison that is robust to ties and to floating-point
// accumulation-order differences between solvers.

#ifndef MIPS_TESTS_TEST_UTIL_H_
#define MIPS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/blas.h"
#include "topk/result.h"

namespace mips {
namespace testing {

/// True when the binary is built under a sanitizer whose instrumentation
/// slows execution enough to skew wall-clock-derived assertions (TSan
/// ~10x, ASan ~2x — enough to flip an OPTIMUS winner whose index-probe
/// vs BMM margin is measured in wall time).  Tests that assert a
/// timing-derived *winner* should GTEST_SKIP on this; tests that assert
/// exactness or data-determined regime signals must not.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kSanitizerSkewsWallClock = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
inline constexpr bool kSanitizerSkewsWallClock = true;
#else
inline constexpr bool kSanitizerSkewsWallClock = false;
#endif
#else
inline constexpr bool kSanitizerSkewsWallClock = false;
#endif

/// Builds a small synthetic model; `norm_sigma` controls item-norm skew.
inline MFModel MakeTestModel(Index users, Index items, Index f,
                             uint64_t seed = 7, Real norm_sigma = 0.4,
                             Real dispersion = 0.5, bool non_negative = false) {
  SyntheticModelConfig config;
  config.num_users = users;
  config.num_items = items;
  config.num_factors = f;
  config.seed = seed;
  config.item_norm_sigma = norm_sigma;
  config.user_dispersion = dispersion;
  config.user_modes = std::max<Index>(2, users / 64);
  config.non_negative = non_negative;
  auto model = GenerateSyntheticModel(config);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

/// Fills a matrix with iid N(0, sigma) entries.
inline Matrix RandomMatrix(Index rows, Index cols, uint64_t seed,
                           Real sigma = 1.0) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<Real>(rng.Normal(0.0, sigma));
  }
  return m;
}

/// Verifies that two exact top-K results agree: per row, the sorted score
/// sequences must match within `tol` (item ids may differ only where
/// scores tie within `tol`).
inline void ExpectSameTopKScores(const TopKResult& a, const TopKResult& b,
                                 Real tol = 1e-8) {
  ASSERT_EQ(a.num_queries(), b.num_queries());
  ASSERT_EQ(a.k(), b.k());
  for (Index q = 0; q < a.num_queries(); ++q) {
    for (Index e = 0; e < a.k(); ++e) {
      const Real sa = a.Row(q)[e].score;
      const Real sb = b.Row(q)[e].score;
      if (std::isinf(sa) || std::isinf(sb)) {
        EXPECT_EQ(sa, sb) << "row " << q << " entry " << e;
      } else {
        EXPECT_NEAR(sa, sb, tol) << "row " << q << " entry " << e;
      }
    }
  }
}

/// Verifies that two top-K results are bit-for-bit equal: the same item
/// and the exact same score at every position (sentinels included).
inline void ExpectBitIdenticalTopK(const TopKResult& got,
                                   const TopKResult& want) {
  ASSERT_EQ(got.num_queries(), want.num_queries());
  ASSERT_EQ(got.k(), want.k());
  for (Index q = 0; q < got.num_queries(); ++q) {
    for (Index e = 0; e < got.k(); ++e) {
      EXPECT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
          << "row " << q << " entry " << e;
      EXPECT_EQ(got.Row(q)[e].score, want.Row(q)[e].score)
          << "row " << q << " entry " << e;
    }
  }
}

/// Verifies internal consistency of a result against the model: every
/// reported score equals the true inner product of (user, item), rows are
/// sorted by descending score, and items within a row are distinct.
inline void ExpectValidTopK(const TopKResult& result,
                            const std::vector<Index>& user_ids,
                            const MFModel& model, Real tol = 1e-8) {
  ASSERT_EQ(result.num_queries(), static_cast<Index>(user_ids.size()));
  const Index f = model.num_factors();
  for (Index q = 0; q < result.num_queries(); ++q) {
    const TopKEntry* row = result.Row(q);
    std::vector<Index> seen;
    for (Index e = 0; e < result.k(); ++e) {
      if (row[e].item < 0) {
        // Sentinel padding is allowed only when k exceeds the item count
        // and must fill the tail contiguously.
        EXPECT_GE(result.k(), model.num_items());
        for (Index e2 = e; e2 < result.k(); ++e2) {
          EXPECT_EQ(row[e2].item, -1);
        }
        break;
      }
      EXPECT_LT(row[e].item, model.num_items());
      const Real truth =
          Dot(model.users.Row(user_ids[static_cast<std::size_t>(q)]),
              model.items.Row(row[e].item), f);
      EXPECT_NEAR(row[e].score, truth, tol)
          << "row " << q << " entry " << e << " item " << row[e].item;
      if (e > 0 && row[e - 1].item >= 0) {
        EXPECT_GE(row[e - 1].score, row[e].score - tol);
      }
      seen.push_back(row[e].item);
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
        << "duplicate item in row " << q;
  }
}

/// All user ids [0, n).
inline std::vector<Index> AllUsers(Index n) {
  std::vector<Index> ids(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  return ids;
}

}  // namespace testing
}  // namespace mips

#endif  // MIPS_TESTS_TEST_UTIL_H_
