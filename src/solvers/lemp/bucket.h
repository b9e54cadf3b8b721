// LEMP bucket structures.
//
// LEMP (Teflioudi et al., SIGMOD'15 / TODS'16) sorts items by vector length
// and partitions them into buckets of similar magnitude.  For each queried
// user it processes buckets in descending-length order, terminating as soon
// as a whole bucket (and hence every later one) cannot beat the user's
// current K-th best score; inside a bucket one of several retrieval
// algorithms scans the candidates.

#ifndef MIPS_SOLVERS_LEMP_BUCKET_H_
#define MIPS_SOLVERS_LEMP_BUCKET_H_

#include <algorithm>
#include <vector>

#include "linalg/matrix.h"

namespace mips {
namespace lemp {

/// In-bucket retrieval algorithms (the LEMP-LI family we reproduce, plus
/// a coordinate-range prune in the spirit of LEMP-COORD).
enum class BucketAlgorithm {
  /// Full inner products for every item in the bucket.
  kNaive = 0,
  /// Length-based pruning: stop the (norm-sorted) scan once
  /// ||i|| * ||u|| <= min(H).
  kLength = 1,
  /// Length pruning + incremental pruning: partial inner products with a
  /// Cauchy-Schwarz bound on the remaining coordinates.
  kIncremental = 2,
  /// Coordinate-range pruning: skip the whole bucket when the per-
  /// dimension bound sum_d max(u_d * max_d, u_d * min_d) cannot beat
  /// min(H), where [min_d, max_d] is the bucket's coordinate range.
  /// (A bucket-granular variant of LEMP's COORD idea; per-item scans then
  /// fall back to length pruning.)
  kCoord = 3,
};

inline const char* BucketAlgorithmName(BucketAlgorithm algorithm) {
  switch (algorithm) {
    case BucketAlgorithm::kNaive:
      return "NAIVE";
    case BucketAlgorithm::kLength:
      return "LENGTH";
    case BucketAlgorithm::kIncremental:
      return "INCR";
    case BucketAlgorithm::kCoord:
      return "COORD";
  }
  return "?";
}

inline constexpr int kNumBucketAlgorithms = 4;

/// One bucket: a contiguous range of the norm-sorted item order.
struct Bucket {
  Index begin = 0;  // first position in the sorted order
  Index end = 0;    // one past the last position
  Real max_norm = 0;
  Real min_norm = 0;
  /// Per-dimension coordinate ranges over the bucket's items (length f),
  /// used by the kCoord bucket-level bound.
  std::vector<Real> coord_min;
  std::vector<Real> coord_max;
};

/// The kCoord bucket-level upper bound on u.i over all items i in the
/// bucket: each coordinate contributes its best case over the bucket's
/// coordinate range.
inline Real CoordBucketBound(const Real* user, const Bucket& bucket,
                             Index f) {
  Real bound = 0;
  for (Index d = 0; d < f; ++d) {
    // mips-tidy: allow(float-accumulation): coordinate-wise prune bound,
    // not a score; it has no dense-kernel counterpart whose rounding
    // order it could mirror.
    bound += std::max(user[d] * bucket.coord_max[static_cast<std::size_t>(d)],
                      user[d] * bucket.coord_min[static_cast<std::size_t>(d)]);
  }
  return bound;
}

/// Index data shared by all queries: items re-ordered by descending norm,
/// plus the per-item data the in-bucket algorithms need.
struct SortedItems {
  /// Items copied in descending-norm order (row r = vector of rank r).
  Matrix vectors;
  /// Norm of each sorted row.
  std::vector<Real> norms;
  /// Original item id of each sorted row.
  std::vector<Index> ids;
  /// Suffix norms at checkpoints: suffix_norms[r * num_checkpoints + c] =
  /// ||vector r restricted to dims [checkpoint_dims[c], f)||.
  std::vector<Real> suffix_norms;
  /// Checkpoint start dimensions (ascending; first entry > 0).
  std::vector<Index> checkpoint_dims;
};

/// Builds the sorted-item structures from a raw item matrix.
SortedItems SortItemsByNorm(const ConstRowBlock& items, Index num_checkpoints);

/// Splits [0, n) into buckets of `bucket_size` consecutive sorted items
/// (the last bucket may be smaller) and fills their norm bounds.
std::vector<Bucket> MakeBuckets(const SortedItems& sorted, Index bucket_size);

}  // namespace lemp
}  // namespace mips

#endif  // MIPS_SOLVERS_LEMP_BUCKET_H_
