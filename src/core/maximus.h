// MAXIMUS: the paper's hardware-friendly exact MIPS index (Section III).
//
// Construction (Algorithm 1, ConstructIndex):
//   1. Cluster users with k-means (|C| = 8 clusters, i = 3 iterations by
//      default; spherical k-means available for the lesion study).
//   2. Per cluster j: theta_b = max member angle to the centroid; compute
//      the Equation-3 bound for every item and sort items by it
//      (descending) into the cluster's list L[j].
//
// Query (Algorithm 1, QueryIndex): walk the user's cluster list with a
// K-heap of true (normalized) scores; stop at the first position whose
// bound cannot beat min(H).  Scores are computed on the *normalized* user
// so they are directly comparable to the scale-free bound; final results
// are rescaled by ||u|| (ordering is scale-invariant).  A new vector
// (Section III-E) walks its nearest centroid's list through the same walk,
// its bounds widened by how far it lies outside that cluster's cone.
//
// Hardware-efficient item blocking (Section III-D): each cluster list is
// scored in B-item segments for all of the cluster's still-walking
// queried users with one blocked GEMM per segment, sharing work across
// users.  A BoundedWalk (topk/score_select.h) scores a segment one 4x16
// register tile at a time and walks each tile row while it is in L1,
// stopping at the same list position as the scalar bound check; a tile
// whose four users have all stopped is not scored.  Each user keeps its
// best k across all of its segments: in one sorted row record when k <=
// 16, in a heap past it.  The first segment is packed for the GEMM
// micro-kernel at construction.  Before each later one:
//   - the users still walking are regrouped in order of their threshold
//     (k-th score), so the four users of a register tile stop near each
//     other instead of one tile walking until its slowest user stops;
//   - the segment is gathered into packed form only through the first
//     position whose bound plus their largest slack is below the lowest
//     of their thresholds.  Thresholds only rise and the bounds descend,
//     so every walker stops there at the latest.
// Neither moves a stop: each user's answer and visit count are those of
// the scalar walk, in any request order.  The block_size = 0 lesion stays
// scalar, on heaps.

#ifndef MIPS_CORE_MAXIMUS_H_
#define MIPS_CORE_MAXIMUS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "solvers/solver.h"
#include "topk/score_select.h"

namespace mips {

/// MAXIMUS parameters (paper defaults: B = 4096, |C| = 8, i = 3).
struct MaximusOptions {
  Index num_clusters = 8;
  int kmeans_iterations = 3;
  /// Items covered by the shared per-cluster GEMM.  -1 = auto: |I|/8
  /// clamped to [64, 4096] — the paper's B = 4096 assumes full-scale item
  /// catalogs (17K-1M items); at down-scaled sizes a fixed 4096 would cover
  /// the whole catalog and degenerate MAXIMUS into BMM.  0 disables
  /// blocking (the Figure 8 lesion); > 0 is an explicit block size.
  Index block_size = -1;
  /// Use spherical k-means instead of plain k-means (Section III-A study).
  bool spherical_clustering = false;
  uint64_t seed = 42;
};

/// The MAXIMUS exact MIPS index.
class MaximusSolver : public MipsSolver {
 public:
  explicit MaximusSolver(const MaximusOptions& options = {})
      : options_(options) {}

  std::string name() const override { return "maximus"; }
  bool batches_users() const override { return true; }

  /// Average number of item-list positions visited per user in the last
  /// query batch (the w-bar of the Section III-D runtime analysis).
  /// Under concurrent queries this reflects whichever batch finished last.
  double mean_items_visited() const {
    return mean_items_visited_.load(std::memory_order_relaxed);
  }

  /// Cluster-wide max user-centroid angles theta_b (per cluster).
  const std::vector<Real>& theta_b() const { return theta_b_; }

  /// The clustering produced during Prepare.
  const Clustering& clustering() const { return clustering_; }

  /// Assigns an unseen user vector to its nearest centroid and returns the
  /// cluster id — where a new vector starts its walk (Section III-E).
  Index AssignNewUser(const Real* user) const;

 protected:
  Status Build() override;
  /// Prepared users walk their k-means cluster with slack 0, new vectors
  /// their nearest centroid's with their own slack.  A masked item is
  /// walked past, never offered: its bound still counts for the stop.
  Status Query(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;

 private:
  struct ClusterList {
    std::vector<Index> item_ids;   // items sorted by descending bound
    std::vector<Real> bounds;      // the sorted Equation-3 bounds
    PackedItems block;             // first min(B, n) item vectors, packed
  };

  MaximusOptions options_;

  Clustering clustering_;
  std::vector<Real> theta_b_;
  std::vector<ClusterList> lists_;
  /// The largest item norm: a new user's slack per radian outside its
  /// cluster's cone.
  Real max_item_norm_ = 0;

  std::atomic<double> mean_items_visited_{0};
};

}  // namespace mips

#endif  // MIPS_CORE_MAXIMUS_H_
