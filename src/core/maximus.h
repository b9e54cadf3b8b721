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
// are rescaled by ||u|| (ordering is scale-invariant).
//
// Hardware-efficient item blocking (Section III-D): each cluster list is
// scored in B-item segments for all of the cluster's still-walking
// queried users with one blocked GEMM per segment, sharing work across
// users.  ScoreIntoHeaps (topk/score_select.h) runs each segment's GEMM in
// L2-sized panels and walks every panel row with the SIMD selection scan,
// which stops at the same list position as the scalar bound check.

#ifndef MIPS_CORE_MAXIMUS_H_
#define MIPS_CORE_MAXIMUS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "solvers/solver.h"

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

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

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
  /// cluster id — the Section III-E dynamic-user path.  The bound remains
  /// valid for the new user only if its angle to the centroid is <=
  /// theta_b; QueryDynamicUser handles the general case by widening the
  /// effective bound with the user's own angle.
  Index AssignNewUser(const Real* user) const;

  /// Exact top-K for a user vector that was not part of Prepare's user
  /// set.  Walks the assigned cluster's list with the user-specific
  /// Equation-2 bound (theta_uc in place of theta_b when larger).
  Status QueryDynamicUser(const Real* user, Index k, TopKEntry* out_row) const;

  /// One QueryDynamicUser walk per row: the serving decision said index
  /// probes beat a GEMM at this batch shape.
  Status TopKNewUsers(const ConstRowBlock& items, const Real* user_vectors,
                      Index num_rows, Index k,
                      TopKResult* out) const override;

 private:
  struct ClusterList {
    std::vector<Index> item_ids;   // items sorted by descending bound
    std::vector<Real> bounds;      // the sorted Equation-3 bounds
    Matrix block;                  // first min(B, n) item vectors, gathered
  };

  MaximusOptions options_;
  ConstRowBlock users_;
  ConstRowBlock items_;

  Clustering clustering_;
  std::vector<Real> theta_b_;
  std::vector<ClusterList> lists_;
  /// The largest item norm: the slack rate of a dynamic user's widened
  /// cone (QueryDynamicUser).
  Real max_item_norm_ = 0;

  mutable std::atomic<double> mean_items_visited_{0};
};

}  // namespace mips

#endif  // MIPS_CORE_MAXIMUS_H_
