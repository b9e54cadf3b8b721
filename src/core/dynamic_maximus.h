// Dynamic user maintenance for MAXIMUS — the paper's stated future work.
//
// Section III-E: new users can be served exactly by assigning them to the
// nearest existing centroid, but "the churn in new users may reach a
// critical mass ... periodically scheduling new rounds of user clustering
// to update the centroids is an interesting research question, which we
// leave as future work."  DynamicMaximus implements the obvious policy:
//
//   * AddUser() appends the vector and serves it through the dynamic-user
//     walk (exact, with the Lipschitz bound-widening slack).
//   * When accumulated churn exceeds `recluster_churn_fraction` of the
//     indexed population, the index is rebuilt over ALL users — new users
//     become first-class members, theta_b re-tightens, and their queries
//     return to the fast static path.
//
// Every query remains exact at every point in this lifecycle; what churn
// degrades (and re-clustering restores) is pruning efficiency, which the
// tests and the ablation bench measure via mean_items_visited().

#ifndef MIPS_CORE_DYNAMIC_MAXIMUS_H_
#define MIPS_CORE_DYNAMIC_MAXIMUS_H_

#include <memory>

#include "core/maximus.h"

namespace mips {

/// Options for the dynamic wrapper.
struct DynamicMaximusOptions {
  MaximusOptions base;
  /// Rebuild the index when added-since-last-build exceeds this fraction
  /// of the indexed user count.  <= 0 disables automatic re-clustering.
  double recluster_churn_fraction = 0.2;
};

/// A MAXIMUS index that accepts user churn.
class DynamicMaximus {
 public:
  explicit DynamicMaximus(const DynamicMaximusOptions& options = {})
      : options_(options) {}

  /// Builds the initial index.  The item view must outlive the object;
  /// the initial users are copied so the population can grow.
  Status Initialize(const ConstRowBlock& initial_users,
                    const ConstRowBlock& items);

  /// Appends a new user (vector of num_factors()).  Returns its user id.
  /// May trigger a re-clustering (see options).
  StatusOr<Index> AddUser(const Real* vector);

  /// Exact top-K for any user id (initial or added).
  Status TopKForUser(Index user_id, Index k, TopKEntry* out_row) const;

  /// Batch exact top-K for a mix of indexed and pending user ids:
  /// indexed members go through the inner index's blocked path in one
  /// call, pending users fall back to the dynamic walk.
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) const;

  /// Exact top-K for every current user.
  Status TopKAll(Index k, TopKResult* out);

  /// Forces an immediate rebuild over all current users.
  Status Recluster();

  Index num_users() const { return count_; }
  Index num_factors() const { return users_.cols(); }
  /// Users appended since the last (re)build.
  Index pending_users() const { return count_ - indexed_count_; }
  /// Number of re-clustering rounds performed (excluding Initialize).
  int recluster_rounds() const { return recluster_rounds_; }

  const MaximusSolver& index() const { return *index_; }

 private:
  Status Rebuild();

  DynamicMaximusOptions options_;
  ConstRowBlock items_;
  /// Owned, capacity-doubling user storage; rows [0, count_) are live.
  Matrix users_;
  Index count_ = 0;
  /// Users covered by the current index build.
  Index indexed_count_ = 0;
  int recluster_rounds_ = -1;  // Initialize() brings this to 0
  std::unique_ptr<MaximusSolver> index_;
};

}  // namespace mips

#endif  // MIPS_CORE_DYNAMIC_MAXIMUS_H_
