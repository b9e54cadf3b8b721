// LEMP: fast retrieval of large entries in a matrix product.
//
// Reproduction of the LEMP index (Teflioudi, Gemulla, Mykytiuk, SIGMOD'15;
// extended study TODS'16), the state-of-the-art exact MIPS baseline the
// paper benchmarks as LEMP-LI.  The structure:
//
//   1. Sort items by length, partition into buckets of similar magnitude.
//   2. Per user, walk buckets in descending-length order; terminate when
//      max_norm(bucket) * ||u|| <= min(H) (every later bucket is smaller).
//   3. Inside a bucket, retrieve candidates with one of several algorithms
//      (naive dots / length pruning / incremental Cauchy-Schwarz pruning);
//      LEMP picks the algorithm per bucket by timing each one on up to
//      `calibration_users` users of the first query batch at each k.
//      Under OPTIMUS that first batch is one sampled user (point-query
//      strategies are timed one user per call), so the table is
//      calibrated on that single user and serving then reuses it.
//
// The sample-driven per-bucket adaptivity is deliberately preserved: it is
// what makes LEMP's runtime estimates high-variance under OPTIMUS's user
// sampling (paper Figure 7).

#ifndef MIPS_SOLVERS_LEMP_LEMP_H_
#define MIPS_SOLVERS_LEMP_LEMP_H_

#include <atomic>
#include <map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "solvers/lemp/bucket.h"
#include "solvers/solver.h"

namespace mips {

/// Tuning knobs for the LEMP reproduction.
struct LempOptions {
  /// Items per bucket; 0 = auto (n/64 clamped to [64, 1024]).
  Index bucket_size = 0;
  /// Users used to calibrate the per-bucket algorithm choice.
  Index calibration_users = 48;
  /// Number of incremental-pruning checkpoints per vector.
  Index num_checkpoints = 4;
  /// Fix every bucket to one algorithm (disables adaptivity); used by the
  /// lesion tests.  -1 = adaptive (default); 0..3 = the BucketAlgorithm
  /// enumerators (NAIVE, LENGTH, INCR, COORD).
  int forced_algorithm = -1;
};

/// The LEMP-LI exact MIPS index.
class LempSolver : public MipsSolver {
 public:
  explicit LempSolver(const LempOptions& options = {}) : options_(options) {}

  std::string name() const override { return "lemp"; }
  bool batches_users() const override { return false; }

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

  /// Buckets after Prepare (exposed for tests and the lesion bench).
  const std::vector<lemp::Bucket>& buckets() const { return buckets_; }
  /// Average fraction of items actually scanned over the last query batch
  /// (1.0 = no pruning).  Under concurrent queries this reflects whichever
  /// batch finished last.
  double last_scan_fraction() const {
    return last_scan_fraction_.load(std::memory_order_relaxed);
  }

 private:
  // Runs one user's query; returns the number of item positions scanned.
  Index QueryOneUser(const Real* user, Real user_norm, Index k,
                     const std::vector<lemp::BucketAlgorithm>& algorithms,
                     TopKEntry* out_row) const;

  // Times every bucket algorithm through the serving scan on the
  // calibration users drawn from `user_ids` and returns the fastest one
  // per bucket.
  std::vector<lemp::BucketAlgorithm> Calibrate(
      Index k, std::span<const Index> user_ids) const;

  LempOptions options_;
  ConstRowBlock users_;
  ConstRowBlock items_;
  lemp::SortedItems sorted_;
  std::vector<lemp::Bucket> buckets_;
  /// Lazy per-k calibration state, guarded by calibration_mu_: concurrent
  /// query batches (possibly at different ks) must not observe a
  /// half-written algorithm table, and mixed-k traffic must not thrash —
  /// each k is calibrated once and cached, mirroring the engine's own
  /// per-k winner cache.  Queries run on a snapshot copy, so the choice
  /// only affects pruning cost, never exactness.
  Mutex calibration_mu_;
  std::map<Index, std::vector<lemp::BucketAlgorithm>> algorithms_by_k_
      GUARDED_BY(calibration_mu_);
  mutable std::atomic<double> last_scan_fraction_{0};
};

}  // namespace mips

#endif  // MIPS_SOLVERS_LEMP_LEMP_H_
