#include "solvers/lemp/lemp.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>

#include "common/timer.h"
#include "linalg/blas.h"
#include "solvers/registry.h"
#include "topk/topk_heap.h"

namespace mips {

using lemp::Bucket;
using lemp::BucketAlgorithm;

namespace {

// Per-user scratch for incremental pruning: the user's suffix norms at the
// shared checkpoint dimensions.
struct UserScratch {
  std::vector<Real> suffix_norms;

  void Compute(const Real* user, Index f,
               const std::vector<Index>& checkpoints) {
    suffix_norms.resize(checkpoints.size());
    for (std::size_t c = 0; c < checkpoints.size(); ++c) {
      const Index start = checkpoints[c];
      suffix_norms[c] = Nrm2(user + start, f - start);
    }
  }
};

// Scans one bucket for `user` with `algorithm` into `heap`: the kCoord
// whole-bucket skip, then the norm-ordered scan (length pruning unless
// kNaive, Cauchy-Schwarz incremental pruning under kIncremental).  The one
// bucket scan: queries serve through it and calibration times it.  An
// item the mask names is passed over before it is scored.
// Returns the number of item positions scanned.  All pruning is strict
// (`< MinScore()`, not `<=`): a bound equal to the heap minimum can belong
// to a score that ties it, and the tied item must reach Push so the lower
// item id wins deterministically (topk_heap.h).
Index ScanBucket(const lemp::SortedItems& sorted, const Bucket& bucket,
                 BucketAlgorithm algorithm, const Real* user, Real user_norm,
                 const UserScratch& scratch, const ItemMask& mask,
                 TopKHeap* heap) {
  const Index f = sorted.vectors.cols();
  const Index ncp = static_cast<Index>(sorted.checkpoint_dims.size());
  // Coordinate-range prune: may skip this bucket entirely (but not the
  // later ones — the coordinate bound is not monotone across buckets).
  if (algorithm == BucketAlgorithm::kCoord && heap->full() &&
      CoordBucketBound(user, bucket, f) < heap->MinScore()) {
    return 0;
  }
  Index scanned = 0;
  for (Index pos = bucket.begin; pos < bucket.end; ++pos) {
    const Real norm = sorted.norms[static_cast<std::size_t>(pos)];
    if (algorithm != BucketAlgorithm::kNaive && heap->full() &&
        norm * user_norm < heap->MinScore()) {
      // Items are norm-sorted inside the bucket too: nothing later in
      // this bucket can qualify.
      break;
    }
    ++scanned;
    const Real* v = sorted.vectors.Row(pos);
    const Index id = sorted.ids[static_cast<std::size_t>(pos)];
    if (mask.Contains(id)) continue;

    if (algorithm == BucketAlgorithm::kIncremental && heap->full()) {
      // Partial inner products with Cauchy-Schwarz tail bounds, for
      // pruning only: a survivor is scored below with one Dot, like an
      // item reached before the heap filled (see lemp.h).
      Real partial = 0;
      Index start = 0;
      bool pruned = false;
      for (Index c = 0; c < ncp; ++c) {
        const Index dim = sorted.checkpoint_dims[static_cast<std::size_t>(c)];
        partial += Dot(user + start, v + start, dim - start);
        start = dim;
        const Real tail =
            scratch.suffix_norms[static_cast<std::size_t>(c)] *
            sorted.suffix_norms[static_cast<std::size_t>(pos) * ncp + c];
        if (partial + tail < heap->MinScore()) {
          pruned = true;
          break;
        }
      }
      if (pruned) continue;
    }
    heap->Push(id, Dot(user, v, f));
  }
  return scanned;
}

}  // namespace

Status LempSolver::Build() {
  if (items_.rows() <= 0) {
    return Status::InvalidArgument("item set is empty");
  }

  WallTimer timer;
  sorted_ = lemp::SortItemsByNorm(items_, options_.num_checkpoints);
  Index bucket_size = options_.bucket_size;
  if (bucket_size <= 0) {
    bucket_size = std::clamp<Index>(items_.rows() / 64, 64, 1024);
  }
  buckets_ = lemp::MakeBuckets(sorted_, bucket_size);
  {
    MutexLock lock(calibration_mu_);
    algorithms_by_k_.clear();
  }
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Index LempSolver::QueryOneUser(
    const Real* user, Real user_norm, Index k,
    const std::vector<BucketAlgorithm>& algorithms, const ItemMask& mask,
    TopKEntry* out_row) const {
  TopKHeap heap(k);
  UserScratch scratch;
  scratch.Compute(user, items_.cols(), sorted_.checkpoint_dims);

  Index scanned = 0;
  for (std::size_t bi = 0; bi < buckets_.size(); ++bi) {
    const Bucket& bucket = buckets_[bi];
    // Bucket-level termination: every item here (and in all later buckets)
    // has norm <= max_norm, so u.i <= ||u|| * max_norm.
    if (heap.full() && bucket.max_norm * user_norm < heap.MinScore()) break;
    scanned += ScanBucket(sorted_, bucket, algorithms[bi], user, user_norm,
                          scratch, mask, &heap);
  }
  heap.ExtractDescending(out_row);
  return scanned;
}

std::vector<BucketAlgorithm> LempSolver::Calibrate(
    Index k, const QueryRows& rows) const {
  const std::size_t num_buckets = buckets_.size();
  // Accumulated cost and trial count per (bucket, algorithm).
  std::vector<double> cost(num_buckets * lemp::kNumBucketAlgorithms, 0.0);
  std::vector<int> trials(num_buckets * lemp::kNumBucketAlgorithms, 0);

  const Index sample = std::min<Index>(options_.calibration_users, rows.size);
  const Index f = items_.cols();
  std::vector<TopKEntry> row(static_cast<std::size_t>(k));

  for (Index s = 0; s < sample; ++s) {
    // Spread calibration rows across the query batch.
    const Index idx = static_cast<Index>(static_cast<int64_t>(s) *
                                         rows.size / sample);
    const Real* user = rows.Row(idx, f);
    const Real user_norm = Nrm2(user, f);
    UserScratch scratch;
    scratch.Compute(user, f, sorted_.checkpoint_dims);

    for (int a = 0; a < lemp::kNumBucketAlgorithms; ++a) {
      const auto algorithm = static_cast<BucketAlgorithm>(a);
      TopKHeap heap(k);
      for (std::size_t bi = 0; bi < num_buckets; ++bi) {
        const Bucket& bucket = buckets_[bi];
        if (heap.full() && bucket.max_norm * user_norm < heap.MinScore()) {
          break;
        }
        WallTimer bucket_timer;
        ScanBucket(sorted_, bucket, algorithm, user, user_norm, scratch,
                   /*mask=*/{}, &heap);
        const std::size_t slot = bi * lemp::kNumBucketAlgorithms +
                                 static_cast<std::size_t>(a);
        // mips-tidy: allow(float-accumulation): cost-model timing, not a
        // score.
        cost[slot] += bucket_timer.Seconds();
        ++trials[slot];
      }
      heap.ExtractDescending(row.data());
    }
  }

  // Buckets no calibration user reached keep the incremental default.
  std::vector<BucketAlgorithm> algorithms(num_buckets,
                                          BucketAlgorithm::kIncremental);
  for (std::size_t bi = 0; bi < num_buckets; ++bi) {
    double best_cost = std::numeric_limits<double>::max();
    for (int a = 0; a < lemp::kNumBucketAlgorithms; ++a) {
      const std::size_t slot =
          bi * lemp::kNumBucketAlgorithms + static_cast<std::size_t>(a);
      if (trials[slot] == 0) continue;
      const double mean = cost[slot] / trials[slot];
      if (mean < best_cost) {
        best_cost = mean;
        algorithms[bi] = static_cast<BucketAlgorithm>(a);
      }
    }
  }
  return algorithms;
}

Status LempSolver::Query(Index k, const QueryRows& rows, const ItemMask& mask,
                         TopKResult* out) {
  const Index q = rows.size;

  // Calibrate each distinct k once (under the lock, cached like the
  // engine's per-k winner), then query on a snapshot so a concurrent
  // batch at another k cannot mutate the table mid-scan.  Every bucket
  // algorithm is exact; calibration only tunes pruning cost.
  std::vector<BucketAlgorithm> algorithms;
  if (options_.forced_algorithm >= 0) {
    algorithms.assign(buckets_.size(),
                      static_cast<BucketAlgorithm>(options_.forced_algorithm));
  } else {
    MutexLock lock(calibration_mu_);
    auto it = algorithms_by_k_.find(k);
    if (it == algorithms_by_k_.end()) {
      WallTimer timer;
      it = algorithms_by_k_.emplace(k, Calibrate(k, rows)).first;
      stage_timer_.Add("calibration", timer.Seconds());
    }
    algorithms = it->second;
  }

  const Index f = items_.cols();
  std::atomic<int64_t> total_scanned{0};
  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    int64_t scanned = 0;
    for (int64_t r = begin; r < end; ++r) {
      const Real* user = rows.Row(static_cast<Index>(r), f);
      const Real user_norm = Nrm2(user, f);
      scanned += QueryOneUser(user, user_norm, k, algorithms, mask,
                              out->Row(static_cast<Index>(r)));
    }
    total_scanned.fetch_add(scanned, std::memory_order_relaxed);
  });
  last_scan_fraction_.store(
      static_cast<double>(total_scanned.load()) /
          (static_cast<double>(q) * static_cast<double>(items_.rows())),
      std::memory_order_relaxed);
  return Status::OK();
}

namespace {

const SolverRegistrar kLempRegistrar(
    SolverSchema("lemp", "LEMP-LI bucketed point-query index (SIGMOD'15)")
        .Int("bucket_size", LempOptions{}.bucket_size,
             "items per bucket (0 = auto: n/64 in [64, 1024])")
        .Int("calibration_users", LempOptions{}.calibration_users,
             "users used to calibrate the per-bucket algorithm choice")
        .Int("num_checkpoints", LempOptions{}.num_checkpoints,
             "incremental-pruning checkpoints per vector")
        .Int("forced_algorithm", LempOptions{}.forced_algorithm,
             "fix every bucket to one algorithm 0..3 (-1 = adaptive)"),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      LempOptions options;
      auto bucket_size = params.GetIndexChecked("bucket_size");
      MIPS_RETURN_IF_ERROR(bucket_size.status());
      auto calibration_users = params.GetIndexChecked("calibration_users");
      MIPS_RETURN_IF_ERROR(calibration_users.status());
      auto num_checkpoints = params.GetIndexChecked("num_checkpoints");
      MIPS_RETURN_IF_ERROR(num_checkpoints.status());
      auto forced = params.GetIndexChecked("forced_algorithm");
      MIPS_RETURN_IF_ERROR(forced.status());
      if (*bucket_size < 0) {
        return Status::InvalidArgument("bucket_size must be >= 0");
      }
      if (*calibration_users <= 0) {
        return Status::InvalidArgument("calibration_users must be positive");
      }
      if (*num_checkpoints <= 0) {
        return Status::InvalidArgument("num_checkpoints must be positive");
      }
      if (*forced < -1 || *forced > 3) {
        return Status::InvalidArgument("forced_algorithm must be in [-1, 3]");
      }
      options.bucket_size = *bucket_size;
      options.calibration_users = *calibration_users;
      options.num_checkpoints = *num_checkpoints;
      options.forced_algorithm = static_cast<int>(*forced);
      return std::unique_ptr<MipsSolver>(new LempSolver(options));
    });

}  // namespace

}  // namespace mips
