#include "core/maximus.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>

#include "cluster/spherical.h"
#include "common/timer.h"
#include "core/cbound.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "solvers/registry.h"
#include "topk/score_select.h"
#include "topk/topk_heap.h"

namespace mips {

Status MaximusSolver::Prepare(const ConstRowBlock& users,
                              const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  if (users.rows() <= 0 || items.rows() <= 0) {
    return Status::InvalidArgument("user and item sets must be non-empty");
  }
  users_ = users;
  items_ = items;
  prepared_users_ = users.rows();

  // --- Stage 1: cluster users (Section III-A). ---
  {
    WallTimer timer;
    KMeansOptions kopts;
    kopts.num_clusters = options_.num_clusters;
    kopts.max_iterations = options_.kmeans_iterations;
    kopts.seed = options_.seed;
    const Status st =
        options_.spherical_clustering
            ? SphericalKMeans(users, kopts, &clustering_)
            : KMeans(users, kopts, &clustering_);
    MIPS_RETURN_IF_ERROR(st);
    stage_timer_.Add("clustering", timer.Seconds());
  }

  // --- Stage 2: construct the per-cluster sorted lists (Section III-B). ---
  WallTimer timer;
  const Index n = items.rows();
  const Index f = items.cols();
  const Index num_clusters = clustering_.centroids.rows();

  std::vector<Real> item_norms(static_cast<std::size_t>(n));
  RowNorms(items.data(), n, f, item_norms.data());
  max_item_norm_ = *std::max_element(item_norms.begin(), item_norms.end());

  // theta_b per cluster: the widest member angle (Algorithm 1).
  theta_b_.assign(static_cast<std::size_t>(num_clusters), 0);
  for (Index j = 0; j < num_clusters; ++j) {
    Real max_angle = 0;
    for (const Index u : clustering_.members[static_cast<std::size_t>(j)]) {
      const Real cos = CosineSimilarity(users.Row(u),
                                        clustering_.centroids.Row(j), f);
      max_angle = std::max(max_angle, AngleFromCosine(cos));
    }
    theta_b_[static_cast<std::size_t>(j)] = max_angle;
  }

  // One GEMM gives every item-centroid inner product.
  Matrix centroid_scores;
  GemmNT(items, ConstRowBlock(clustering_.centroids), &centroid_scores);
  std::vector<Real> centroid_norms(static_cast<std::size_t>(num_clusters));
  for (Index j = 0; j < num_clusters; ++j) {
    centroid_norms[static_cast<std::size_t>(j)] =
        Nrm2(clustering_.centroids.Row(j), f);
  }

  lists_.assign(static_cast<std::size_t>(num_clusters), {});
  for (Index j = 0; j < num_clusters; ++j) {
    ClusterList& list = lists_[static_cast<std::size_t>(j)];
    const Real theta_b = theta_b_[static_cast<std::size_t>(j)];
    const Real c_norm = centroid_norms[static_cast<std::size_t>(j)];

    std::vector<Real> bound(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      const Real norm = item_norms[static_cast<std::size_t>(i)];
      const Real denom = norm * c_norm;
      const Real cos_ic =
          denom > 0 ? centroid_scores(i, j) / denom : Real{0};
      const Real theta_ic = AngleFromCosine(cos_ic);
      bound[static_cast<std::size_t>(i)] = CBound(norm, theta_ic, theta_b);
    }

    list.item_ids.resize(static_cast<std::size_t>(n));
    std::iota(list.item_ids.begin(), list.item_ids.end(), 0);
    std::stable_sort(list.item_ids.begin(), list.item_ids.end(),
                     [&](Index a, Index b) {
                       return bound[static_cast<std::size_t>(a)] >
                              bound[static_cast<std::size_t>(b)];
                     });
    list.bounds.resize(static_cast<std::size_t>(n));
    for (Index pos = 0; pos < n; ++pos) {
      list.bounds[static_cast<std::size_t>(pos)] =
          bound[static_cast<std::size_t>(list.item_ids[static_cast<std::size_t>(pos)])];
    }

    // Shared item block for the first B list entries (Section III-D).
    Index block_size = options_.block_size;
    if (block_size < 0) {
      block_size = std::clamp<Index>(n / 8, 64, 4096);  // auto
    }
    const Index b_eff = std::min<Index>(block_size, n);
    if (b_eff > 0) {
      list.block.Resize(b_eff, f);
      for (Index pos = 0; pos < b_eff; ++pos) {
        std::memcpy(list.block.Row(pos),
                    items.Row(list.item_ids[static_cast<std::size_t>(pos)]),
                    static_cast<std::size_t>(f) * sizeof(Real));
      }
    }
  }
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Status MaximusSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                                   TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (lists_.empty()) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  WallTimer traversal_timer;
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  if (q == 0) return Status::OK();

  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index num_clusters = static_cast<Index>(lists_.size());
  std::atomic<int64_t> total_visited{0};

  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    // Group this chunk's queries by cluster so the shared block GEMM can
    // amortize across cluster members.
    std::vector<std::vector<int64_t>> by_cluster(
        static_cast<std::size_t>(num_clusters));
    for (int64_t r = begin; r < end; ++r) {
      const Index u = user_ids[static_cast<std::size_t>(r)];
      by_cluster[static_cast<std::size_t>(
                     clustering_.assignment[static_cast<std::size_t>(u)])]
          .push_back(r);
    }

    int64_t visited_acc = 0;
    Matrix normalized;
    Matrix segment;
    for (Index j = 0; j < num_clusters; ++j) {
      const auto& rows = by_cluster[static_cast<std::size_t>(j)];
      if (rows.empty()) continue;
      const ClusterList& list = lists_[static_cast<std::size_t>(j)];
      const Index m = static_cast<Index>(rows.size());
      const Index block = list.block.rows();

      // Gather + normalize this cluster's queried users.
      normalized.Resize(m, f);
      std::vector<Real> user_norms(static_cast<std::size_t>(m));
      for (Index r = 0; r < m; ++r) {
        const Index u = user_ids[static_cast<std::size_t>(rows[static_cast<std::size_t>(r)])];
        std::memcpy(normalized.Row(r), users_.Row(u),
                    static_cast<std::size_t>(f) * sizeof(Real));
        const Real norm = Nrm2(normalized.Row(r), f);
        user_norms[static_cast<std::size_t>(r)] = norm;
        if (norm > 0) Scale(Real{1} / norm, normalized.Row(r), f);
      }

      std::vector<TopKHeap> heaps(static_cast<std::size_t>(m), TopKHeap(k));
      std::vector<int64_t> visited(static_cast<std::size_t>(m), 0);

      if (block <= 0) {
        // Lesion path (item blocking disabled): scalar walk per user.
        for (Index r = 0; r < m; ++r) {
          const Real* nu = normalized.Row(r);
          TopKHeap& heap = heaps[static_cast<std::size_t>(r)];
          for (Index pos = 0; pos < n; ++pos) {
            // Strict prune (`<`, not `<=`): a bound equal to the heap
            // minimum can cover a tied score, and the tied item must
            // reach Push for the id tie-break (topk_heap.h).
            if (heap.full() &&
                list.bounds[static_cast<std::size_t>(pos)] <
                    heap.MinScore()) {
              break;
            }
            const Index id = list.item_ids[static_cast<std::size_t>(pos)];
            heap.Push(id, Dot(nu, items_.Row(id), f));
            ++visited[static_cast<std::size_t>(r)];
          }
        }
      } else {
        // Progressive item blocking (Section III-D, extended): score the
        // list in B-item segments with one shared GEMM per segment over
        // the users still active, so even deep walks stay on the blocked
        // kernel instead of degrading to scalar gather-dots.  The first
        // segment's item block is pre-gathered at construction time.
        std::vector<Index> active(static_cast<std::size_t>(m));
        std::iota(active.begin(), active.end(), 0);
        // The normalized rows of the users still walking: all of them
        // until one stops, then a compacted copy.
        const Real* active_users = normalized.data();
        Matrix compacted;
        std::vector<TopKHeap*> active_heaps;
        std::vector<Index> walked;

        for (Index pos0 = 0; pos0 < n && !active.empty(); pos0 += block) {
          const Index len = std::min<Index>(block, n - pos0);
          const Matrix* items_block;
          if (pos0 == 0) {
            items_block = &list.block;
          } else {
            segment.Resize(len, f);
            for (Index p = 0; p < len; ++p) {
              std::memcpy(
                  segment.Row(p),
                  items_.Row(list.item_ids[static_cast<std::size_t>(pos0 + p)]),
                  static_cast<std::size_t>(f) * sizeof(Real));
            }
            items_block = &segment;
          }
          active_heaps.clear();
          for (const Index r : active) {
            active_heaps.push_back(&heaps[static_cast<std::size_t>(r)]);
          }
          walked.resize(active.size());
          ScoreIntoHeaps(active_users, static_cast<Index>(active.size()),
                         items_block->data(), len, f, /*item_offset=*/0,
                         list.item_ids.data() + pos0,
                         list.bounds.data() + pos0, active_heaps,
                         walked.data());

          // A row that walked the whole segment goes on to the next one.
          std::vector<Index> still_active;
          still_active.reserve(active.size());
          for (std::size_t a = 0; a < active.size(); ++a) {
            const Index r = active[a];
            visited[static_cast<std::size_t>(r)] += walked[a];
            if (walked[a] == len && pos0 + len < n) still_active.push_back(r);
          }

          if (still_active.size() != active.size()) {
            // Compact the active user rows for the next segment's GEMM.
            compacted.Resize(static_cast<Index>(still_active.size()), f);
            for (std::size_t a = 0; a < still_active.size(); ++a) {
              std::memcpy(compacted.Row(static_cast<Index>(a)),
                          normalized.Row(still_active[a]),
                          static_cast<std::size_t>(f) * sizeof(Real));
            }
            active_users = compacted.data();
          }
          active = std::move(still_active);
        }
      }

      for (Index r = 0; r < m; ++r) {
        visited_acc += visited[static_cast<std::size_t>(r)];
        const int64_t out_row = rows[static_cast<std::size_t>(r)];
        TopKEntry* entries = out->Row(static_cast<Index>(out_row));
        heaps[static_cast<std::size_t>(r)].ExtractDescending(entries);
        // Rescale normalized scores to true inner products.
        const Real norm = user_norms[static_cast<std::size_t>(r)];
        for (Index e = 0; e < k; ++e) {
          if (entries[e].item >= 0) entries[e].score *= norm;
        }
      }
    }
    total_visited.fetch_add(visited_acc, std::memory_order_relaxed);
  });

  mean_items_visited_.store(
      static_cast<double>(total_visited.load()) / static_cast<double>(q),
      std::memory_order_relaxed);
  stage_timer_.Add("traversal", traversal_timer.Seconds());
  return Status::OK();
}

Index MaximusSolver::AssignNewUser(const Real* user) const {
  return AssignToNearest(user, clustering_.centroids);
}

Status MaximusSolver::TopKNewUsers(const ConstRowBlock& items,
                                   const Real* user_vectors, Index num_rows,
                                   Index k, TopKResult* out) const {
  *out = TopKResult(num_rows, k);
  for (Index r = 0; r < num_rows; ++r) {
    MIPS_RETURN_IF_ERROR(QueryDynamicUser(
        user_vectors + static_cast<std::size_t>(r) * items.cols(), k,
        out->Row(r)));
  }
  return Status::OK();
}

Status MaximusSolver::QueryDynamicUser(const Real* user, Index k,
                                       TopKEntry* out_row) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (lists_.empty()) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index j = AssignNewUser(user);
  const ClusterList& list = lists_[static_cast<std::size_t>(j)];

  // A dynamic user may sit outside the cluster's theta_b cone.  CBound is
  // Lipschitz in the angle with constant ||i||, so widening the cone by
  // delta inflates every bound by at most max_item_norm * delta; adding
  // that slack to the sorted bounds keeps termination exact.
  const Real cos_uc = CosineSimilarity(user, clustering_.centroids.Row(j), f);
  const Real theta_uc = AngleFromCosine(cos_uc);
  const Real delta =
      std::max(Real{0}, theta_uc - theta_b_[static_cast<std::size_t>(j)]);
  const Real slack = max_item_norm_ * delta;

  const Real user_norm = Nrm2(user, f);
  std::vector<Real> nu(static_cast<std::size_t>(f), 0);
  if (user_norm > 0) {
    for (Index d = 0; d < f; ++d) nu[static_cast<std::size_t>(d)] = user[d] / user_norm;
  }

  TopKHeap heap(k);
  const Index seed = std::min<Index>(k, n);
  for (Index pos = 0; pos < seed; ++pos) {
    const Index id = list.item_ids[static_cast<std::size_t>(pos)];
    heap.Push(id, Dot(nu.data(), items_.Row(id), f));
  }
  for (Index pos = seed; pos < n; ++pos) {
    if (list.bounds[static_cast<std::size_t>(pos)] + slack <
        heap.MinScore()) {
      break;
    }
    const Index id = list.item_ids[static_cast<std::size_t>(pos)];
    heap.Push(id, Dot(nu.data(), items_.Row(id), f));
  }
  heap.ExtractDescending(out_row);
  for (Index e = 0; e < k; ++e) {
    if (out_row[e].item >= 0) out_row[e].score *= user_norm;
  }
  return Status::OK();
}

namespace {

const SolverRegistrar kMaximusRegistrar(
    SolverSchema("maximus", "MAXIMUS clustered exact MIPS index (Section III)")
        .Int("clusters", MaximusOptions{}.num_clusters,
             "number of k-means user clusters |C|")
        .Int("iterations", MaximusOptions{}.kmeans_iterations,
             "k-means refinement iterations")
        .Int("block_size", MaximusOptions{}.block_size,
             "items covered by the shared per-cluster GEMM "
             "(-1 = auto, 0 = no blocking)")
        .Bool("spherical", MaximusOptions{}.spherical_clustering,
              "use spherical k-means for the user clustering")
        .Int("seed", static_cast<int64_t>(MaximusOptions{}.seed),
             "clustering RNG seed"),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      auto clusters = params.GetIndexChecked("clusters");
      MIPS_RETURN_IF_ERROR(clusters.status());
      auto iterations = params.GetIndexChecked("iterations");
      MIPS_RETURN_IF_ERROR(iterations.status());
      auto block_size = params.GetIndexChecked("block_size");
      MIPS_RETURN_IF_ERROR(block_size.status());
      if (*clusters <= 0) {
        return Status::InvalidArgument("clusters must be positive");
      }
      if (*iterations < 0) {
        return Status::InvalidArgument("iterations must be >= 0");
      }
      if (*block_size < -1) {
        return Status::InvalidArgument("block_size must be >= -1");
      }
      MaximusOptions options;
      options.num_clusters = *clusters;
      options.kmeans_iterations = static_cast<int>(*iterations);
      options.block_size = *block_size;
      options.spherical_clustering = params.GetBool("spherical");
      options.seed = static_cast<uint64_t>(params.GetInt("seed"));
      return std::unique_ptr<MipsSolver>(new MaximusSolver(options));
    });

}  // namespace

}  // namespace mips
