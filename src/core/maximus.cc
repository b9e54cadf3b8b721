#include "core/maximus.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "cluster/spherical.h"
#include "common/dcheck.h"
#include "common/timer.h"
#include "core/cbound.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "solvers/registry.h"
#include "topk/score_select.h"
#include "topk/topk_heap.h"

namespace mips {

Status MaximusSolver::Build() {
  if (users_.rows() <= 0 || items_.rows() <= 0) {
    return Status::InvalidArgument("user and item sets must be non-empty");
  }

  // --- Stage 1: cluster users (Section III-A). ---
  {
    WallTimer timer;
    KMeansOptions kopts;
    kopts.num_clusters = options_.num_clusters;
    kopts.max_iterations = options_.kmeans_iterations;
    kopts.seed = options_.seed;
    const Status st =
        options_.spherical_clustering
            ? SphericalKMeans(users_, kopts, &clustering_)
            : KMeans(users_, kopts, &clustering_);
    MIPS_RETURN_IF_ERROR(st);
    stage_timer_.Add("clustering", timer.Seconds());
  }

  // --- Stage 2: construct the per-cluster sorted lists (Section III-B). ---
  WallTimer timer;
  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index num_clusters = clustering_.centroids.rows();

  std::vector<Real> item_norms(static_cast<std::size_t>(n));
  RowNorms(items_.data(), n, f, item_norms.data());
  max_item_norm_ = *std::max_element(item_norms.begin(), item_norms.end());

  std::vector<Real> centroid_norms(static_cast<std::size_t>(num_clusters));
  for (Index j = 0; j < num_clusters; ++j) {
    centroid_norms[static_cast<std::size_t>(j)] =
        Nrm2(clustering_.centroids.Row(j), f);
  }

  // theta_b per cluster: the widest member angle (Algorithm 1), in one
  // pass over the users, with each centroid's norm computed once.
  theta_b_.assign(static_cast<std::size_t>(num_clusters), 0);
  for (Index u = 0; u < users_.rows(); ++u) {
    const Index j = clustering_.assignment[static_cast<std::size_t>(u)];
    const Real cos =
        CosineSimilarity(users_.Row(u), clustering_.centroids.Row(j), f,
                         centroid_norms[static_cast<std::size_t>(j)]);
    Real& theta_b = theta_b_[static_cast<std::size_t>(j)];
    theta_b = std::max(theta_b, AngleFromCosine(cos));
  }

  // One GEMM gives every item-centroid inner product.
  Matrix centroid_scores;
  GemmNT(items_, ConstRowBlock(clustering_.centroids), &centroid_scores);

  lists_ = std::vector<ClusterList>(static_cast<std::size_t>(num_clusters));
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

    // Shared item block for the first B list entries (Section III-D),
    // packed for the GEMM micro-kernel.
    Index block_size = options_.block_size;
    if (block_size < 0) {
      block_size = std::clamp<Index>(n / 8, 64, 4096);  // auto
    }
    const Index b_eff = std::min<Index>(block_size, n);
    if (b_eff > 0) {
      list.block.Pack(items_.data(), list.item_ids.data(), b_eff, f);
    }
  }
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Index MaximusSolver::AssignNewUser(const Real* user) const {
  return AssignToNearest(user, clustering_.centroids);
}

Status MaximusSolver::Query(Index k, const QueryRows& rows,
                            const ItemMask& mask, TopKResult* out) {
  WallTimer traversal_timer;
  const Index q = rows.size;
  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index num_clusters = static_cast<Index>(lists_.size());
  std::atomic<int64_t> total_visited{0};

  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    // Group this chunk's rows by cluster so the shared block GEMM can
    // amortize across cluster members.  A prepared user walks its k-means
    // cluster; a new vector walks its nearest centroid's (Section III-E).
    std::vector<std::vector<int64_t>> by_cluster(
        static_cast<std::size_t>(num_clusters));
    for (int64_t r = begin; r < end; ++r) {
      const Index j =
          rows.ids != nullptr
              ? clustering_.assignment[static_cast<std::size_t>(rows.ids[r])]
              : AssignNewUser(rows.Row(static_cast<Index>(r), f));
      by_cluster[static_cast<std::size_t>(j)].push_back(r);
    }

    int64_t visited_acc = 0;
    Matrix normalized;
    PackedItems segment;
    for (Index j = 0; j < num_clusters; ++j) {
      const auto& members = by_cluster[static_cast<std::size_t>(j)];
      if (members.empty()) continue;
      const ClusterList& list = lists_[static_cast<std::size_t>(j)];
      const Index m = static_cast<Index>(members.size());
      const Index block = list.block.rows();

      // Gather + normalize this cluster's rows.  A new vector may sit
      // outside the cluster's theta_b cone.  CBound is Lipschitz in the
      // angle with constant ||i||, so widening the cone by delta inflates
      // every bound by at most max_item_norm * delta; that slack on the
      // row's bounds keeps its stop exact.  A prepared user's is 0.
      const Real theta_b = theta_b_[static_cast<std::size_t>(j)];
      normalized.Resize(m, f);
      std::vector<Real> user_norms(static_cast<std::size_t>(m));
      std::vector<Real> slack(static_cast<std::size_t>(m), 0);
      for (Index r = 0; r < m; ++r) {
        std::memcpy(normalized.Row(r),
                    rows.Row(static_cast<Index>(
                                 members[static_cast<std::size_t>(r)]),
                             f),
                    static_cast<std::size_t>(f) * sizeof(Real));
        const Real norm = Nrm2(normalized.Row(r), f);
        user_norms[static_cast<std::size_t>(r)] = norm;
        if (norm > 0) Scale(Real{1} / norm, normalized.Row(r), f);
        if (rows.ids == nullptr) {
          const Real theta_uc = AngleFromCosine(CosineSimilarity(
              normalized.Row(r), clustering_.centroids.Row(j), f));
          slack[static_cast<std::size_t>(r)] =
              max_item_norm_ * std::max(Real{0}, theta_uc - theta_b);
        }
      }

      std::vector<int64_t> visited(static_cast<std::size_t>(m), 0);
      const auto out_row = [&](Index r) {
        return out->Row(
            static_cast<Index>(members[static_cast<std::size_t>(r)]));
      };

      if (block <= 0) {
        // Lesion path (item blocking disabled): scalar walk per user.
        for (Index r = 0; r < m; ++r) {
          const Real* nu = normalized.Row(r);
          const Real s = slack[static_cast<std::size_t>(r)];
          TopKHeap heap(k);
          for (Index pos = 0; pos < n; ++pos) {
            // Strict prune (`<`, not `<=`): a bound equal to the heap
            // minimum can cover a tied score, and the tied item must
            // reach Push for the id tie-break (topk_heap.h).
            if (heap.full() &&
                list.bounds[static_cast<std::size_t>(pos)] + s <
                    heap.MinScore()) {
              break;
            }
            const Index id = list.item_ids[static_cast<std::size_t>(pos)];
            ++visited[static_cast<std::size_t>(r)];
            if (!mask.Contains(id)) heap.Push(id, Dot(nu, items_.Row(id), f));
          }
          heap.ExtractDescending(out_row(r));
        }
      } else {
        // Progressive item blocking (Section III-D, extended): score the
        // list in B-item segments with one shared GEMM per segment over
        // the users still walking (rows `active` of `normalized`), so
        // even deep walks stay on the blocked kernel instead of degrading
        // to scalar gather-dots.  The first segment was packed at
        // construction.  Before a later one, the walkers are regrouped in
        // order of their thresholds, so that the four users of a register
        // tile stop near each other, and the segment is gathered into
        // packed form only through the first position whose bound plus
        // the largest walker slack is below the lowest threshold: every
        // walker stops there at the latest, since thresholds only rise
        // and the bounds descend.
        BoundedWalk walk(m, k, f, slack.data(), mask);
        std::vector<Index> active(static_cast<std::size_t>(m));
        std::iota(active.begin(), active.end(), 0);
        std::vector<std::pair<Real, Index>> by_threshold;
        std::vector<Index> walked;

        for (Index pos0 = 0; pos0 < n && !active.empty(); pos0 += block) {
          const Index len = std::min<Index>(block, n - pos0);
          const Real* bounds = list.bounds.data() + pos0;
          Index reach = len;
          if (pos0 > 0) {
            by_threshold.clear();
            Real widest = 0;
            for (const Index r : active) {
              by_threshold.emplace_back(walk.Threshold(r), r);
              widest = std::max(widest, slack[static_cast<std::size_t>(r)]);
            }
            std::sort(by_threshold.begin(), by_threshold.end());
            for (std::size_t a = 0; a < active.size(); ++a) {
              active[a] = by_threshold[a].second;
            }
            const Real lowest = by_threshold.front().first;
            const auto walks_on = [lowest, widest](Real b) {
              return !(b + widest < lowest);
            };
            const Real* below =
                std::partition_point(bounds, bounds + len, walks_on);
            reach = std::min(len, static_cast<Index>(below - bounds) + 1);
            segment.Pack(items_.data(), list.item_ids.data() + pos0, reach, f);
          }
          walked.resize(active.size());
          walk.Score(normalized.data(), active,
                     pos0 == 0 ? list.block : segment,
                     list.item_ids.data() + pos0, bounds, walked.data());

          // A row that walked the whole segment goes on to the next one.
          std::size_t still_active = 0;
          for (std::size_t a = 0; a < active.size(); ++a) {
            const Index r = active[a];
            MIPS_DCHECK(reach == len || walked[a] < reach);
            visited[static_cast<std::size_t>(r)] += walked[a];
            if (walked[a] == len && pos0 + len < n) {
              active[still_active++] = r;
            }
          }
          active.resize(still_active);
        }
        for (Index r = 0; r < m; ++r) walk.Write(r, out_row(r));
      }

      for (Index r = 0; r < m; ++r) {
        visited_acc += visited[static_cast<std::size_t>(r)];
        // Rescale normalized scores to true inner products.
        TopKEntry* entries = out_row(r);
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
