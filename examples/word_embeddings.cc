// Word embeddings: the GloVe-Twitter scenario from the paper's Table I.
//
// High-dimensional similarity search over a large vocabulary: queries are
// a small set of "words" (user vectors), the catalog is ~20k embedding
// vectors, and we want the exact top inner-product neighbors.  This is
// the items >> users regime, where the best strategy differs from the
// recommender setting — exactly why OPTIMUS exists.
//
// Demonstrates: preset instantiation, per-query (point) serving with a
// non-batching index, and how much accuracy exactness buys over an
// approximate cluster baseline (Koenigstein et al., the paper's Related
// Work), which this file builds from the library's clustering, GEMM,
// top-k and Dot calls.
//
// Build & run:  ./build/examples/word_embeddings

#include <cstdio>
#include <unordered_set>

#include "cluster/spherical.h"
#include "common/timer.h"
#include "core/optimus.h"
#include "data/datasets.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "solvers/bmm.h"
#include "solvers/lemp/lemp.h"
#include "solvers/registry.h"
#include "topk/topk_block.h"

namespace mips {
namespace {

// Approximate cluster top-K: every user receives its centroid's exact
// top-K items, re-scored with the user's own vector.  The ordering can
// differ from the user's true one — that is the approximation.  MAXIMUS
// turns the same clustering into an exact method by bounding how far a
// member can stray from its centroid.
TopKResult ClusterTopK(const Clustering& clustering, const ConstRowBlock& users,
                       const ConstRowBlock& items, Index k) {
  const Index num_clusters = clustering.centroids.rows();
  Matrix centroid_scores;
  GemmNT(ConstRowBlock(clustering.centroids), items, &centroid_scores);
  TopKResult centroid_topk(num_clusters, k);
  TopKFromScoreBlock(centroid_scores.data(), num_clusters, items.rows(),
                     centroid_scores.cols(), k, /*item_offset=*/0,
                     /*item_ids=*/nullptr, &centroid_topk, /*row_offset=*/0);

  TopKResult out(users.rows(), k);
  for (Index u = 0; u < users.rows(); ++u) {
    const Index c = clustering.assignment[static_cast<std::size_t>(u)];
    const TopKEntry* src = centroid_topk.Row(c);
    TopKEntry* dst = out.Row(u);
    for (Index e = 0; e < k; ++e) {
      dst[e].item = src[e].item;
      dst[e].score = src[e].item >= 0
                         ? Dot(users.Row(u), items.Row(src[e].item),
                               users.cols())
                         : src[e].score;
    }
  }
  return out;
}

// Mean fraction of each row's exact top-K item set that `approx` recovers
// (recall@K).  Both results have the same shape.
double MeanRecallAtK(const TopKResult& approx, const TopKResult& exact) {
  const Index k = exact.k();
  double recall_sum = 0;
  for (Index q = 0; q < exact.num_queries(); ++q) {
    std::unordered_set<Index> truth;
    Index valid = 0;
    for (Index e = 0; e < k; ++e) {
      if (exact.Row(q)[e].item >= 0) {
        truth.insert(exact.Row(q)[e].item);
        ++valid;
      }
    }
    if (valid == 0) continue;
    Index hits = 0;
    for (Index e = 0; e < k; ++e) {
      if (truth.count(approx.Row(q)[e].item) > 0) ++hits;
    }
    // mips-tidy: allow(float-accumulation): recall metric over queries.
    recall_sum += static_cast<double>(hits) / static_cast<double>(valid);
  }
  return recall_sum / static_cast<double>(exact.num_queries());
}

}  // namespace
}  // namespace mips

int main() {
  using namespace mips;

  // The GloVe-Twitter f=100 preset at bench scale: 2,000 query vectors
  // against ~21,870 embedding vectors.
  auto preset = FindModelPreset("glove-twitter-100");
  preset.status().CheckOK();
  auto model = MakeModel(*preset, 1.0);
  model.status().CheckOK();
  std::printf("vocabulary: %d embeddings, queries: %d, f=%d\n",
              model->num_items(), model->num_users(), model->num_factors());

  // --- Exact neighbors via OPTIMUS (BMM vs LEMP). ---
  BmmSolver bmm;
  LempSolver lemp;
  Optimus optimus;
  TopKResult neighbors;
  OptimusReport report;
  optimus
      .Run(ConstRowBlock(model->users), ConstRowBlock(model->items),
           /*k=*/8, {&bmm, &lemp}, &neighbors, &report)
      .CheckOK();
  std::printf("OPTIMUS chose %s (%.3f s end-to-end)\n", report.chosen.c_str(),
              report.total_seconds);
  for (Index q = 0; q < 3; ++q) {
    std::printf("query %d nearest:", q);
    for (Index e = 0; e < 4; ++e) {
      std::printf("  %d (%.2f)", neighbors.Row(q)[e].item,
                  neighbors.Row(q)[e].score);
    }
    std::printf("\n");
  }

  // --- Point queries: one word at a time (online serving). ---
  // LEMP answers single queries without batching; useful when requests
  // trickle in instead of arriving as one batch.
  LempSolver point_index;
  point_index.Prepare(ConstRowBlock(model->users), ConstRowBlock(model->items))
      .CheckOK();
  WallTimer timer;
  TopKResult one;
  for (Index q = 0; q < 100; ++q) {
    point_index.TopKForUsers(8, std::span<const Index>(&q, 1), &one)
        .CheckOK();
  }
  std::printf("\npoint-query serving: %.1f us/query (LEMP, scan fraction "
              "%.2f)\n",
              timer.Seconds() / 100 * 1e6, point_index.last_scan_fraction());

  // --- Approximate alternative: cluster top-K (Koenigstein). ---
  // Spherical clustering, the original method's choice, over the queries.
  KMeansOptions kmeans;
  kmeans.num_clusters = 128;
  kmeans.max_iterations = 5;
  kmeans.seed = 42;
  Clustering clustering;
  SphericalKMeans(ConstRowBlock(model->users), kmeans, &clustering).CheckOK();
  timer.Restart();
  const TopKResult approx = ClusterTopK(clustering, ConstRowBlock(model->users),
                                        ConstRowBlock(model->items), 8);
  const double approx_time = timer.Seconds();
  const double recall = MeanRecallAtK(approx, neighbors);
  std::printf("approximate cluster top-K: %.3f s, recall@8 = %.3f "
              "(exactness is what MAXIMUS adds)\n",
              approx_time, recall);
  return 0;
}
