// Movie recommender: the paper's Figure 1 scenario end to end.
//
//   ratings matrix --(SGD matrix factorization)--> user/item factors
//                  --(MipsEngine)--> exact top-K movies per user
//
// Demonstrates: the MF trainer, model persistence, spec-driven engine
// serving, and the dynamic-user path (a brand-new user gets exact
// recommendations without re-clustering, Section III-E) — all without
// naming a single concrete solver type.
//
// Build & run:  ./build/examples/movie_recommender

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "data/io.h"
#include "data/mf_trainer.h"

int main() {
  using namespace mips;

  // --- 1. Synthesize a ratings history and train an MF model. ---
  const Index num_users = 5000;
  const Index num_movies = 1200;
  std::printf("generating ratings and training MF model (%d users x %d "
              "movies)...\n",
              num_users, num_movies);
  const auto ratings = GenerateSyntheticRatings(
      num_users, num_movies, /*count=*/400000, /*true_rank=*/8,
      /*noise=*/0.1, /*seed=*/11);

  MFTrainConfig train_config;
  train_config.num_factors = 16;
  train_config.epochs = 8;
  train_config.learning_rate = 0.015;
  auto model = TrainMF(ratings, num_users, num_movies, train_config);
  model.status().CheckOK();
  std::printf("training RMSE: %.4f\n", ComputeRMSE(*model, ratings));

  // --- 2. Persist the factors (as a real serving system would). ---
  const std::string user_path = "/tmp/movie_users.mipsmat";
  const std::string item_path = "/tmp/movie_items.mipsmat";
  SaveMatrixBinary(model->users, user_path).CheckOK();
  SaveMatrixBinary(model->items, item_path).CheckOK();
  auto users = LoadMatrixBinary(user_path);
  auto items = LoadMatrixBinary(item_path);
  users.status().CheckOK();
  items.status().CheckOK();
  std::printf("factors persisted and reloaded (%s, %s)\n", user_path.c_str(),
              item_path.c_str());

  // --- 3. Serve exact top-10 for everyone through the engine. ---
  EngineOptions options;
  options.k = 10;
  options.solvers = {"bmm", "maximus"};
  auto engine =
      MipsEngine::Open(ConstRowBlock(*users), ConstRowBlock(*items), options);
  engine.status().CheckOK();
  TopKResult top10;
  (*engine)->TopKAll(10, &top10).CheckOK();
  std::printf("\nOPTIMUS chose %s; decision %.3f s, serve %.3f s for %d "
              "users\n",
              (*engine)->strategy().c_str(),
              (*engine)->decision_report().total_seconds,
              (*engine)->stats().serve_seconds, num_users);
  std::printf("user 0 top-5 movies:");
  for (Index e = 0; e < 5; ++e) {
    std::printf("  #%d (%.2f)", top10.Row(0)[e].item, top10.Row(0)[e].score);
  }
  std::printf("\n");

  // --- 4. A new user arrives after the decision (Section III-E). ---
  // The engine serves them exactly whatever strategy won: MAXIMUS's
  // walk from the nearest centroid, with the cluster's bounds widened
  // for the user's own angle, when an index is bound, a dense scoring row
  // otherwise.  No re-clustering, no concrete types.
  Rng rng(99);
  std::vector<Real> new_user(16);
  for (auto& v : new_user) v = static_cast<Real>(rng.Normal(0.0, 0.3));
  std::vector<TopKEntry> recs(10);
  (*engine)->TopKNewUser(new_user.data(), 10, recs.data()).CheckOK();
  std::printf("new (unclustered) user served via %s; top-5:",
              (*engine)->strategy().c_str());
  for (Index e = 0; e < 5; ++e) {
    std::printf("  #%d (%.2f)", recs[static_cast<std::size_t>(e)].item,
                recs[static_cast<std::size_t>(e)].score);
  }
  std::printf("\n");
  return 0;
}
