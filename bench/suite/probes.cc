// Side probes: each times one layer through its public entry point over
// the workload's own model, after the traced window.  A workload that
// routes through a layer reports that layer's metrics from its own
// window instead; the probes fill in the layers it does not route
// through, so every traced run reports every per-layer metric.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/maximus.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "linalg/simd_dispatch.h"
#include "shard/sharded_engine.h"
#include "solvers/registry.h"
#include "topk/merge.h"
#include "topk/topk_block.h"
#include "workloads.h"

namespace mipsbench {
namespace {

using mips::ConstRowBlock;
using mips::MipsEngine;

constexpr Index kK = 10;
constexpr double kProbeSeconds = 0.2;
/// Users in the solo and OPTIMUS probe, evenly spaced over the model's:
/// at full size the three solo runs take 11-23 s on the batch models.  A
/// prefix of the users is not a fair sample: MAXIMUS ran 40% faster per
/// user on batch-flat's first 16,384 users than on all of them, enough
/// to flip the oracle.
constexpr Index kOracleUsers = 16384;
/// Each solo run and the OPTIMUS run is the best of this many: on the
/// shared host, single solo BMM runs over the same sample took 0.35 s
/// and 0.60 s.
constexpr int kOracleReps = 2;

/// Keeps the compiler from dropping work whose result is never read.
void KeepAlive(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

/// Runs `fn` until at least kProbeSeconds and three calls have passed;
/// returns seconds per call.
template <typename Fn>
double SecondsPerCall(Fn&& fn) {
  int64_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0;
  while (calls < 3 || elapsed < kProbeSeconds) {
    fn();
    ++calls;
    elapsed = SecondsBetween(start, Clock::now());
  }
  return elapsed / static_cast<double>(calls);
}

double GemmGflops(const mips::MFModel& model, Index rows,
                  mips::ThreadPool* pool) {
  const Index m = std::min(rows, model.num_users());
  const Index n = model.num_items();
  const Index f = model.num_factors();
  mips::Matrix scores(m, n);
  const double seconds = SecondsPerCall([&]() {
    mips::GemmNT(model.users.data(), m, model.items.data(), n, f, 1, 0,
                 scores.data(), n, pool);
    KeepAlive(scores.data());
  });
  return 2.0 * m * n * f / seconds / 1e9;
}

void CopyPrefixed(const Result& from, const std::vector<std::string>& prefixes,
                  Result* into) {
  for (const auto& [name, metric] : from.metrics) {
    for (const std::string& prefix : prefixes) {
      if (name.rfind(prefix, 0) == 0) into->metrics[name] = metric;
    }
  }
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->checked += from.checked;
  into->mismatches += from.mismatches;
}

}  // namespace

void ProbeLinalg(const mips::MFModel& model, Metrics* out) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  mips::ThreadPool pool(threads);
  const double pooled = GemmGflops(model, 1024, &pool);
  Put(out, "linalg.gemm_gflops", pooled, "GFLOP/s");
  Put(out, "linalg.gemm_small_gflops", GemmGflops(model, 64, nullptr),
      "GFLOP/s");
  double peak = 0;
  for (const auto& variant : mips::ProbeGemmKernels().variants) {
    if (variant.supported) peak = std::max(peak, variant.gflops);
  }
  Put(out, "linalg.gemm_peak_frac", peak > 0 ? pooled / (threads * peak) : 0,
      "ratio");

  const Index n = model.num_items();
  const Index f = model.num_factors();
  std::vector<Real> dots(static_cast<std::size_t>(n));
  const double dot_seconds = SecondsPerCall([&]() {
    const Real* user = model.users.Row(0);
    for (Index i = 0; i < n; ++i) {
      dots[i] = mips::Dot(user, model.items.Row(i), f);
    }
    KeepAlive(dots.data());
  });
  Put(out, "linalg.dot_gflops", 2.0 * n * f / dot_seconds / 1e9, "GFLOP/s");
}

void ProbeTopk(const mips::MFModel& model, Metrics* out) {
  const Index m = std::min<Index>(256, model.num_users());
  const Index n = model.num_items();
  mips::Matrix scores(m, n);
  mips::GemmNT(model.users.data(), m, model.items.data(), n,
               model.num_factors(), 1, 0, scores.data(), n);
  mips::TopKResult block(m, kK);
  const double extract = SecondsPerCall([&]() {
    mips::TopKFromScoreBlock(scores.data(), m, n, n, kK, 0, nullptr, &block,
                             0);
    KeepAlive(&block);
  });
  Put(out, "topk.extract_ns_per_item",
      extract / (static_cast<double>(m) * n) * 1e9, "ns");

  // Four shard rows over disjoint item ranges (merge needs unique ids).
  std::vector<mips::TopKEntry> rows(4 * kK);
  const Index quarter = n / 4;
  for (Index s = 0; s < 4; ++s) {
    mips::TopKFromRow(scores.data() + s * quarter, quarter, kK, s * quarter,
                      nullptr, rows.data() + s * kK);
  }
  const mips::TopKEntry* row_ptrs[4] = {rows.data(), rows.data() + kK,
                                        rows.data() + 2 * kK,
                                        rows.data() + 3 * kK};
  std::vector<mips::TopKEntry> merged(kK);
  const double merge = SecondsPerCall([&]() {
    for (int rep = 0; rep < 1000; ++rep) {
      mips::MergeTopKRows(std::span<const mips::TopKEntry* const>(row_ptrs),
                          kK, kK, merged.data());
      KeepAlive(merged.data());
    }
  });
  Put(out, "topk.merge_us", merge / 1000 * 1e6, "us");
}

void ProbeSolversAndOptimus(const mips::MFModel& model, Metrics* out) {
  const Index num_users = model.num_users();
  std::vector<Index> sample(
      static_cast<std::size_t>(std::min(kOracleUsers, num_users)));
  for (std::size_t i = 0; i < sample.size(); ++i) {
    sample[i] = static_cast<Index>(static_cast<int64_t>(i) * num_users /
                                   static_cast<int64_t>(sample.size()));
  }
  const mips::Matrix oracle_users =
      mips::GatherRows(ConstRowBlock(model.users), sample);
  const ConstRowBlock users(oracle_users);
  const ConstRowBlock items(model.items);

  // Each candidate alone.  `query_s` is the TopKAll part, which OPTIMUS's
  // estimates predict.
  struct Solo {
    double total_s = 0;
    double query_s = 0;
  };
  std::map<std::string, Solo> solo;
  for (const char* spec : {"bmm", "maximus", "lemp"}) {
    for (int rep = 0; rep < kOracleReps; ++rep) {
      auto created = mips::CreateSolverFromSpec(spec);
      created.status().CheckOK();
      std::unique_ptr<mips::MipsSolver> solver = std::move(*created);
      const Clock::time_point t0 = Clock::now();
      solver->Prepare(users, items).CheckOK();
      const Clock::time_point t1 = Clock::now();
      mips::TopKResult result;
      solver->TopKAll(kK, &result).CheckOK();
      const Clock::time_point t2 = Clock::now();
      const Solo run{SecondsBetween(t0, t2), SecondsBetween(t1, t2)};
      if (rep > 0 && run.total_s >= solo[spec].total_s) continue;
      solo[spec] = run;
      Put(out, std::string("solver.") + spec + ".total_s", run.total_s, "s");
      if (const auto* maximus =
              dynamic_cast<const mips::MaximusSolver*>(solver.get())) {
        const mips::StageTimer& stages = maximus->stage_timer();
        Put(out, "solver.maximus.clustering_s", stages.Get("clustering"),
            "s");
        Put(out, "solver.maximus.construction_s", stages.Get("construction"),
            "s");
        Put(out, "solver.maximus.traversal_s", stages.Get("traversal"), "s");
        Put(out, "solver.maximus.items_visited",
            maximus->mean_items_visited(), "count");
      }
    }
  }

  // OPTIMUS over the same candidates: set-up plus one pass, against the
  // fastest solo run.
  mips::EngineOptions options;
  options.k = kK;
  options.solvers = {"bmm", "maximus", "lemp"};
  double optimus_s = 0;
  mips::OptimusReport report;
  for (int rep = 0; rep < kOracleReps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto opened = MipsEngine::Open(users, items, options);
    opened.status().CheckOK();
    mips::TopKResult result;
    (*opened)->TopKAll(kK, &result).CheckOK();
    const double run_s = SecondsBetween(t0, Clock::now());
    if (rep > 0 && run_s >= optimus_s) continue;
    optimus_s = run_s;
    report = (*opened)->decision_report();
  }
  Put(out, "optimus.sampling_s", report.sampling_seconds, "s");
  Put(out, "optimus.construction_s", report.construction_seconds, "s");
  Put(out, "optimus.sample_users", report.sample_size, "count");
  const auto oracle = std::min_element(
      solo.begin(), solo.end(), [](const auto& a, const auto& b) {
        return a.second.total_s < b.second.total_s;
      });
  Put(out, "optimus.oracle_gap", optimus_s / oracle->second.total_s, "ratio");
  Put(out, "optimus.pick_correct", report.chosen == oracle->first ? 1 : 0,
      "ratio");
  // How many doublings each serving-time estimate is off the measured
  // solo TopKAll time (0 = exact).
  for (const mips::StrategyEstimate& estimate : report.estimates) {
    const auto measured = solo.find(estimate.name);
    if (measured == solo.end() || measured->second.query_s <= 0 ||
        estimate.est_total_seconds <= 0) {
      continue;
    }
    Put(out, "optimus.est_log2err." + estimate.name,
        std::abs(std::log2(estimate.est_total_seconds /
                           measured->second.query_s)),
        "log2");
  }
}

void ProbeEngineShard(const mips::MFModel& model, int extra_ks,
                      bool decision_counts, Metrics* out) {
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  mips::EngineOptions engine_options;
  engine_options.k = kK;
  engine_options.solvers = {"bmm", "maximus"};
  auto single = MipsEngine::Open(users, items, engine_options);
  single.status().CheckOK();
  mips::ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 4;
  sharded_options.sharding = mips::ShardingStrategy::kGrowth;
  sharded_options.engine = engine_options;
  auto sharded = mips::ShardedMipsEngine::Open(users, items, sharded_options);
  sharded.status().CheckOK();

  const MipsEngine::Stats before = (*single)->stats();
  const Index queries = std::min<Index>(200, model.num_users());
  std::vector<mips::TopKEntry> row(static_cast<std::size_t>(kK + extra_ks));
  std::vector<double> single_s;
  std::vector<double> sharded_s;
  for (Index q = 0; q < queries; ++q) {
    Clock::time_point t0 = Clock::now();
    (*single)->TopKNewUser(users.Row(q), kK, row.data()).CheckOK();
    single_s.push_back(SecondsBetween(t0, Clock::now()));
    t0 = Clock::now();
    (*sharded)->TopKNewUser(users.Row(q), kK, row.data()).CheckOK();
    sharded_s.push_back(SecondsBetween(t0, Clock::now()));
  }
  const double single_median = Median(single_s);
  Put(out, "engine.new_user_us", single_median * 1e6, "us");
  Put(out, "shard.scatter_over_single", Median(sharded_s) / single_median,
      "ratio");

  // Each fresh k is a decision-cache miss that re-runs OPTIMUS inline.
  const MipsEngine::Stats fresh_before = (*single)->stats();
  for (Index k = kK + 1; k <= kK + extra_ks; ++k) {
    (*single)->TopKNewUser(users.Row(0), k, row.data()).CheckOK();
  }
  const MipsEngine::Stats after = (*single)->stats();
  const int64_t redecisions = after.redecisions - fresh_before.redecisions;
  Put(out, "engine.redecision_ms",
      Ratio(after.redecision_seconds - fresh_before.redecision_seconds,
            static_cast<double>(redecisions)) * 1e3,
      "ms");
  if (decision_counts) PutDecisionCounts(before, after, out);
}

void PutDecisionCounts(const MipsEngine::Stats& before,
                       const MipsEngine::Stats& after, Metrics* out) {
  const double hits = static_cast<double>(after.decision_cache_hits -
                                          before.decision_cache_hits);
  const double misses = static_cast<double>(after.decision_cache_misses -
                                            before.decision_cache_misses);
  Put(out, "engine.redecisions",
      static_cast<double>(after.redecisions - before.redecisions), "count");
  Put(out, "engine.cache_hit_rate", Ratio(hits, hits + misses), "ratio");
}

void ProbeServe(const mips::MFModel& model, const RunOptions& options,
                Result* into) {
  ServeParams params;
  params.rate = 2000;
  params.warmup_s = options.smoke ? 0.1 : 0.3;
  params.window_s = options.smoke ? 0.2 : 1.0;
  params.setups = 1;
  Tracer tracer;
  const Result probe = RunServeScenario(model, params, options, &tracer);
  CopyPrefixed(probe, {"serve.", "harness.lag_p99_ms"}, into);
}

void ProbeCatalog(const mips::MFModel& model, const RunOptions& options,
                  Result* into) {
  mips::MFModel sub;
  sub.users = model.users.RowSlice(0, std::min<Index>(9604, model.num_users()));
  sub.items = model.items.RowSlice(0, std::min<Index>(800, model.num_items()));
  LiveParams params;
  params.static_s = options.smoke ? 0.1 : 0.5;
  params.window_s = options.smoke ? 0.2 : 3.0;
  params.rebuild_threshold = options.smoke ? 16 : 256;
  params.setups = 1;
  Tracer tracer;
  const Result probe = RunLiveScenario(sub, params, options, &tracer);
  CopyPrefixed(probe, {"catalog."}, into);
}

}  // namespace mipsbench
