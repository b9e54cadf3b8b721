// Table II: effectiveness of the online optimizer on the reference
// models.
//
// For each optimizer configuration (BMM+LEMP, BMM+FEXIPRO-SI,
// BMM+FEXIPRO-SIR, BMM+MAXIMUS, and the three-way BMM+LEMP+MAXIMUS), runs
// OPTIMUS over the model/top-K grid and reports, exactly as in the paper:
//   * Accuracy  — how often OPTIMUS picks the truly fastest strategy;
//   * Overhead  — OPTIMUS end-to-end time vs a zero-overhead oracle
//                 (mean and stddev over combos);
//   * Speedups vs the LEMP-only baseline for: the index alone, OPTIMUS
//                 (with overhead), and the oracle.
//
// Ground-truth runtimes per strategy are measured once per combo and
// shared across configurations.  Default: all models x K in {1, 10} at
// 3x the usual bench scale — index construction must be small relative
// to serving for the paper's overhead accounting to be meaningful, and
// that ratio improves with scale.  Pass
// --k=1,5,10,50 for the paper's full 92-combination grid.

#include <cstdio>
#include <map>

#include "bench_util.h"
#include "common/timer.h"
#include "core/optimus.h"
#include "stats/welford.h"

using namespace mips;
using namespace mips::bench;

namespace {

// Aggregates for one optimizer configuration.
struct ConfigStats {
  int correct = 0;
  int combos = 0;
  Welford overhead;
  Welford speedup_index_only;
  Welford speedup_optimus;
  Welford speedup_oracle;
};

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  BenchConfig config;
  config.ks = "1,10";  // default subset; --k=1,5,10,50 for the full grid
  config.scale = 2.0;  // larger scale = more faithful overhead accounting
  ParseBenchFlags(argc, argv, &flags, &config);
  const std::vector<Index> ks = ParseKList(config.ks);

  const std::vector<std::vector<std::string>> configurations = {
      {"bmm", "lemp"},
      {"bmm", "fexipro-si"},
      {"bmm", "fexipro-sir"},
      {"bmm", "maximus"},
      {"bmm", "lemp", "maximus"},
  };
  const std::vector<std::string> all_strategies = {
      "bmm", "lemp", "fexipro-si", "fexipro-sir", "maximus"};

  const auto presets = SelectPresets(config);
  std::printf("== Table II: optimizer effectiveness over %zu models x "
              "{%s} (scale multiplier %.2g) ==\n",
              presets.size(), config.ks.c_str(), config.scale);

  std::vector<ConfigStats> stats(configurations.size());
  for (const auto& preset : presets) {
    const MFModel model = MakeBenchModel(preset, config);
    for (const Index k : ks) {
      // Ground truth: full end-to-end time of every strategy, measured
      // once and shared across optimizer configurations.
      std::map<std::string, double> full_time;
      for (const auto& name : all_strategies) {
        auto solver = MakeSolver(name);
        full_time[name] = TimeEndToEnd(solver.get(), model, k).total();
      }
      const double lemp_baseline = full_time.at("lemp");

      for (std::size_t cfg = 0; cfg < configurations.size(); ++cfg) {
        const auto& strategy_names = configurations[cfg];
        std::string best_name = strategy_names.front();
        double best_time = full_time.at(best_name);
        for (const auto& name : strategy_names) {
          if (full_time.at(name) < best_time) {
            best_time = full_time.at(name);
            best_name = name;
          }
        }
        const double index_only_time = full_time.at(strategy_names[1]);

        std::vector<std::unique_ptr<MipsSolver>> solvers;
        std::vector<MipsSolver*> raw;
        for (const auto& name : strategy_names) {
          solvers.push_back(MakeSolver(name));
          raw.push_back(solvers.back().get());
        }
        Optimus optimus;
        TopKResult result;
        OptimusReport report;
        WallTimer timer;
        optimus
            .Run(ConstRowBlock(model.users), ConstRowBlock(model.items), k,
                 raw, &result, &report)
            .CheckOK();
        const double optimus_time = timer.Seconds();

        ConfigStats& cs = stats[cfg];
        ++cs.combos;
        if (report.chosen == best_name) ++cs.correct;
        cs.overhead.Add(optimus_time / best_time - 1.0);
        cs.speedup_index_only.Add(lemp_baseline / index_only_time);
        cs.speedup_optimus.Add(lemp_baseline / optimus_time);
        cs.speedup_oracle.Add(lemp_baseline / best_time);
      }
    }
  }

  TablePrinter table({"Optimizer Choices", "Accuracy", "Avg. Overhead",
                      "Std. Dev. Overhead", "Index Only",
                      "OPTIMUS (w/ overhead)", "Oracle (no overhead)"});
  for (std::size_t cfg = 0; cfg < configurations.size(); ++cfg) {
    const auto& strategy_names = configurations[cfg];
    const ConfigStats& cs = stats[cfg];
    std::string label = "BMM";
    for (std::size_t i = 1; i < strategy_names.size(); ++i) {
      label += " + " + strategy_names[i];
    }
    const bool three_way = strategy_names.size() > 2;
    table.AddRow(
        {label, Fmt(100.0 * cs.correct / std::max(1, cs.combos), 1) + " %",
         Fmt(100.0 * cs.overhead.mean(), 1) + " %",
         Fmt(100.0 * cs.overhead.stddev(), 1) + " %",
         three_way ? "-" : Fmt(cs.speedup_index_only.mean(), 2) + "x",
         Fmt(cs.speedup_optimus.mean(), 2) + "x",
         Fmt(cs.speedup_oracle.mean(), 2) + "x"});
  }
  table.Print();
  std::printf(
      "\nPaper shape (92 combos): accuracy 85-98%%; overhead 4-9%%; "
      "OPTIMUS within ~12%% of the oracle; BMM+MAXIMUS best two-way pair "
      "(paper: 3.15x vs LEMP baseline, oracle 3.43x); the three-way "
      "configuration pays more overhead and slightly trails BMM+MAXIMUS.  "
      "At bench scale, index construction (especially MAXIMUS's k-means) "
      "is a far larger share of end-to-end time than at paper scale, so "
      "measured overheads are higher; they shrink with --scale.\n");
  return 0;
}
