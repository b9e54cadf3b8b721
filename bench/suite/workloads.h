// The four mipsbench workloads and the layer probes their traced runs
// add.  README.md holds the glossary: why each workload exists, what each
// metric means on it, and which end-to-end metric each layer metric
// should move.

#ifndef MIPSBENCH_WORKLOADS_H_
#define MIPSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "data/synthetic.h"
#include "harness.h"

namespace mipsbench {

/// Settings shared by every workload run.
struct RunOptions {
  /// Seed of the request and mutation streams and the gate's sample.
  uint64_t seed = 0;
  /// Length of the measured window.
  double seconds = 10;
  /// Tiny models and phases, for the smoke check.
  bool smoke = false;
  /// Corrupts one served answer before the correctness gate, to prove
  /// the gate fails the run.
  bool inject_mismatch = false;
  /// Scratch directory inside the checkout (catalog segments).
  std::string tmp_dir = ".";
};

/// Runs one workload.  `tracer` null is the untraced run, which reports
/// the end-to-end metrics over the whole window.  With a tracer, part of
/// the window runs untraced and the rest records spans (the batch and
/// serve workloads: first half and second half; live-mutate: alternate
/// slices); the run reports the per-layer metrics (the traced part's,
/// plus side probes) and harness.trace_overhead, the traced part's p50
/// over the untraced part's.
Result RunBatchFlat(const RunOptions& options, Tracer* tracer);
Result RunBatchSkewed(const RunOptions& options, Tracer* tracer);
Result RunServeNewUser(const RunOptions& options, Tracer* tracer);
Result RunLiveMutate(const RunOptions& options, Tracer* tracer);

// ---- Scenario bodies, shared by the workloads and the side probes ----

/// Open-loop single-vector new-user serving through a BatchingEngine in
/// front of a shape-keyed MipsEngine.  After the warm-up the window runs
/// `untraced_s` with tracing off, then `window_s` with the tracer on (if
/// any); the reported metrics come from the last `window_s`.
struct ServeParams {
  /// 24,000/s ran close to saturation whenever the shared host slowed
  /// down: p50 then moved by half between identical runs and some runs
  /// shed.  At 8,000/s (batches of about 16 rows) p50 spread by 0.04 to
  /// 0.16 over ten-run sets, with no run shedding.
  double rate = 8000;
  double warmup_s = 2;
  double untraced_s = 0;
  double window_s = 10;
  int setups = 5;
};
Result RunServeScenario(const mips::MFModel& model, const ServeParams& params,
                        const RunOptions& options, Tracer* tracer);

/// A LiveCatalog under one closed-loop query client plus a mutator
/// paced at 200 ops/s.  Phases: `static_s` reads-only, then the
/// `window_s` window with the mutator on.  With a tracer the window
/// alternates untraced slices and traced ones, and the rebuild monitor
/// runs through it; the reported latencies come from the traced slices.
struct LiveParams {
  double static_s = 2;
  double window_s = 10;
  int64_t rebuild_threshold = 256;
  /// Set-ups are cheap here (tens of ms), so more of them steady the
  /// median: a slow spell of the host lasts several of them.
  int setups = 41;
};
Result RunLiveScenario(const mips::MFModel& model, const LiveParams& params,
                       const RunOptions& options, Tracer* tracer);

// ---- Side probes: each times one layer through its public entry point
// over the workload's own model.  They run after the traced window. ----

/// linalg.*: GemmNT on a pool of min(4, hardware threads) and serial,
/// Dot.
void ProbeLinalg(const mips::MFModel& model, Metrics* out);
/// topk.*: TopKFromScoreBlock and MergeTopKRows.
void ProbeTopk(const mips::MFModel& model, Metrics* out);

/// solver.* and optimus.*: each candidate alone (Prepare + TopKAll,
/// single-threaded like every workload engine), then an OPTIMUS engine
/// over {bmm, maximus, lemp}: its decision cost, its pick and its
/// estimates against the solo runs.  All over 16,384 evenly spaced users
/// and every item, so the solo runs stay short while the item set, which
/// decides the winner, is the workload's.
void ProbeSolversAndOptimus(const mips::MFModel& model, Metrics* out);

/// engine.redecisions and engine.cache_hit_rate between two stats()
/// snapshots of one engine.
void PutDecisionCounts(const mips::MipsEngine::Stats& before,
                       const mips::MipsEngine::Stats& after, Metrics* out);

/// engine.new_user_us, engine.redecision_ms and shard.scatter_over_single:
/// an unsharded and a 4-shard growth engine ({bmm, maximus}) over
/// `model`, queried one row at a time at k = 10 and then once at each of
/// k = 11 .. 10 + extra_ks.  With `decision_counts` it also reports the
/// unsharded probe's engine.redecisions and engine.cache_hit_rate.
void ProbeEngineShard(const mips::MFModel& model, int extra_ks,
                      bool decision_counts, Metrics* out);

/// The serve and catalog scenarios at probe size over `model` (the
/// catalog one over the model's first 9,604 users and 800 items).
/// Copies their serve.* / catalog.* metrics (serve also
/// harness.lag_p99_ms) into `into` and adds their operation and
/// correctness-gate counts to it.
void ProbeServe(const mips::MFModel& model, const RunOptions& options,
                Result* into);
void ProbeCatalog(const mips::MFModel& model, const RunOptions& options,
                  Result* into);

}  // namespace mipsbench

#endif  // MIPSBENCH_WORKLOADS_H_
