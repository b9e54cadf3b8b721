// Measurement plumbing shared by every mipsbench workload: latency
// samples with sample-count-aware percentiles, named metrics, in-memory
// request spans, the host record, and the brute-force correctness gate.
//
// Everything here sits outside the library: the workloads time public
// entry points from the caller's side, so the same benchmark source
// measures any revision of the library that keeps those entry points.

#ifndef MIPSBENCH_HARNESS_H_
#define MIPSBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "data/synthetic.h"
#include "linalg/matrix.h"
#include "reference.h"
#include "topk/result.h"

namespace mipsbench {

using mips::Index;
using mips::Real;
using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One percentile read from a latency sample.
struct Quantile {
  double seconds = 0;
  int64_t samples = 0;
  /// At least ten samples lie beyond the percentile; a percentile read
  /// from fewer is noise and is flagged in the result file.
  bool supported = false;
};

/// Latency samples in seconds.
class Latencies {
 public:
  void Add(double seconds) { samples_.push_back(seconds); }
  void Append(const Latencies& other);
  std::size_t size() const { return samples_.size(); }
  /// Nearest-rank p-quantile, 0 < p < 1.
  Quantile At(double p) const;

 private:
  std::vector<double> samples_;
};

/// A named measurement.  `samples` is the sample count behind a
/// percentile (0 for everything else).
struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;
  bool supported = true;
};
using Metrics = std::map<std::string, Metric>;

void Put(Metrics* metrics, const std::string& name, double value,
         const std::string& unit);
/// Stores a percentile in milliseconds with its sample count.
void PutMs(Metrics* metrics, const std::string& name, const Quantile& q);
/// Stores harness.trace_overhead: the traced phase's p50 over the
/// untraced phase's.
void PutTraceOverhead(const Latencies& untraced, const Latencies& traced,
                      Metrics* metrics);

/// How much of the time it asked for the host gave this virtual machine,
/// from the kernel's counters of the whole machine (the first line of
/// /proc/stat): busy / (busy + steal) since construction, where steal is
/// time the hypervisor kept a virtual CPU that had work off its core.
/// 1 where the kernel reports no steal.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  struct CpuTimes {
    double busy = 0;
    double steal = 0;
  };
  static CpuTimes Read();
  const CpuTimes start_;
};

/// Divides the host's slowdown out of the named metrics: a time (unit s or
/// ms) is divided by `slowdown`, a rate (1/s) multiplied by it.  The
/// measured value of each stays in the result file as wall.<name>.
void ToHostClock(double slowdown, std::initializer_list<const char*> names,
                 Metrics* metrics);
/// Stores harness.reference_ms (the median reference pass) and
/// harness.steal_frac (1 - `steal_share`).
void PutHostSpeed(const ReferenceClock& reference, double steal_share,
                  Metrics* metrics);

/// What every workload run reports back to main().
struct Result {
  Metrics metrics;
  int64_t attempted = 0;
  /// Shed, expired, errored and wrong answers.
  int64_t failed = 0;
  /// Rows compared by the correctness gate, and how many differed.
  int64_t checked = 0;
  int64_t mismatches = 0;
  /// Strategy winners and other facts a number is only comparable with.
  std::map<std::string, std::string> info;
};

/// Request spans recorded by the benchmark around public calls.
enum class SpanName {
  kOpen,
  kRequest,
  kAdmit,
  kBackend,
  kCatalogQuery,
  kCatalogMutation,
  kRebuildWindow,
};
const char* ToString(SpanName name);

struct Span {
  uint64_t id = 0;
  /// Id of the enclosing span (0 = root).
  uint64_t parent = 0;
  /// Request the span belongs to (0 = not request-scoped).
  uint64_t request = 0;
  SpanName name = SpanName::kOpen;
  Clock::time_point start;
  Clock::time_point end;
};

/// Keeps spans in memory until the run ends.  Thread-safe.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  uint64_t NewId() EXCLUDES(mu_);
  void Record(SpanName name, Clock::time_point start, Clock::time_point end,
              uint64_t id = 0, uint64_t parent = 0, uint64_t request = 0)
      EXCLUDES(mu_);

  /// Per span name: count, total and self time (duration minus the part
  /// covered by child spans), in seconds.
  struct Summary {
    int64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Summary> Summarize() const EXCLUDES(mu_);

  /// Writes every span and the summary as JSON.
  bool Write(const std::string& path) const EXCLUDES(mu_);

 private:
  const Clock::time_point origin_;
  mutable mips::Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  std::deque<Span> spans_ GUARDED_BY(mu_);
};

/// Records one span on `tracer` when tracing is on.
inline void Trace(mipsbench::Tracer* tracer, SpanName name,
                  Clock::time_point start, Clock::time_point end,
                  uint64_t id = 0, uint64_t parent = 0,
                  uint64_t request = 0) {
  if (tracer != nullptr) tracer->Record(name, start, end, id, parent, request);
}

/// CPU, cores, kernel, compiler, build, GEMM kernel and its probe: the
/// facts a number is only comparable alongside.
std::map<std::string, std::string> HostRecord();

/// Heap memory the process holds, in MB: malloc's in-use total over every
/// arena (system memory minus free chunks, plus mmapped chunks).  Peak
/// and even current RSS swung by 20-40% between identical runs with how
/// much freed memory the allocator retained and how threads fragmented
/// it; bytes in use do not.
double HeapInUseMb();

/// Generates preset `id` at `scale` from the preset's own generator seed.
/// The model is the same for every run seed: a different model can flip
/// OPTIMUS's winner, and the seed is there to vary the traffic, not the
/// strategy.  Aborts on an unknown preset.
mips::MFModel MakeWorkloadModel(const std::string& id, double scale);

/// Exact top-k of `num_rows` query vectors against `items` by brute
/// force: serial GemmNT scores (the per-element fold every GEMM-scoring
/// solver reports) and a full BetterEntry sort of each row.
mips::TopKResult ReferenceTopK(const Real* queries, Index num_rows,
                               const mips::ConstRowBlock& items, Index k);

/// Whether a served row equals its reference row: item ids in order,
/// and scores bit-for-bit when `exact`, else within 1e-9 relative (the
/// tolerance the library documents for index-served scores).
bool RowMatches(const mips::TopKEntry* got, const mips::TopKEntry* want,
                Index k, bool exact);

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);
/// JSON number with every digit (null for non-finite values).
std::string JsonNumber(double value);

}  // namespace mipsbench

#endif  // MIPSBENCH_HARNESS_H_
