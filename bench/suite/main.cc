// mipsbench: one binary for the four benchmark workloads.
//
//   mipsbench --workload=batch-flat --seed=1 --seconds=15
//       --json_out=result.json [--trace --trace_out=trace.json]
//
// Untraced, a run reports the end-to-end metrics.  With --trace the
// window's first half runs untraced and its second half records spans;
// the run reports the per-layer metrics, including the tracing overhead
// (traced p50 over untraced p50).  Every metric is printed as
// `name value unit`; the run exits 3 when the correctness gate finds a
// wrong answer.  run.py builds this binary and maps its result file onto
// the names in BENCHMARK.json.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "common/flags.h"
#include "workloads.h"

using namespace mipsbench;

namespace {

using WorkloadFn = Result (*)(const RunOptions&, Tracer*);

const std::map<std::string, WorkloadFn>& Workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"batch-flat", RunBatchFlat},
      {"batch-skewed", RunBatchSkewed},
      {"serve-newuser", RunServeNewUser},
      {"live-mutate", RunLiveMutate},
  };
  return kWorkloads;
}

bool WriteResult(const std::string& path, const std::string& workload,
                 const RunOptions& options, bool trace, const Result& result,
                 const Tracer* tracer) {
  std::ofstream file(path);
  if (!file) return false;
  const auto write_map = [&file](const std::map<std::string, std::string>& m) {
    bool first = true;
    file << "{";
    for (const auto& [key, value] : m) {
      file << (first ? "" : ", ") << JsonString(key) << ": "
           << JsonString(value);
      first = false;
    }
    file << "}";
  };
  file << "{\n  \"workload\": " << JsonString(workload)
       << ",\n  \"seed\": " << options.seed
       << ",\n  \"seconds\": " << JsonNumber(options.seconds)
       << ",\n  \"trace\": " << (trace ? "true" : "false")
       << ",\n  \"smoke\": " << (options.smoke ? "true" : "false")
       << ",\n  \"correct\": " << (result.mismatches == 0 ? "true" : "false")
       << ",\n  \"attempted\": " << result.attempted
       << ",\n  \"failed\": " << result.failed
       << ",\n  \"checked\": " << result.checked
       << ",\n  \"mismatches\": " << result.mismatches << ",\n  \"host\": ";
  write_map(HostRecord());
  file << ",\n  \"info\": ";
  write_map(result.info);
  file << ",\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    file << (first ? "\n" : ",\n") << "    " << JsonString(name)
         << ": {\"value\": " << JsonNumber(metric.value)
         << ", \"unit\": " << JsonString(metric.unit);
    if (metric.samples > 0) {
      file << ", \"samples\": " << metric.samples << ", \"supported\": "
           << (metric.supported ? "true" : "false");
    }
    file << "}";
    first = false;
  }
  file << "\n  }";
  if (tracer != nullptr) {
    file << ",\n  \"spans\": {";
    first = true;
    for (const auto& [name, sum] : tracer->Summarize()) {
      file << (first ? "\n" : ",\n") << "    " << JsonString(name)
           << ": {\"count\": " << sum.count
           << ", \"total_s\": " << JsonNumber(sum.total_s)
           << ", \"self_s\": " << JsonNumber(sum.self_s) << "}";
      first = false;
    }
    file << "\n  }";
  }
  file << "\n}\n";
  return static_cast<bool>(file);
}

}  // namespace

int main(int argc, char** argv) {
  mips::FlagSet flags;
  std::string workload;
  int64_t seed = 0;
  RunOptions options;
  bool trace = false;
  std::string json_out;
  std::string trace_out = "trace.json";
  flags.String("workload", &workload,
               "batch-flat, batch-skewed, serve-newuser or live-mutate");
  flags.Int64("seed", &seed, "request-stream seed");
  flags.Double("seconds", &options.seconds, "measured window per run");
  flags.Bool("trace", &trace, "report per-layer metrics from a traced run");
  flags.String("json_out", &json_out, "write the result as JSON here");
  flags.String("trace_out", &trace_out, "--trace: write the spans here");
  flags.String("tmp_dir", &options.tmp_dir, "scratch directory");
  flags.Bool("smoke", &options.smoke, "tiny models and phases");
  flags.Bool("inject_mismatch", &options.inject_mismatch,
             "corrupt one answer to prove the correctness gate fails");
  const mips::Status parsed = flags.Parse(argc, argv);
  const auto fn = Workloads().find(workload);
  if (!parsed.ok() || fn == Workloads().end() || !(options.seconds > 0)) {
    std::fprintf(stderr, "%s\nworkloads: batch-flat batch-skewed "
                 "serve-newuser live-mutate\n%s",
                 parsed.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);

  Tracer tracer;
  Result result = fn->second(options, trace ? &tracer : nullptr);
  if (trace && !tracer.Write(trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    return 1;
  }
  // Operations that succeeded with a correct answer, of those attempted:
  // shed, expired, errored and wrong answers all count against it.
  Put(&result.metrics, "ok_frac",
      std::max(0.0, 1.0 - Ratio(static_cast<double>(result.failed),
                                static_cast<double>(result.attempted))),
      "ratio");

  for (const auto& [name, metric] : result.metrics) {
    std::printf("%s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("correct %s (%lld rows checked, %lld mismatched)\n",
              result.mismatches == 0 ? "true" : "false",
              static_cast<long long>(result.checked),
              static_cast<long long>(result.mismatches));
  if (!json_out.empty() &&
      !WriteResult(json_out, workload, options, trace, result,
                   trace ? &tracer : nullptr)) {
    std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
    return 1;
  }
  return result.mismatches == 0 ? 0 : 3;
}
