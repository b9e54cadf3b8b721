#include "harness.h"

#include <malloc.h>
#include <sys/utsname.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>

#include "data/datasets.h"
#include "linalg/gemm.h"
#include "linalg/simd_dispatch.h"

#ifndef MIPSBENCH_GIT_SHA
#define MIPSBENCH_GIT_SHA "unknown"
#endif
#ifndef MIPSBENCH_BUILD_TYPE
#define MIPSBENCH_BUILD_TYPE "unknown"
#endif

namespace mipsbench {

double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2;
}

void Latencies::Append(const Latencies& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
}

Quantile Latencies::At(double p) const {
  Quantile q;
  q.samples = static_cast<int64_t>(samples_.size());
  if (samples_.empty()) return q;
  std::vector<double> sorted = samples_;
  const std::size_t n = sorted.size();
  const std::size_t rank = std::min(
      n - 1,
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))) - 1);
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  q.seconds = sorted[rank];
  q.supported = n - rank - 1 >= 10;
  return q;
}

void Put(Metrics* metrics, const std::string& name, double value,
         const std::string& unit) {
  Metric& m = (*metrics)[name];
  m.value = value;
  m.unit = unit;
}

void PutMs(Metrics* metrics, const std::string& name, const Quantile& q) {
  Metric& m = (*metrics)[name];
  m.value = q.seconds * 1e3;
  m.unit = "ms";
  m.samples = q.samples;
  m.supported = q.supported;
}

void PutTraceOverhead(const Latencies& untraced, const Latencies& traced,
                      Metrics* metrics) {
  Put(metrics, "harness.trace_overhead",
      Ratio(traced.At(0.5).seconds, untraced.At(0.5).seconds), "ratio");
}

StealMeter::StealMeter() : start_(Read()) {}

StealMeter::CpuTimes StealMeter::Read() {
  std::ifstream stat("/proc/stat");
  std::string label;
  // user nice system idle iowait irq softirq steal, in clock ticks.
  double t[8] = {};
  stat >> label;
  for (double& v : t) stat >> v;
  if (!stat || label != "cpu") return {};
  return {t[0] + t[1] + t[2] + t[5] + t[6], t[7]};
}

double StealMeter::Share() const {
  const CpuTimes now = Read();
  const double busy = now.busy - start_.busy;
  const double steal = now.steal - start_.steal;
  return busy > 0 && steal > 0 ? busy / (busy + steal) : 1;
}

void ToHostClock(double slowdown, std::initializer_list<const char*> names,
                 Metrics* metrics) {
  for (const char* name : names) {
    Metric& m = metrics->at(name);
    (*metrics)[std::string("wall.") + name] = m;
    if (m.unit == "1/s") {
      m.value *= slowdown;
    } else {
      m.value /= slowdown;
    }
  }
}

void PutHostSpeed(const ReferenceClock& reference, double steal_share,
                  Metrics* metrics) {
  Put(metrics, "harness.reference_ms", reference.median_ms(), "ms");
  Put(metrics, "harness.steal_frac", 1 - steal_share, "ratio");
}

const char* ToString(SpanName name) {
  switch (name) {
    case SpanName::kOpen:
      return "open";
    case SpanName::kRequest:
      return "request";
    case SpanName::kAdmit:
      return "admit";
    case SpanName::kBackend:
      return "backend";
    case SpanName::kCatalogQuery:
      return "catalog.query";
    case SpanName::kCatalogMutation:
      return "catalog.mutation";
    case SpanName::kRebuildWindow:
      return "catalog.rebuild_window";
  }
  return "?";
}

uint64_t Tracer::NewId() {
  mips::MutexLock lock(mu_);
  return next_id_++;
}

void Tracer::Record(SpanName name, Clock::time_point start,
                    Clock::time_point end, uint64_t id, uint64_t parent,
                    uint64_t request) {
  mips::MutexLock lock(mu_);
  if (id == 0) id = next_id_++;
  spans_.push_back(Span{id, parent, request, name, start, end});
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  std::vector<Span> spans;
  {
    mips::MutexLock lock(mu_);
    spans.assign(spans_.begin(), spans_.end());
  }
  // Children grouped under their parent's id.
  std::unordered_map<uint64_t, std::vector<std::pair<Clock::time_point,
                                                     Clock::time_point>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, Summary> out;
  for (const Span& s : spans) {
    const double total = SecondsBetween(s.start, s.end);
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& kids = it->second;
      std::sort(kids.begin(), kids.end());
      Clock::time_point reach = s.start;
      for (const auto& [begin, end] : kids) {
        const Clock::time_point from = std::max(begin, reach);
        const Clock::time_point to = std::min(end, s.end);
        if (to > from) {
          covered += SecondsBetween(from, to);
          reach = to;
        }
      }
    }
    Summary& sum = out[ToString(s.name)];
    ++sum.count;
    sum.total_s += total;
    sum.self_s += total - covered;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  const auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  file << "{\"summary\": {";
  bool first = true;
  for (const auto& [name, sum] : Summarize()) {
    file << (first ? "" : ", ") << JsonString(name) << ": {\"count\": "
         << sum.count << ", \"total_s\": " << JsonNumber(sum.total_s)
         << ", \"self_s\": " << JsonNumber(sum.self_s) << "}";
    first = false;
  }
  file << "},\n\"columns\": [\"id\", \"parent\", \"request\", \"name\", "
          "\"start_ns\", \"end_ns\"],\n\"spans\": [";
  mips::MutexLock lock(mu_);
  first = true;
  for (const Span& s : spans_) {
    file << (first ? "\n" : ",\n") << "[" << s.id << ", " << s.parent << ", "
         << s.request << ", \"" << ToString(s.name) << "\", " << ns(s.start)
         << ", " << ns(s.end) << "]";
    first = false;
  }
  file << "]}\n";
  return static_cast<bool>(file);
}

namespace {

/// The processor's brand string, from cpuid.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(brand.find_last_not_of(std::string(" \0", 2)) + 1);
    brand.erase(0, brand.find_first_not_of(' '));
    if (!brand.empty()) return brand;
  }
#endif
  return "unknown";
}

}  // namespace

std::map<std::string, std::string> HostRecord() {
  std::map<std::string, std::string> host;
  host["cpu"] = CpuModel();
  host["nproc"] = std::to_string(std::thread::hardware_concurrency());
  utsname uts{};
  host["kernel"] = uname(&uts) == 0 ? uts.release : "unknown";
#if defined(__clang__)
  host["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host["compiler"] = std::string("gcc ") + __VERSION__;
#else
  host["compiler"] = "unknown";
#endif
  host["build_type"] = MIPSBENCH_BUILD_TYPE;
  host["git_sha"] = MIPSBENCH_GIT_SHA;
  host["gemm_kernel"] = mips::ToString(mips::ActiveGemmKernel());
  const mips::GemmKernelProbe probe = mips::ProbeGemmKernels();
  for (const auto& variant : probe.variants) {
    if (!variant.supported) continue;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", variant.gflops);
    host[std::string("gemm_probe_gflops.") + mips::ToString(variant.kernel)] =
        buf;
  }
  return host;
}

double HeapInUseMb() {
  malloc_trim(0);  // shrinks every arena's unbinned top chunk
  char* buffer = nullptr;
  std::size_t length = 0;
  std::FILE* stream = open_memstream(&buffer, &length);
  if (stream == nullptr) return 0;
  malloc_info(0, stream);
  std::fclose(stream);
  const std::string xml(buffer, length);
  std::free(buffer);
  // The process-wide totals follow the per-arena sections, so each tag's
  // last occurrence is the total.
  const auto last_size = [&xml](const char* tag) {
    const std::size_t at = xml.rfind(tag);
    if (at == std::string::npos) return 0.0;
    const std::size_t size = xml.find("size=\"", at);
    return size == std::string::npos ? 0.0 : std::atof(&xml[size + 6]);
  };
  const double in_use = last_size("<system type=\"current\"") -
                        last_size("<total type=\"fast\"") -
                        last_size("<total type=\"rest\"") +
                        last_size("<total type=\"mmap\"");
  return in_use / (1024.0 * 1024.0);
}

mips::MFModel MakeWorkloadModel(const std::string& id, double scale) {
  auto preset = mips::FindModelPreset(id);
  preset.status().CheckOK();
  auto model = mips::MakeModel(*preset, scale);
  model.status().CheckOK();
  return std::move(model).value();
}

mips::TopKResult ReferenceTopK(const Real* queries, Index num_rows,
                               const mips::ConstRowBlock& items, Index k) {
  const Index n = items.rows();
  const Index f = items.cols();
  mips::Matrix scores(1, n);
  mips::TopKResult out(num_rows, k);
  std::vector<mips::TopKEntry> row(static_cast<std::size_t>(n));
  for (Index q = 0; q < num_rows; ++q) {
    mips::GemmNT(queries + static_cast<std::size_t>(q) * f, 1, items.data(),
                 n, f, /*alpha=*/1, /*beta=*/0, scores.data(), n);
    for (Index i = 0; i < n; ++i) row[i] = {i, scores.data()[i]};
    const Index kept = std::min(k, n);
    std::partial_sort(row.begin(), row.begin() + kept, row.end(),
                      mips::BetterEntry);
    mips::TopKEntry* dst = out.Row(q);
    for (Index e = 0; e < k; ++e) {
      dst[e] = e < kept ? row[e]
                        : mips::TopKEntry{
                              -1, -std::numeric_limits<Real>::infinity()};
    }
  }
  return out;
}

bool RowMatches(const mips::TopKEntry* got, const mips::TopKEntry* want,
                Index k, bool exact) {
  for (Index e = 0; e < k; ++e) {
    if (got[e].item != want[e].item) return false;
    if (want[e].item < 0) continue;
    const Real diff = std::abs(got[e].score - want[e].score);
    if (exact ? diff != 0 : diff > 1e-9 * (1 + std::abs(want[e].score))) {
      return false;
    }
  }
  return true;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace mipsbench
