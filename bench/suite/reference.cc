#include "reference.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

namespace mipsbench {
namespace {

// The pass scores a few query rows against a block of rows that fills
// most of a core's L2, writes the scores out and scans each query's
// best: the inner loop of a brute-force top-k.  Over the sets of runs
// tried, this pass alone tracked the workloads' slowdowns as well as or
// better than a 4 MB memory stream, an AVX-512 multiply-add loop, or
// either of those added to it.
constexpr std::size_t kQueries = 8;
constexpr std::size_t kRows = 4096;
constexpr std::size_t kDims = 50;
constexpr std::size_t kBufferBytes =
    (kQueries * kDims + kRows * kDims + kQueries * kRows) * sizeof(double);

void Fill(double* v, std::size_t n, uint64_t seed) {
  uint64_t state = seed;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v[i] = static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  }
}

}  // namespace

ReferenceClock::ReferenceClock() {
  void* mapped = mmap(nullptr, kBufferBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) std::abort();
  buffer_ = static_cast<double*>(mapped);
  queries_ = buffer_;
  rows_ = queries_ + kQueries * kDims;
  scores_ = rows_ + kRows * kDims;
  Fill(queries_, kQueries * kDims, 1);
  Fill(rows_, kRows * kDims, 2);
  Fill(scores_, kQueries * kRows, 3);
  ticks_ms_.reserve(1 << 14);
}

ReferenceClock::~ReferenceClock() { munmap(buffer_, kBufferBytes); }

void ReferenceClock::Pass() {
  for (std::size_t q = 0; q < kQueries; ++q) {
    const double* query = &queries_[q * kDims];
    double* scores = &scores_[q * kRows];
    for (std::size_t r = 0; r < kRows; ++r) {
      const double* row = &rows_[r * kDims];
      double dot = 0;
      for (std::size_t d = 0; d < kDims; ++d) dot += query[d] * row[d];
      scores[r] = dot;
    }
    sink_ += *std::max_element(scores, scores + kRows);
  }
  asm volatile("" : : "g"(scores_) : "memory");
}

void ReferenceClock::Tick() {
  // The untimed pass brings the buffers back into the caches the
  // workload's last operation used, so the timed pass does not depend on
  // how much of them that operation evicted.
  Pass();
  const auto start = std::chrono::steady_clock::now();
  Pass();
  const auto end = std::chrono::steady_clock::now();
  ticks_ms_.push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
}

double ReferenceClock::median_ms() const {
  if (ticks_ms_.empty()) return kNominalMs;
  std::vector<double> sorted = ticks_ms_;
  const std::size_t mid = sorted.size() / 2;
  std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
  if (sorted.size() % 2 == 1) return sorted[mid];
  const double upper = sorted[mid];
  const double lower = *std::max_element(sorted.begin(), sorted.begin() + mid);
  return (lower + upper) / 2;
}

}  // namespace mipsbench
