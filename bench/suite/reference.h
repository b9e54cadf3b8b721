// The reference clock: a fixed pass of benchmark-owned work, timed
// between a workload's own operations, that measures how fast the shared
// host is running at the moment.
//
// On the shared 4-core host the baselines were taken on, the same
// single-threaded batch-flat pass ran anywhere from 43 to 100 ms with no
// change of code, drifting over minutes as other tenants loaded the
// machine; the spread of ten runs reached 0.29.  The reference pass slows
// down with the host, so dividing its slowdown out of a workload's times
// leaves what the code under test changed.  The pass is compiled in its
// own target with fixed flags and uses none of the library, so a library
// change cannot make it faster or slower.

#ifndef MIPSBENCH_REFERENCE_H_
#define MIPSBENCH_REFERENCE_H_

#include <cmath>
#include <vector>

namespace mipsbench {

class ReferenceClock {
 public:
  /// Median pass time on the host the baselines were taken on, at a quiet
  /// moment.  A time read on the reference clock is the time the same
  /// work would have taken on that host at that speed.
  static constexpr double kNominalMs = 1.0;
  /// Passes run back to back before each set-up, which a set-up clock
  /// reads on its own: the host's speed switched within seconds, so the
  /// passes of a window that follows describe the set-ups poorly.
  static constexpr int kTicksPerSetup = 20;
  /// How fully set-ups follow the pass (see slowdown()).  Every workload's
  /// set-up runs OPTIMUS's timed sampling, whose length grows with timing
  /// noise.  Over the sets with set-up clocks (README, Host speed), 0.5
  /// kept the sets' set-up medians within 7% and 0.75 within 15%.
  static constexpr double kSetupTracking = 0.5;

  /// Maps and touches the pass's buffers, so no pass pays for page
  /// faults.  They are mapped outside the heap, so heap_mb leaves them
  /// out.
  ReferenceClock();
  ~ReferenceClock();
  ReferenceClock(const ReferenceClock&) = delete;
  ReferenceClock& operator=(const ReferenceClock&) = delete;

  /// Runs the pass twice and records how long the second took: 2-3 ms
  /// in all.
  void Tick();

  /// Median pass time so far, in ms (kNominalMs before the first pass).
  double median_ms() const;
  /// How much slower than nominal the host ran, as work that follows the
  /// pass with exponent `tracking` feels it:
  /// (median_ms / kNominalMs) ^ tracking.  Work bound by the core alone
  /// follows it fully (1); work that also waits on memory, or whose amount
  /// grows with timing noise, follows it less.
  double slowdown(double tracking) const {
    return std::pow(median_ms() / kNominalMs, tracking);
  }

 private:
  void Pass();

  /// One mapping: queries (kQueries x kDims), rows (kRows x kDims), then
  /// scores (kQueries x kRows).
  double* buffer_ = nullptr;
  double* queries_ = nullptr;
  double* rows_ = nullptr;
  double* scores_ = nullptr;
  std::vector<double> ticks_ms_;
  double sink_ = 0;
};

}  // namespace mipsbench

#endif  // MIPSBENCH_REFERENCE_H_
