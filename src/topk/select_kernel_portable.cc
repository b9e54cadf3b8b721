// Portable variant of the selection scan: one score (and bound) per
// comparison.  It defines the positions the SIMD variants must return.

#include "topk/select_kernel.h"

namespace mips {

Index SelectScanPortable(const Real* scores, const Real* bounds, Index begin,
                         Index n, Real threshold) {
  Index p = begin;
  if (bounds == nullptr) {
    while (p < n && !(scores[p] >= threshold)) ++p;
    return p;
  }
  while (p < n && !(scores[p] >= threshold) && !(bounds[p] < threshold)) ++p;
  return p;
}

}  // namespace mips
