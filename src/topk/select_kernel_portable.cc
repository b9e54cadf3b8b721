// Portable variant of the tile scan: one cell (and bound) per comparison.
// It defines the masks the SIMD variants must return.

#include "topk/select_kernel.h"

namespace mips {

uint64_t SelectTilePortable(const Real* tile, const Real* bounds,
                            const Real* thresholds) {
  uint64_t hits = 0;
  for (Index r = 0; r < kGemmMR; ++r) {
    for (Index j = 0; j < kGemmNR; ++j) {
      const bool hit = tile[r * kGemmNR + j] >= thresholds[r] ||
                       (bounds != nullptr && bounds[j] < thresholds[r]);
      hits |= static_cast<uint64_t>(hit) << (r * kGemmNR + j);
    }
  }
  return hits;
}

}  // namespace mips
