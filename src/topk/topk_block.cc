#include "topk/topk_block.h"

#include "common/dcheck.h"
#include "linalg/simd_dispatch.h"
#include "topk/select_kernel.h"

namespace mips {
namespace {

/// The scan matching the installed GEMM kernel (linalg/simd_dispatch.h),
/// installing one first if none is.  One ISA choice governs the GEMM, Dot
/// and selection: a machine whose AVX-512 is slow for one is slow for all.
SelectScanFn ActiveSelectScan() {
  switch (ActiveGemmKernel()) {
    case GemmKernel::kAvx512:
      return SelectAvx512KernelCompiled() ? &SelectScanAvx512
                                          : &SelectScanPortable;
    case GemmKernel::kAvx2:
      return SelectAvx2KernelCompiled() ? &SelectScanAvx2
                                        : &SelectScanPortable;
    case GemmKernel::kPortable:
      break;
  }
  return &SelectScanPortable;
}

}  // namespace

Index SelectIntoHeap(const Real* scores, Index n, const Real* bounds,
                     Index item_offset, const Index* item_ids,
                     TopKHeap* heap) {
  MIPS_DCHECK(heap != nullptr);
  const SelectScanFn scan = ActiveSelectScan();
  Index p = 0;
  while (true) {
    // The scan skips every position the scalar loop would pass over
    // untouched: a score below the minimum (WouldAccept is false) whose
    // bound, if any, does not end the walk.  The minimum only rises, so
    // it is re-read after each push.
    const Real threshold = heap->MinScore();
    p = scan(scores, bounds, p, n, threshold);
    if (p >= n) return n;
    if (bounds != nullptr && bounds[p] < threshold) return p;
    heap->Push(item_ids != nullptr ? item_ids[p] : p + item_offset,
               scores[p]);
    ++p;
  }
}

void TopKFromRow(const Real* scores, Index n, Index k, Index item_offset,
                 const Index* item_ids, TopKEntry* out) {
  TopKHeap heap(k);
  SelectIntoHeap(scores, n, /*bounds=*/nullptr, item_offset, item_ids, &heap);
  heap.ExtractDescending(out);
}

void TopKFromScoreBlock(const Real* scores, Index m, Index n, Index lds,
                        Index k, Index item_offset, const Index* item_ids,
                        TopKResult* out, Index row_offset) {
  for (Index r = 0; r < m; ++r) {
    TopKFromRow(scores + static_cast<std::size_t>(r) * lds, n, k, item_offset,
                item_ids, out->Row(row_offset + r));
  }
}

}  // namespace mips
