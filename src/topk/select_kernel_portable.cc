// Portable variant of the row insert: a sorted insert that walks up from
// lane k - 1.  It defines the records the AVX-512 variant must write.

#include "topk/select_kernel.h"

namespace mips {

void RowTopInsertPortable(RowTop* top, Index k, Real score, Index id) {
  // Lane e is better than the candidate under BetterEntry.
  const auto better = [&](Index e) {
    return top->scores[e] > score ||
           (top->scores[e] == score && top->ids[e] < id);
  };
  Index slot = k;
  while (slot > 0 && !better(slot - 1)) --slot;
  if (slot == k) return;
  for (Index e = k - 1; e > slot; --e) {
    top->scores[e] = top->scores[e - 1];
    top->ids[e] = top->ids[e - 1];
  }
  top->scores[slot] = score;
  top->ids[slot] = id;
}

}  // namespace mips
