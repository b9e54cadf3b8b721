// Naive brute-force MIPS: a double loop of vector inner products.
//
// This is the Section II-B strawman ("repeatedly calling sdot in a double
// for-loop over the user and item vectors").  It computes exactly the same
// scores as BMM but with no cache blocking, so the BMM-vs-naive gap in the
// micro benches quantifies the paper's "constant factor" argument.

#ifndef MIPS_SOLVERS_NAIVE_H_
#define MIPS_SOLVERS_NAIVE_H_

#include "solvers/solver.h"

namespace mips {

/// Brute force via per-pair dot products (vectorized dots, no blocking).
class NaiveSolver : public MipsSolver {
 public:
  std::string name() const override { return "naive"; }
  bool batches_users() const override { return false; }

 protected:
  Status Query(Index k, const QueryRows& rows, const ItemMask& mask,
               TopKResult* out) override;
};

}  // namespace mips

#endif  // MIPS_SOLVERS_NAIVE_H_
