#include "solvers/solver.h"

#include <cstring>
#include <numeric>

namespace mips {

Status MipsSolver::Prepare(const ConstRowBlock& users,
                           const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  prepared_ = false;
  users_ = users;
  items_ = items;
  MIPS_RETURN_IF_ERROR(Build());
  prepared_ = true;
  return Status::OK();
}

Status MipsSolver::TopK(Index k, const QueryRows& rows, const ItemMask& mask,
                        TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (!prepared_) return Status::FailedPrecondition("Prepare was not called");
  if (rows.ids != nullptr && rows.data != users_.data()) {
    return Status::InvalidArgument(
        "id rows must index the prepared user matrix");
  }
  if (!mask.ValidFor(items_.rows())) {
    return Status::InvalidArgument(
        "item mask must list ascending rows of the prepared items");
  }
  *out = TopKResult(rows.size, k);
  if (rows.size == 0) return Status::OK();
  return Query(k, rows, mask, out);
}

Status MipsSolver::TopKAll(Index k, TopKResult* out) {
  std::vector<Index> ids(static_cast<std::size_t>(users_.rows()));
  std::iota(ids.begin(), ids.end(), 0);
  return TopKForUsers(k, ids, out);
}

Matrix GatherRows(const ConstRowBlock& users, std::span<const Index> ids) {
  Matrix out(static_cast<Index>(ids.size()), users.cols());
  for (std::size_t r = 0; r < ids.size(); ++r) {
    std::memcpy(out.Row(static_cast<Index>(r)), users.Row(ids[r]),
                static_cast<std::size_t>(users.cols()) * sizeof(Real));
  }
  return out;
}

}  // namespace mips
