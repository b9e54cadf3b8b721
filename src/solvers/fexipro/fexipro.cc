#include "solvers/fexipro/fexipro.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>

#include "common/timer.h"
#include "linalg/blas.h"
#include "solvers/registry.h"
#include "topk/topk_heap.h"

namespace mips {

// Per-query scratch buffers: the user vector in SVD space, in integer
// space, and its derived norms/masses.
struct FexiproSolver::QueryScratch {
  std::vector<Real> svd_user;       // f
  std::vector<Real> reduced_user;   // f + 1 (SIR only)
  std::vector<int16_t> quant_user;  // int_dims
  Real user_norm = 0;
  Real tail_norm = 0;               // ||u'[h:f)||
  Real user_scale = 1;
  int64_t user_l1 = 0;
};

Status FexiproSolver::Build() {
  if (items_.rows() <= 0) {
    return Status::InvalidArgument("item set is empty");
  }

  WallTimer timer;
  const Index n = items_.rows();
  const Index f = items_.cols();

  // --- S: SVD basis and transformed items. ---
  auto svd =
      fexipro::ComputeSvdTransform(items_, options_.svd_energy_fraction);
  MIPS_RETURN_IF_ERROR(svd.status());
  svd_ = std::move(svd.value());
  Matrix transformed = fexipro::ApplySvdToRows(svd_, items_);

  // --- Sort by descending norm (orthogonal transform preserves norms). ---
  std::vector<Real> raw_norms(static_cast<std::size_t>(n));
  RowNorms(transformed.data(), n, f, raw_norms.data());
  ids_.resize(static_cast<std::size_t>(n));
  std::iota(ids_.begin(), ids_.end(), 0);
  std::stable_sort(ids_.begin(), ids_.end(), [&](Index a, Index b) {
    return raw_norms[static_cast<std::size_t>(a)] >
           raw_norms[static_cast<std::size_t>(b)];
  });
  sorted_items_.Resize(n, f);
  norms_.resize(static_cast<std::size_t>(n));
  for (Index r = 0; r < n; ++r) {
    const Index src = ids_[static_cast<std::size_t>(r)];
    std::memcpy(sorted_items_.Row(r), transformed.Row(src),
                static_cast<std::size_t>(f) * sizeof(Real));
    norms_[static_cast<std::size_t>(r)] =
        raw_norms[static_cast<std::size_t>(src)];
  }

  const Index h = svd_.head_dims;
  tail_norms_.resize(static_cast<std::size_t>(n));
  for (Index r = 0; r < n; ++r) {
    tail_norms_[static_cast<std::size_t>(r)] =
        Nrm2(sorted_items_.Row(r) + h, f - h);
  }

  // --- R (SIR only) and I: integer-space items. ---
  if (options_.use_reduction) {
    reduction_ = fexipro::MakeReduction(ConstRowBlock(sorted_items_));
    int_dims_ = reduction_.out_dims();
    Matrix reduced(n, int_dims_);
    for (Index r = 0; r < n; ++r) {
      reduction_.ApplyToItem(sorted_items_.Row(r), reduced.Row(r));
    }
    item_quantizer_ =
        fexipro::MakeQuantizer(fexipro::MaxAbsCoordinate(ConstRowBlock(reduced)));
    quantized_items_.resize(static_cast<std::size_t>(n) * int_dims_);
    item_l1_.resize(static_cast<std::size_t>(n));
    for (Index r = 0; r < n; ++r) {
      int16_t* q = quantized_items_.data() +
                   static_cast<std::size_t>(r) * int_dims_;
      item_quantizer_.Quantize(reduced.Row(r), int_dims_, q);
      item_l1_[static_cast<std::size_t>(r)] = fexipro::L1Int16(q, int_dims_);
    }
  } else {
    int_dims_ = f;
    item_quantizer_ = fexipro::MakeQuantizer(
        fexipro::MaxAbsCoordinate(ConstRowBlock(sorted_items_)));
    quantized_items_.resize(static_cast<std::size_t>(n) * int_dims_);
    item_l1_.resize(static_cast<std::size_t>(n));
    for (Index r = 0; r < n; ++r) {
      int16_t* q = quantized_items_.data() +
                   static_cast<std::size_t>(r) * int_dims_;
      item_quantizer_.Quantize(sorted_items_.Row(r), int_dims_, q);
      item_l1_[static_cast<std::size_t>(r)] = fexipro::L1Int16(q, int_dims_);
    }
  }
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Index FexiproSolver::QueryOneUser(const Real* user, Index k,
                                  const ItemMask& mask, QueryScratch* s,
                                  TopKEntry* out_row) const {
  const Index n = sorted_items_.rows();
  const Index f = sorted_items_.cols();
  const Index h = svd_.head_dims;

  // Transform the query once: SVD rotation, tail norm, integer image.
  s->svd_user.resize(static_cast<std::size_t>(f));
  svd_.Apply(user, s->svd_user.data());
  const Real* su = s->svd_user.data();
  s->user_norm = Nrm2(su, f);
  s->tail_norm = Nrm2(su + h, f - h);

  const Real* int_source = su;
  if (options_.use_reduction) {
    s->reduced_user.resize(static_cast<std::size_t>(int_dims_));
    reduction_.ApplyToQuery(su, s->reduced_user.data());
    int_source = s->reduced_user.data();
  }
  s->quant_user.resize(static_cast<std::size_t>(int_dims_));
  Real max_abs = 0;
  for (Index d = 0; d < int_dims_; ++d) {
    max_abs = std::max(max_abs, std::abs(int_source[d]));
  }
  const fexipro::Int16Quantizer uq = fexipro::MakeQuantizer(max_abs);
  s->user_scale = uq.scale;
  uq.Quantize(int_source, int_dims_, s->quant_user.data());
  s->user_l1 = fexipro::L1Int16(s->quant_user.data(), int_dims_);

  // The bounds are computed in SVD space but the heap holds
  // ORIGINAL-space scores (see the Push below): the rotation preserves
  // dots and norms only to O(f * eps) relative rounding error, so a
  // mathematically valid SVD-space upper bound can land a hair below an
  // item's original-space score.  Every bound is therefore inflated by a
  // slack proportional to ||u'|| * ||i'|| (>= |score| by Cauchy-Schwarz,
  // so it is the right scale) before it may prune.  The constant is
  // generous — 64 * eps * f covers the rotation's O(f)-term rounding
  // with an order of magnitude to spare — and costs nothing: it only
  // ever makes pruning (never correctness) infinitesimally lazier.
  const Real slack_rel = 64 * std::numeric_limits<Real>::epsilon() *
                         static_cast<Real>(f);
  TopKHeap heap(k);
  Index exact = 0;
  for (Index pos = 0; pos < n; ++pos) {
    const Real min_h = heap.MinScore();
    const Real slack =
        slack_rel * norms_[static_cast<std::size_t>(pos)] * s->user_norm;
    // (1) Length bound: the scan order is norm-descending, so the first
    // failing item ends the entire query.  All bounds here prune
    // strictly (`< min_h`): a bound equal to the heap minimum can cover
    // a tied score, and the tied item must reach Push for the id
    // tie-break (topk_heap.h).
    if (heap.full() &&
        norms_[static_cast<std::size_t>(pos)] * s->user_norm + slack <
            min_h) {
      break;
    }
    // A masked item is never offered, so its bounds need no computing.
    const Index id = ids_[static_cast<std::size_t>(pos)];
    if (mask.Contains(id)) continue;
    if (heap.full()) {
      // (2) Integer bound.
      if (options_.use_int_bound) {
        const int16_t* qi = quantized_items_.data() +
                            static_cast<std::size_t>(pos) * int_dims_;
        const int64_t idot = fexipro::DotInt16(s->quant_user.data(), qi,
                                               int_dims_);
        const Real int_bound = fexipro::QuantizedUpperBound(
            idot, s->user_l1, item_l1_[static_cast<std::size_t>(pos)],
            int_dims_, s->user_scale, item_quantizer_.scale);
        if (int_bound + slack < min_h) continue;
      }
      // (3) SVD partial product + Cauchy-Schwarz tail.
      if (options_.use_svd_bound) {
        const Real head = Dot(su, sorted_items_.Row(pos), h);
        const Real svd_bound =
            head + s->tail_norm * tail_norms_[static_cast<std::size_t>(pos)];
        if (svd_bound + slack < min_h) continue;
      }
    }
    // (4) Exact score — over the ORIGINAL vectors, not the SVD images:
    // the rotation is item-set-dependent and only ulp-preserves dots, so
    // scoring in SVD space would let exact cross-shard ties diverge
    // between sharded and unsharded runs (see the file comment in
    // fexipro.h).  The original row is items_.Row(id): the sorted copy
    // holds transformed vectors only.
    ++exact;
    heap.Push(id, Dot(user, items_.Row(id), f));
  }
  heap.ExtractDescending(out_row);
  return exact;
}

Status FexiproSolver::Query(Index k, const QueryRows& rows,
                            const ItemMask& mask, TopKResult* out) {
  const Index q = rows.size;
  const Index f = items_.cols();
  std::atomic<int64_t> total_exact{0};
  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    QueryScratch scratch;
    int64_t exact = 0;
    for (int64_t r = begin; r < end; ++r) {
      const Real* user = rows.Row(static_cast<Index>(r), f);
      exact += QueryOneUser(user, k, mask, &scratch,
                            out->Row(static_cast<Index>(r)));
    }
    total_exact.fetch_add(exact, std::memory_order_relaxed);
  });
  last_exact_fraction_.store(
      static_cast<double>(total_exact.load()) /
          (static_cast<double>(q) * static_cast<double>(items_.rows())),
      std::memory_order_relaxed);
  return Status::OK();
}

namespace {

// One schema + factory shared by the SI/SIR variants: "fexipro-si" and
// "fexipro-sir" differ only in the use_reduction default, and the bare
// "fexipro" name is a hidden alias so specs can say
// "fexipro:use_reduction=true" instead of picking a variant name.
SolverSchema FexiproSchema(std::string name, std::string summary,
                           bool reduction_default) {
  SolverSchema schema(std::move(name), std::move(summary));
  schema
      .Bool("use_reduction", reduction_default,
            "apply the non-negativity reduction before quantization (SIR)")
      .Real("svd_energy_fraction", FexiproOptions{}.svd_energy_fraction,
            "energy share captured by the SVD head dimensions")
      .Bool("use_int_bound", FexiproOptions{}.use_int_bound,
            "enable the int16 cascade stage")
      .Bool("use_svd_bound", FexiproOptions{}.use_svd_bound,
            "enable the SVD partial-bound stage");
  return schema;
}

StatusOr<std::unique_ptr<MipsSolver>> MakeFexipro(const ParamMap& params) {
  FexiproOptions options;
  options.use_reduction = params.GetBool("use_reduction");
  options.svd_energy_fraction =
      static_cast<Real>(params.GetReal("svd_energy_fraction"));
  options.use_int_bound = params.GetBool("use_int_bound");
  options.use_svd_bound = params.GetBool("use_svd_bound");
  if (options.svd_energy_fraction <= 0 || options.svd_energy_fraction > 1) {
    return Status::InvalidArgument("svd_energy_fraction must be in (0, 1]");
  }
  return std::unique_ptr<MipsSolver>(new FexiproSolver(options));
}

const SolverRegistrar kFexiproSiRegistrar(
    FexiproSchema("fexipro-si", "FEXIPRO with SVD + integer bounds (SIGMOD'17)",
                  /*reduction_default=*/false),
    MakeFexipro);
const SolverRegistrar kFexiproSirRegistrar(
    FexiproSchema("fexipro-sir",
                  "FEXIPRO-SI plus the non-negativity reduction",
                  /*reduction_default=*/true),
    MakeFexipro);
const SolverRegistrar kFexiproAliasRegistrar(
    FexiproSchema("fexipro", "alias of fexipro-si (set use_reduction for SIR)",
                  /*reduction_default=*/false),
    MakeFexipro, /*hidden=*/true);

}  // namespace

}  // namespace mips
