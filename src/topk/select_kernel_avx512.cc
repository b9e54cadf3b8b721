// AVX-512 variant of the row insert: the candidate is compared with the
// whole record at once, and the record is rewritten with masked moves,
// with no branch on any score.  Compiled with -mavx512f in its own TU;
// MIPS_GEMM_NO_AVX512 is defined at configure time when the compiler
// cannot target AVX-512, in which case this TU forwards to the portable
// insert (same record by the select_kernel.h contract).

#include "topk/select_kernel.h"

#if !defined(MIPS_GEMM_NO_AVX512)

#include <immintrin.h>

namespace mips {

void RowTopInsertAvx512(RowTop* top, Index k, Real score, Index id) {
  static_assert(kRowTopWidth == 16, "two score vectors, one id vector");
  const __m512d s = _mm512_set1_pd(score);
  const __m512i item = _mm512_set1_epi32(id);
  const __m512d lo = _mm512_load_pd(top->scores);
  const __m512d hi = _mm512_load_pd(top->scores + 8);
  const __m512i ids = _mm512_load_si512(top->ids);
  // The lanes below k that are better than the candidate under
  // BetterEntry; their count is its slot.
  const uint32_t higher =
      _mm512_cmp_pd_mask(lo, s, _CMP_GT_OQ) |
      (uint32_t{_mm512_cmp_pd_mask(hi, s, _CMP_GT_OQ)} << 8);
  const uint32_t tied =
      _mm512_cmp_pd_mask(lo, s, _CMP_EQ_OQ) |
      (uint32_t{_mm512_cmp_pd_mask(hi, s, _CMP_EQ_OQ)} << 8);
  const uint32_t lower_id = _mm512_cmplt_epi32_mask(ids, item);
  const uint32_t better =
      (higher | (tied & lower_id)) & ((uint32_t{1} << k) - 1);
  // The candidate goes to lane `slot` and every lane above it takes its
  // lower neighbour.  A slot of k moves only lanes at or past k, and a
  // slot of 16 (k = 16) none.
  const uint32_t at = uint32_t{1} << __builtin_popcount(better);
  const uint32_t above = ~(2 * at - 1);
  const __m512d lo_down = _mm512_castsi512_pd(_mm512_alignr_epi64(
      _mm512_castpd_si512(lo), _mm512_castpd_si512(lo), 7));
  const __m512d hi_down = _mm512_castsi512_pd(_mm512_alignr_epi64(
      _mm512_castpd_si512(hi), _mm512_castpd_si512(lo), 7));
  const __m512i ids_down = _mm512_alignr_epi32(ids, ids, 15);
  _mm512_store_pd(
      top->scores,
      _mm512_mask_mov_pd(
          _mm512_mask_mov_pd(lo, static_cast<__mmask8>(above), lo_down),
          static_cast<__mmask8>(at), s));
  _mm512_store_pd(
      top->scores + 8,
      _mm512_mask_mov_pd(
          _mm512_mask_mov_pd(hi, static_cast<__mmask8>(above >> 8), hi_down),
          static_cast<__mmask8>(at >> 8), s));
  _mm512_store_si512(
      top->ids,
      _mm512_mask_mov_epi32(
          _mm512_mask_mov_epi32(ids, static_cast<__mmask16>(above), ids_down),
          static_cast<__mmask16>(at), item));
}

bool SelectAvx512KernelCompiled() { return true; }

}  // namespace mips

#else  // MIPS_GEMM_NO_AVX512

namespace mips {

void RowTopInsertAvx512(RowTop* top, Index k, Real score, Index id) {
  RowTopInsertPortable(top, k, score, id);
}

bool SelectAvx512KernelCompiled() { return false; }

}  // namespace mips

#endif  // MIPS_GEMM_NO_AVX512
