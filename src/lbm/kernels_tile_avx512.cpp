/// \file kernels_tile_avx512.cpp
/// AVX-512F instantiation of the tile kernels (8 doubles per register —
/// exactly one full kTileWidth row per vector iteration). Compiled with
/// `-mavx512f -ffp-contract=off`; see kernels_tile_avx2.cpp for the
/// isolation and no-FMA rationale.

#include <cmath>
#include <cstdint>
#include <utility>

#include "lbm/kernels_tile.hpp"

#if defined(SLIPFLOW_HAVE_AVX512)
#include <immintrin.h>

// GCC 12's avx512fintrin.h trips -Wmaybe-uninitialized inside its own
// _mm512_maskz_loadu_pd expansion (the masked-off lanes, which maskz
// zeroes by definition) — a header false positive, not our code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace slipflow::lbm::tilek {
namespace {

struct VAvx512 {
  static constexpr std::int64_t kW = 8;
  __m512d v;

  static VAvx512 loadu(const double* p) { return {_mm512_loadu_pd(p)}; }
  static void storeu(double* p, VAvx512 a) { _mm512_storeu_pd(p, a.v); }
  static VAvx512 set1(double x) { return {_mm512_set1_pd(x)}; }
  static VAvx512 zero() { return {_mm512_setzero_pd()}; }
  static VAvx512 add(VAvx512 a, VAvx512 b) { return {_mm512_add_pd(a.v, b.v)}; }
  static VAvx512 sub(VAvx512 a, VAvx512 b) { return {_mm512_sub_pd(a.v, b.v)}; }
  static VAvx512 mul(VAvx512 a, VAvx512 b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static VAvx512 div(VAvx512 a, VAvx512 b) { return {_mm512_div_pd(a.v, b.v)}; }
  static VAvx512 select_gt(VAvx512 a, VAvx512 b, VAvx512 val) {
    const __mmask8 m = _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ);
    return {_mm512_maskz_mov_pd(m, val.v)};
  }
  static VAvx512 blend_gt(VAvx512 a, VAvx512 b, VAvx512 t, VAvx512 f) {
    // lane: a > b ? t : f
    const __mmask8 m = _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ);
    return {_mm512_mask_blend_pd(m, f.v, t.v)};
  }
  static VAvx512 neg(VAvx512 a) {
    // exact sign flip via integer xor (AVX512F has no xor_pd; DQ does)
    const __m512i sign = _mm512_set1_epi64(static_cast<long long>(1ULL << 63));
    return {_mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a.v), sign))};
  }
  static VAvx512 sqrt(VAvx512 a) { return {_mm512_sqrt_pd(a.v)}; }

  // Masked ops: lane i loads/stores iff bit i of m is set; dead lanes
  // read +0.0 and are never written (masked lanes cannot fault, so a
  // lane whose address lies outside the field is safe).
  static VAvx512 loadu_m(const double* p, unsigned m) {
    return {_mm512_maskz_loadu_pd(static_cast<__mmask8>(m), p)};
  }
  static void storeu_m(double* p, VAvx512 a, unsigned m) {
    _mm512_mask_storeu_pd(p, static_cast<__mmask8>(m), a.v);
  }
};

#include "lbm/kernels_tile.inl"

}  // namespace

const Backend* tile_backend_avx512() {
  static constexpr Backend b{&stream_rows_impl<VAvx512>,
                             &collide_impl<VAvx512>,
                             &forces_rows_impl<VAvx512>,
                             &density_impl<VAvx512>};
  return &b;
}

}  // namespace slipflow::lbm::tilek

#endif  // SLIPFLOW_HAVE_AVX512
