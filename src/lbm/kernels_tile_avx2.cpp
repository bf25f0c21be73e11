/// \file kernels_tile_avx2.cpp
/// AVX2 instantiation of the tile kernels (4 doubles per register; a
/// full kTileWidth row is two vector iterations). Compiled with
/// `-mavx2 -ffp-contract=off` and only ever entered after the CPUID
/// dispatch in simd.cpp confirmed AVX2 — this TU includes nothing but
/// the tile ABI header so no shared inline function can be emitted here
/// with AVX encodings and COMDAT-merged into the portable path.
///
/// No FMA intrinsics on purpose: separate mul and add keep every lane
/// bit-identical to the scalar plan path (DESIGN.md, "Equivalence").

#include <cmath>
#include <cstdint>
#include <utility>

#include "lbm/kernels_tile.hpp"

#if defined(SLIPFLOW_HAVE_AVX2)
#include <immintrin.h>

namespace slipflow::lbm::tilek {
namespace {

struct VAvx2 {
  static constexpr std::int64_t kW = 4;
  __m256d v;

  static VAvx2 loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  static void storeu(double* p, VAvx2 a) { _mm256_storeu_pd(p, a.v); }
  static VAvx2 set1(double x) { return {_mm256_set1_pd(x)}; }
  static VAvx2 zero() { return {_mm256_setzero_pd()}; }
  static VAvx2 add(VAvx2 a, VAvx2 b) { return {_mm256_add_pd(a.v, b.v)}; }
  static VAvx2 sub(VAvx2 a, VAvx2 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  static VAvx2 mul(VAvx2 a, VAvx2 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static VAvx2 div(VAvx2 a, VAvx2 b) { return {_mm256_div_pd(a.v, b.v)}; }
  static VAvx2 select_gt(VAvx2 a, VAvx2 b, VAvx2 val) {
    // lanes failing a > b get +0.0, like the scalar ternary's Vec3{}
    return {_mm256_and_pd(_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ), val.v)};
  }
  static VAvx2 blend_gt(VAvx2 a, VAvx2 b, VAvx2 t, VAvx2 f) {
    // lane: a > b ? t : f
    return {_mm256_blendv_pd(f.v, t.v, _mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ))};
  }
  static VAvx2 neg(VAvx2 a) {
    // exact sign flip (xor), == the scalar unary minus bit for bit
    return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
  }
  static VAvx2 sqrt(VAvx2 a) { return {_mm256_sqrt_pd(a.v)}; }

  // Masked ops: lane i loads/stores iff bit i of m is set; dead lanes
  // read +0.0 and are never written. maskload/maskstore never fault on
  // dead lanes, so a lane whose address lies outside the field is safe.
  static __m256i lane_mask(unsigned m) {
    const __m256i bits = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(static_cast<long long>(m)), bits),
        bits);
  }
  static VAvx2 loadu_m(const double* p, unsigned m) {
    return {_mm256_maskload_pd(p, lane_mask(m))};
  }
  static void storeu_m(double* p, VAvx2 a, unsigned m) {
    _mm256_maskstore_pd(p, lane_mask(m), a.v);
  }
};

#include "lbm/kernels_tile.inl"

}  // namespace

const Backend* tile_backend_avx2() {
  static constexpr Backend b{&stream_rows_impl<VAvx2>, &collide_impl<VAvx2>,
                             &forces_rows_impl<VAvx2>, &density_impl<VAvx2>};
  return &b;
}

}  // namespace slipflow::lbm::tilek

#endif  // SLIPFLOW_HAVE_AVX2
