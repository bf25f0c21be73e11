/// \file kernels_tile_autovec.cpp
/// Portable instantiation of the tile kernels: the "vector" type is a
/// plain lane array whose operation loops any optimizing compiler
/// unrolls and auto-vectorizes to whatever the build's baseline ISA
/// offers (SSE2 on default x86 builds, NEON on arm, ...). This is the
/// only tile backend in -DSLIPFLOW_DISABLE_SIMD=ON builds and on
/// non-x86 targets. Per-lane operation order matches the scalar path
/// and this TU compiles under the determinism contract's
/// -ffp-contract=off, so results are bit-identical to it in every build
/// flavour.

#include <cmath>
#include <cstdint>

#include "lbm/kernels_tile.hpp"

namespace slipflow::lbm::tilek {
namespace {

struct VGen {
  static constexpr std::int64_t kW = kTileWidth;
  double v[kW];

  static VGen loadu(const double* p) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = p[i];
    return r;
  }
  static void storeu(double* p, VGen a) {
    for (std::int64_t i = 0; i < kW; ++i) p[i] = a.v[i];
  }
  static VGen set1(double x) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = x;
    return r;
  }
  static VGen zero() { return set1(0.0); }
  static VGen add(VGen a, VGen b) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  static VGen sub(VGen a, VGen b) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  static VGen mul(VGen a, VGen b) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  static VGen div(VGen a, VGen b) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = a.v[i] / b.v[i];
    return r;
  }
  static VGen select_gt(VGen a, VGen b, VGen val) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i)
      r.v[i] = a.v[i] > b.v[i] ? val.v[i] : 0.0;
    return r;
  }
  static VGen blend_gt(VGen a, VGen b, VGen t, VGen f) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i)
      r.v[i] = a.v[i] > b.v[i] ? t.v[i] : f.v[i];
    return r;
  }
  static VGen neg(VGen a) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = -a.v[i];
    return r;
  }
  static VGen sqrt(VGen a) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i) r.v[i] = std::sqrt(a.v[i]);
    return r;
  }

  // Masked ops: lane i loads/stores iff bit i of m is set; dead lanes
  // read +0.0 and their addresses are never touched.
  static VGen loadu_m(const double* p, unsigned m) {
    VGen r;
    for (std::int64_t i = 0; i < kW; ++i)
      r.v[i] = (m >> i) & 1u ? p[i] : 0.0;
    return r;
  }
  static void storeu_m(double* p, VGen a, unsigned m) {
    for (std::int64_t i = 0; i < kW; ++i)
      if ((m >> i) & 1u) p[i] = a.v[i];
  }
};

#include "lbm/kernels_tile.inl"

}  // namespace

const Backend* tile_backend_autovec() {
  static constexpr Backend b{&stream_rows_impl<VGen>, &collide_impl<VGen>,
                             &forces_rows_impl<VGen>, &density_impl<VGen>};
  return &b;
}

}  // namespace slipflow::lbm::tilek
