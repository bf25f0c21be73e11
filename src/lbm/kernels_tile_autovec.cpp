/// \file kernels_tile_autovec.cpp
/// Portable instantiation of the tile kernels: the "vector" type is a
/// GCC/Clang generic vector of kTileWidth doubles, which the compiler
/// lowers to whatever the build's baseline ISA offers (SSE2 on default
/// x86 builds, NEON on arm, ...). This is the
/// only tile backend in -DSLIPFLOW_DISABLE_SIMD=ON builds and on
/// non-x86 targets. Per-lane operation order matches the scalar path
/// and this TU compiles under the determinism contract's
/// -ffp-contract=off, so results are bit-identical to it in every build
/// flavour.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "lbm/kernels_tile.hpp"

namespace slipflow::lbm::tilek {
namespace {

/// kTileWidth doubles as one generic vector: its element-wise operators
/// stay in registers (four SSE2 pairs on default x86 builds). A plain
/// lane array is a 64-byte aggregate instead, and in the kernels'
/// straight-line per-direction code GCC gives every such temporary its
/// own stack slot (the fused stream ran ~3x slower that way).
typedef double Lanes
    __attribute__((vector_size(kTileWidth * sizeof(double))));
static_assert(kTileWidth == 8, "set1 lists the lanes");

struct VGen {
  static constexpr std::int64_t kW = kTileWidth;
  Lanes v;

  // Operands by const reference: GCC notes a changed ABI for 64-byte
  // vectors passed by value (-Wpsabi), though nothing here crosses a TU.
  static VGen loadu(const double* p) {
    VGen r;
    std::memcpy(&r.v, p, sizeof r.v);
    return r;
  }
  static void storeu(double* p, const VGen& a) {
    std::memcpy(p, &a.v, sizeof a.v);
  }
  static VGen set1(double x) { return {Lanes{x, x, x, x, x, x, x, x}}; }
  static VGen zero() { return set1(0.0); }
  static VGen add(const VGen& a, const VGen& b) { return {a.v + b.v}; }
  static VGen sub(const VGen& a, const VGen& b) { return {a.v - b.v}; }
  static VGen mul(const VGen& a, const VGen& b) { return {a.v * b.v}; }
  static VGen div(const VGen& a, const VGen& b) { return {a.v / b.v}; }
  static VGen select_gt(const VGen& a, const VGen& b, const VGen& val) {
    return {a.v > b.v ? val.v : zero().v};
  }
  static VGen blend_gt(const VGen& a, const VGen& b, const VGen& t,
                       const VGen& f) {
    return {a.v > b.v ? t.v : f.v};
  }
  static VGen neg(const VGen& a) { return {-a.v}; }
  static VGen sqrt(const VGen& a) {
    double l[kW];
    storeu(l, a);
    for (double& x : l) x = std::sqrt(x);
    return loadu(l);
  }

  // Masked ops: lane i loads/stores iff bit i of m is set; dead lanes
  // read +0.0 and their addresses are never touched. The load's lane
  // loop stays rolled: unrolled, GCC hoists all 8 lane tests of all 18
  // psi directions out of the force pass's component loop and spills
  // them, which made that pass ~10% slower.
  static VGen loadu_m(const double* p, unsigned m) {
    double l[kW];
#pragma GCC unroll 1
    for (std::int64_t i = 0; i < kW; ++i) l[i] = (m >> i) & 1u ? p[i] : 0.0;
    return loadu(l);
  }
  static void storeu_m(double* p, const VGen& a, unsigned m) {
    double l[kW];
    storeu(l, a);
    for (std::int64_t i = 0; i < kW; ++i)
      if ((m >> i) & 1u) p[i] = l[i];
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
