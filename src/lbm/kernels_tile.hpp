#pragma once
/// \file kernels_tile.hpp
/// Internal ABI between the tile-kernel dispatcher (kernels_tile.cpp)
/// and the per-ISA translation units (kernels_tile_{autovec,avx2,
/// avx512}.cpp).
///
/// The per-ISA TUs are compiled with their own -m flags, so they must
/// not instantiate code shared with the portable TUs: an inline function
/// from a common header compiled with AVX-512 enabled could be
/// COMDAT-merged over its portable twin and crash older CPUs. Hence this
/// header carries only plain-pointer context structs (bound from Slab by
/// the dispatcher) plus the tiny headers of constants it needs — the
/// per-ISA TUs include nothing else of the project.

#include <cstddef>
#include <cstdint>

#include "lbm/lattice.hpp"
#include "lbm/tile.hpp"
#include "lbm/types.hpp"

namespace slipflow::lbm::tilek {

/// Mirrors the SLIPFLOW_REQUIRE(nc <= 8) of the force kernels.
inline constexpr int kMaxComp = 8;

/// Densities below this are treated as vacuum when dividing by rho —
/// must equal the kTinyDensity of kernels.cpp / kernels_plan.cpp.
inline constexpr double kTinyDensity = 1e-12;

/// One component's BGK collision: the fused collide+stream over row
/// tiles, or the in-place collide of a contiguous cell range (the
/// edge-plane pre-collide). MRT components stay on the scalar path.
struct StreamCtx {
  const RowTile* rows = nullptr;
  const double* f[kQ];  ///< pre-collision populations, direction-major
  double* fp[kQ];       ///< post-streaming destination arrays
  const double* n = nullptr;
  const double* ux = nullptr;  ///< ueq, SoA components
  const double* uy = nullptr;
  const double* uz = nullptr;
  double inv_tau = 0.0;
  std::int64_t off[kQ];  ///< storage offset direction d's push lands at
};

/// The Shan-Chen force/velocity pass over row tiles, all components.
struct ForceCtx {
  const RowTile* rows = nullptr;
  int ncomp = 0;
  std::int64_t off[kQ];
  std::int64_t nz = 0;  ///< yz = y*nz + z decode for wall patterns
  const double* psi[kMaxComp];
  const double* n[kMaxComp];
  const double* f[kMaxComp][kQ];
  double* ueq_x[kMaxComp];
  double* ueq_y[kMaxComp];
  double* ueq_z[kMaxComp];
  double* rho_tot = nullptr;
  double* u_x = nullptr;
  double* u_y = nullptr;
  double* u_z = nullptr;
  const Vec3* wall_unit = nullptr;  ///< unit wall acceleration per yz
  double mass[kMaxComp];
  double tau[kMaxComp];
  double wall_accel[kMaxComp];
  double g[kMaxComp][kMaxComp];
  double gravity_x = 0.0;
  double max_force_shift = 0.0;
  /// Patterned-wall hook, evaluated per lane (nullptr = no pattern).
  double (*pattern)(const void* state, std::int64_t gx, std::int64_t y,
                    std::int64_t z) = nullptr;
  const void* pattern_state = nullptr;
};

/// One component's density n = sum_d f_d over a contiguous cell range.
struct DensityCtx {
  const double* f[kQ];
  double* n = nullptr;
};

/// Entry points one ISA instantiation exports.
struct Backend {
  /// Collide+stream rows [row_begin, row_end).
  void (*stream)(const StreamCtx&, std::size_t row_begin,
                 std::size_t row_end);
  /// Collide cells [first, first + count) into their own f_post slots.
  void (*collide)(const StreamCtx&, std::int64_t first, std::int64_t count);
  /// Force/velocity of rows [row_begin, row_end).
  void (*forces)(const ForceCtx&, std::size_t row_begin,
                 std::size_t row_end);
  void (*density)(const DensityCtx&, std::int64_t first, std::int64_t count);
};

const Backend* tile_backend_autovec();
const Backend* tile_backend_avx2();    ///< nullptr when not compiled in
const Backend* tile_backend_avx512();  ///< nullptr when not compiled in

}  // namespace slipflow::lbm::tilek
