#pragma once
/// \file kernels.hpp
/// The per-phase compute kernels of the multicomponent lattice Boltzmann
/// method (Section 2.1), each operating on the owned planes of a Slab.
///
/// One LBM phase executes, in order (Figure 2 of the paper):
///   1. collide()                      — local
///   2. f-halo exchange                — communication (Slab::*_f_halo)
///   3. stream()                       — local, includes wall bounce-back
///   4. compute_density()              — local
///   5. density-halo exchange          — communication (Slab::*_density_halo)
///   6. compute_forces_and_velocity()  — local (Shan–Chen + wall + gravity)
/// The equilibrium velocities stored by step 6 feed step 1 of the next
/// phase, exactly as the velocity computed on line 17 of the paper's
/// pseudo-code is used by the collision on line 4 of the next iteration.

#include "lbm/simd.hpp"
#include "lbm/slab.hpp"

namespace slipflow::lbm {

/// Second-order D3Q19 Maxwell–Boltzmann equilibrium for direction d at
/// number density n and velocity u (lattice units).
inline double equilibrium(int d, double n, const Vec3& u) {
  const double cu = kCx[d] * u.x + kCy[d] * u.y + kCz[d] * u.z;
  const double u2 = u.norm2();
  return kWeight[d] * n * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
}

/// BGK collision for every component on the owned planes:
/// f_post = f - (f - f_eq(n, ueq)) / tau, using the number density and
/// equilibrium velocity stored by the previous phase's force step.
void collide(Slab& slab);

/// Pull-streaming of post-collision populations into f, applying the
/// half-way bounce-back rule at the channel walls (and at any interior
/// obstacle). Requires the f-halo planes of f_post to be filled.
void stream(Slab& slab);

/// Recompute each component's number density n = sum_i f_i on the owned
/// planes from the post-streaming populations (a plain scalar loop: the
/// oracle never dispatches to a kernel backend).
void compute_density(Slab& slab);

/// Compute, on the owned planes: the common velocity u', the per-component
/// forces (Shan–Chen inter-component interaction + hydrophobic wall force
/// + driving body force), the per-component equilibrium velocities
/// ueq = u' + tau F / rho, and the mixture observables (total density and
/// force-corrected macroscopic velocity). Requires density halos filled.
void compute_forces_and_velocity(Slab& slab);

/// Total mass of a component over the owned planes (sum of n times
/// molecular mass) — a conserved quantity used by tests.
double owned_mass(const Slab& slab, std::size_t component);

// --- the fused kernel path (kernels_plan.cpp, kernels_tile*.cpp) -------
// The same phase, restructured around the slab's StreamingPlan so the hot
// loops are branch-free: the row tiles run unit-stride vector kernels on
// the active KernelBackend (simd.hpp), and only the cells the row masks
// cannot express (periodic wraps, moving-wall links, solids) plus the
// halo pulls take a per-cell path, as does the collision of MRT
// components. The fused path produces bit-identical populations to the
// legacy kernels above on every backend (tests/test_plan_kernels.cpp and
// tests/test_tile_kernels.cpp pin this).

/// Collide only the two boundary-adjacent owned planes into f_post — the
/// minimum the f-halo exchange needs before fused_collide_stream re-does
/// collision and streaming in one fused pass. The BGK components sweep
/// each plane as one contiguous vector range.
void collide_boundary_planes(Slab& slab);

/// Fused collide + stream: collide every owned fluid cell once (BGK or
/// MRT) and push its 19 outputs directly to their streaming destinations
/// — the rows under their lane masks, the per-cell cells through
/// precomputed link tables (bounce-back and moving-wall corrections
/// resolved at plan build). Finishes by pulling the exchanged halo
/// populations and swapping f_post into f. Requires
/// collide_boundary_planes + the f-halo exchange to have run.
void fused_collide_stream(Slab& slab);

/// Fused force/velocity kernel: identical physics and bit-identical
/// results to compute_forces_and_velocity, but the per-component psi
/// field is cached once per step (no per-neighbor exp) and the wall /
/// periodic / obstacle masks come from the plan.
void compute_forces_and_velocity_plan(Slab& slab);

// --- split kernels ------------------------------------------------------
// The overlap runner executes the fused kernels in pieces: the
// halo-independent bulk while the exchange is in flight (possibly sliced
// further across pool threads), the halo-dependent remainder after
// wait(). Each f_post slot / density cell / force cell is still written
// exactly once per phase by exactly one piece, so any partition —
// including a threaded one — is bit-identical to the fused calls above.

/// Collide+stream the per-cell fluid cells `cells` (a slice of
/// plan.stream_cells()) through their link tables. Reads only owned
/// f/n/ueq; writes only the f_post slots those cells' links own, so
/// disjoint slices may run concurrently. No halo data is touched: the
/// exchanged planes enter only through fused_collide_stream_finish's
/// pulls.
void fused_collide_stream_range(Slab& slab,
                                std::span<const StreamBoundaryCell> cells);

/// Complete streaming once the f-halo landed: copy the plan's halo pulls,
/// swap f_post into f and pin solid cells. fused_collide_stream == every
/// row through fused_collide_stream_tiles + every per-cell cell through
/// fused_collide_stream_range + this.
void fused_collide_stream_finish(Slab& slab);

/// Density of the owned planes [plane_begin, plane_end) (1-based local
/// plane numbers, end exclusive) on the active backend,
/// element-for-element the same update as compute_density.
void compute_density_planes(Slab& slab, index_t plane_begin,
                            index_t plane_end);

/// Per-component psi pointers for the ranged force kernel. For the
/// paper's psi = n they alias the density storage; for the exponential
/// form `scratch` caches 1 - exp(-n) per storage cell.
struct ForcePsiCache {
  std::array<const double*, 8> psi{};
  std::vector<std::vector<double>> scratch;
};

/// Bind `cache` to the slab and (for the exponential form) fill scratch
/// for storage cells [cell_begin, cell_end). Call with reset = true once
/// per phase to (re)size for the current slab — then the owned range as
/// soon as densities exist, and the two halo planes (reset = false)
/// after the density halo was inserted.
void force_psi_prepare(Slab& slab, ForcePsiCache& cache, index_t cell_begin,
                       index_t cell_end, bool reset);

/// Force/velocity for the per-cell cells `cells` (a slice of
/// plan.force_cells()) through their neighbour tables. Each cell writes
/// only its own ueq / total density / velocity entries, so disjoint
/// slices may run concurrently. The caller guarantees every psi value
/// the slice gathers is ready (inner-plane slices need owned psi only;
/// edge-plane slices need the halo planes too — see
/// StreamingPlan::force_cells_inner_*).
void compute_forces_plan_range(Slab& slab, const ForcePsiCache& cache,
                               std::span<const ForceBoundaryCell> cells);

// --- row kernels (kernels_tile*.cpp) -------------------------------------
// The pieces above that sweep plan.rows() or contiguous cell ranges on
// one ISA instantiation (`backend`; the entry points pass the active one).

/// Collide+stream the rows [row_begin, row_end) of slab.plan().rows()
/// (MRT components cell by cell through the same masks). Rows write
/// disjoint f_post slots, so disjoint row slices may run concurrently.
/// Requires a supported backend.
void fused_collide_stream_tiles(Slab& slab, KernelBackend backend,
                                std::size_t row_begin, std::size_t row_end);

/// Force/velocity for the rows [row_begin, row_end) of slab.plan().rows(),
/// with the psi-readiness contract of compute_forces_plan_range (use
/// StreamingPlan::inner_* to stay off the halo planes).
void compute_forces_tiles(Slab& slab, const ForcePsiCache& cache,
                          KernelBackend backend, std::size_t row_begin,
                          std::size_t row_end);

/// BGK collision of one component's storage cells [first, first + count)
/// into their own f_post slots on `backend` — bit-identical to the
/// legacy collide().
void collide_cells(Slab& slab, KernelBackend backend, std::size_t component,
                   index_t first, index_t count);

/// Density of storage cells [first, first + count) on `backend` —
/// bit-identical to compute_density (pure additions, same order).
void compute_density_cells(Slab& slab, KernelBackend backend, index_t first,
                           index_t count);

}  // namespace slipflow::lbm
