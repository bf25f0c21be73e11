/// \file kernels_plan.cpp
/// Plan-based hot kernels: fused collide+stream over the StreamingPlan's
/// interior runs and boundary link tables, and the psi-cached force
/// kernel. Every per-cell expression is kept textually identical to the
/// legacy kernels in kernels.cpp so the two paths (and interior vs.
/// boundary classification, which changes with the decomposition) produce
/// bit-identical populations.

#include <cmath>
#include <vector>

#include "lbm/kernels.hpp"
#include "lbm/mrt.hpp"
#include "lbm/plan.hpp"
#include "lbm/tile.hpp"

namespace slipflow::lbm {

namespace {
/// Densities below this are treated as vacuum when dividing by rho
/// (same constant as kernels.cpp).
constexpr double kTinyDensity = 1e-12;

/// BGK relaxation of one cell into out[0..18] — the exact expressions of
/// the legacy collide(), shared by the boundary-plane pre-collide and the
/// fused kernel so every path relaxes a cell to the same bits.
inline void bgk_cell(const DistField& f, index_t cell, double nc,
                     const Vec3& u, double inv_tau, double* out) {
  const double u2 = u.norm2();
  for (int d = 0; d < kQ; ++d) {
    const double cu = kCx[d] * u.x + kCy[d] * u.y + kCz[d] * u.z;
    const double feq =
        kWeight[d] * nc * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
    const double fold = f.at(d, cell);
    out[d] = fold - (fold - feq) * inv_tau;
  }
}
}  // namespace

void collide_boundary_planes(Slab& slab) {
  const Extents& st = slab.storage();
  const index_t pc = st.plane_cells();
  const index_t planes[2] = {1, slab.nx_local()};
  const int nplanes = slab.nx_local() == 1 ? 1 : 2;
  const KernelBackend bk = active_kernel_backend();
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const ComponentParams& cp = slab.params().components[c];
    if (bk != KernelBackend::scalar && cp.collision == CollisionModel::bgk) {
      // A plane is one contiguous cell range: the vector collide sweeps
      // it whole, solids included, exactly like the loop below.
      for (int p = 0; p < nplanes; ++p)
        collide_cells(slab, bk, c, planes[p] * pc, pc);
      continue;
    }
    const ScalarField& n = slab.density(c);
    const VectorField& ueq = slab.ueq(c);
    const DistField& f = slab.f(c);
    DistField& fp = slab.f_post(c);
    const bool mrt = cp.collision == CollisionModel::mrt;
    const MrtOperator& op = MrtOperator::instance();
    const MrtRates rates = MrtRates::for_tau(cp.tau);
    const double inv_tau = 1.0 / cp.tau;
    double fin[kQ], fout[kQ];
    for (int p = 0; p < nplanes; ++p) {
      const index_t first = planes[p] * pc;
      const index_t last = first + pc;
      for (index_t cell = first; cell < last; ++cell) {
        if (mrt) {
          for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
          op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
        } else {
          bgk_cell(f, cell, n[cell], ueq.at(cell), inv_tau, fout);
        }
        for (int d = 0; d < kQ; ++d) fp.at(d, cell) = fout[d];
      }
    }
  }
}

void fused_collide_stream_range(Slab& slab, std::span<const InteriorRun> runs,
                                std::span<const StreamBoundaryCell> cells) {
  const StreamingPlan& plan = slab.plan();
  index_t off[kQ];
  for (int d = 0; d < kQ; ++d) off[d] = plan.dir_offset(d);

  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const ComponentParams& cp = slab.params().components[c];
    const ScalarField& n = slab.density(c);
    const VectorField& ueq = slab.ueq(c);
    const DistField& f = slab.f(c);
    DistField& fp = slab.f_post(c);
    const bool mrt = cp.collision == CollisionModel::mrt;
    const MrtOperator& op = MrtOperator::instance();
    const MrtRates rates = MrtRates::for_tau(cp.tau);
    const double inv_tau = 1.0 / cp.tau;

    // Scratch is local so disjoint slices can run on pool threads.
    double fin[kQ], fout[kQ];
    const auto collide_one = [&](index_t cell) {
      if (mrt) {
        for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
        op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
      } else {
        bgk_cell(f, cell, n[cell], ueq.at(cell), inv_tau, fout);
      }
    };

    // Interior: every push lands at a fixed offset — collide the source
    // once and scatter the 19 outputs, no conditionals. This re-collides
    // the cells collide_boundary_planes already handled only when a run
    // touches them, which it never does (plane 1 / nx_local cells are
    // never stream-interior).
    for (const InteriorRun& r : runs) {
      for (index_t i = 0; i < r.count; ++i) {
        const index_t cell = r.cell + i;
        collide_one(cell);
        fp.at(0, cell) = fout[0];
        for (int d = 1; d < kQ; ++d) fp.at(d, cell + off[d]) = fout[d];
      }
    }

    // Boundary: walk the precomputed link table. Bounce-back links point
    // back at the cell itself with the moving-wall correction term's
    // c·u_wall baked in at plan-build time.
    const auto& links = plan.links();
    for (const StreamBoundaryCell& b : cells) {
      collide_one(b.cell);
      fp.at(0, b.cell) = fout[0];
      for (std::uint32_t l = b.link_begin; l < b.link_end; ++l) {
        const StreamLink& lk = links[l];
        double v = fout[lk.out_dir];
        if (lk.wall_cu != 0.0)
          v += 2.0 * kWeight[lk.dest_dir] * n[b.cell] * lk.wall_cu / kCs2;
        fp.at(lk.dest_dir, lk.dest) = v;
      }
    }
  }
}

void fused_collide_stream_finish(Slab& slab) {
  const StreamingPlan& plan = slab.plan();
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    // Populations arriving from the x-neighbors: plain copies out of the
    // exchanged halo planes (disjoint from every slot the pushes wrote).
    DistField& fp = slab.f_post(c);
    for (const HaloPull& h : plan.halo_pulls())
      fp.at(h.dir, h.dest) = fp.at(h.dir, h.src);
  }

  // The post-streaming state was assembled in f_post; swap it into f and
  // pin solid cells to zero exactly as the legacy stream() does.
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    slab.f(c).swap(slab.f_post(c));
    DistField& f = slab.f(c);
    for (index_t cell : plan.solids())
      for (int d = 0; d < kQ; ++d) f.at(d, cell) = 0.0;
  }
}

void fused_collide_stream(Slab& slab) {
  const StreamingPlan& plan = slab.plan();
  const KernelBackend bk = active_kernel_backend();
  if (bk != KernelBackend::scalar) {
    // Tile path: every row through the SIMD backend, the cells the row
    // masks cannot express through their link tables.
    const TileLayout& tiles = slab.tiles();
    fused_collide_stream_tiles(slab, bk, 0, tiles.rows().size());
    fused_collide_stream_range(slab, {}, tiles.stream_cells());
  } else {
    fused_collide_stream_range(slab, plan.stream_interior(),
                               plan.stream_boundary());
  }
  fused_collide_stream_finish(slab);
}

void force_psi_prepare(Slab& slab, ForcePsiCache& cache, index_t cell_begin,
                       index_t cell_end, bool reset) {
  const std::size_t nc = slab.num_components();
  SLIPFLOW_REQUIRE(nc <= 8);
  // psi cache: for the paper's psi = n the density storage *is* the
  // cache; for the exponential form evaluate 1 - exp(-n) once per cell
  // per step instead of once per neighbor read (the legacy kernel pays
  // up to 18 exp calls per cell).
  if (slab.params().psi_form != PsiForm::shan_chen) {
    if (reset)
      for (std::size_t c = 0; c < nc; ++c)
        cache.psi[c] = slab.density(c).data().data();
    return;
  }
  if (reset) cache.scratch.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    std::span<const double> n = slab.density(c).data();
    auto& s = cache.scratch[c];
    if (reset) {
      s.resize(n.size());
      cache.psi[c] = s.data();
    }
    for (index_t i = cell_begin; i < cell_end; ++i) {
      const auto u = static_cast<std::size_t>(i);
      s[u] = 1.0 - std::exp(-n[u]);
    }
  }
}

void compute_forces_plan_range(Slab& slab, const ForcePsiCache& cache,
                               std::span<const InteriorRun> runs,
                               std::span<const ForceBoundaryCell> cells) {
  const StreamingPlan& plan = slab.plan();
  const FluidParams& prm = slab.params();
  const std::size_t nc = slab.num_components();
  SLIPFLOW_REQUIRE(nc <= 8);
  const index_t nz = slab.storage().nz;
  const bool patterned = static_cast<bool>(prm.wall_pattern);
  const std::array<const double*, 8>& psi = cache.psi;

  index_t off[kQ];
  for (int d = 0; d < kQ; ++d) off[d] = plan.dir_offset(d);

  // Everything after the psi gather is identical for interior and
  // boundary cells; `grad` holds the Shan-Chen neighbor sums.
  Vec3 p[8];  // per-component first moments, computed once and reused
  const auto finish_cell = [&](index_t cell, index_t yz, index_t gx,
                               const Vec3* grad) {
    // First moments and the common velocity u' (Section 2.1):
    // u' = sum_c (m_c / tau_c) p_c  /  sum_c (m_c / tau_c) n_c.
    Vec3 unum{};
    double uden = 0.0;
    for (std::size_t c = 0; c < nc; ++c) {
      const auto& cp = prm.components[c];
      const DistField& f = slab.f(c);
      Vec3 pc{};
      for (int d = 1; d < kQ; ++d) {
        const double fd = f.at(d, cell);
        pc.x += fd * kCx[d];
        pc.y += fd * kCy[d];
        pc.z += fd * kCz[d];
      }
      p[c] = pc;
      const double w = cp.molecular_mass / cp.tau;
      unum += w * pc;
      uden += w * slab.density(c)[cell];
    }
    const Vec3 uprime = uden > kTinyDensity ? (1.0 / uden) * unum : Vec3{};

    Vec3 wall_a = slab.wall_accel_unit(yz);
    if (patterned) wall_a = prm.wall_pattern(gx, yz / nz, yz % nz) * wall_a;
    double rho_tot = 0.0;
    Vec3 rho_u{};
    Vec3 force_sum{};
    for (std::size_t c = 0; c < nc; ++c) {
      const auto& cp = prm.components[c];
      const double ncur = slab.density(c)[cell];
      const double rho = cp.molecular_mass * ncur;

      // interaction force F = -psi_c sum_c' G_{cc'} grad[c']
      Vec3 F{};
      const double psi_c = psi[c][static_cast<std::size_t>(cell)];
      for (std::size_t c2 = 0; c2 < nc; ++c2) {
        const double g = prm.g(c, c2);
        if (g != 0.0) F += (-psi_c * g) * grad[c2];
      }
      // hydrophobic wall force (mass density times wall acceleration)
      F += (rho * cp.wall_accel) * wall_a;
      // streamwise driving force
      F.x += rho * prm.gravity_x;

      // equilibrium velocity u_eq = u' + tau F / rho, with the shift
      // clamped so near-vacuum trace cells cannot blow up
      Vec3 ue = uprime;
      if (rho > kTinyDensity) {
        Vec3 shift = (cp.tau / rho) * F;
        const double s2 = shift.norm2();
        const double smax = prm.max_force_shift;
        if (s2 > smax * smax) shift = (smax / std::sqrt(s2)) * shift;
        ue += shift;
      }
      slab.ueq(c).set(cell, ue);

      rho_tot += rho;
      force_sum += F;
      rho_u += cp.molecular_mass * p[c];
    }

    // mixture observables: rho u = sum_c m_c p_c + (1/2) sum_c F_c
    slab.total_density()[cell] = rho_tot;
    Vec3 u_out{};
    if (rho_tot > kTinyDensity)
      u_out = (1.0 / rho_tot) * (rho_u + 0.5 * force_sum);
    slab.velocity().set(cell, u_out);
  };

  Vec3 grad[8];
  for (const InteriorRun& r : runs) {
    for (index_t i = 0; i < r.count; ++i) {
      const index_t cell = r.cell + i;
      for (std::size_t c2 = 0; c2 < nc; ++c2) {
        const double* ps = psi[c2];
        Vec3 g{};
        for (int d = 1; d < kQ; ++d) {
          const double psv = ps[static_cast<std::size_t>(cell + off[d])];
          g.x += kWeight[d] * psv * kCx[d];
          g.y += kWeight[d] * psv * kCy[d];
          g.z += kWeight[d] * psv * kCz[d];
        }
        grad[c2] = g;
      }
      finish_cell(cell, r.yz + i, r.gx, grad);
    }
  }
  const auto& nbrs = plan.force_neighbors();
  for (const ForceBoundaryCell& b : cells) {
    for (std::size_t c2 = 0; c2 < nc; ++c2) {
      const double* ps = psi[c2];
      Vec3 g{};
      for (int d = 1; d < kQ; ++d) {
        const index_t nb = nbrs[b.nbr_begin + static_cast<std::uint32_t>(d) - 1];
        if (nb < 0) continue;  // psi = 0 inside walls / solids
        const double psv = ps[static_cast<std::size_t>(nb)];
        g.x += kWeight[d] * psv * kCx[d];
        g.y += kWeight[d] * psv * kCy[d];
        g.z += kWeight[d] * psv * kCz[d];
      }
      grad[c2] = g;
    }
    finish_cell(b.cell, b.yz, b.gx, grad);
  }
}

void compute_forces_and_velocity_plan(Slab& slab) {
  const StreamingPlan& plan = slab.plan();
  static thread_local ForcePsiCache cache;
  force_psi_prepare(slab, cache, 0, slab.storage().cells(), /*reset=*/true);
  const KernelBackend bk = active_kernel_backend();
  if (bk != KernelBackend::scalar) {
    const TileLayout& tiles = slab.tiles();
    compute_forces_tiles(slab, cache, bk, 0, tiles.rows().size());
    compute_forces_plan_range(slab, cache, {}, tiles.force_cells());
  } else {
    compute_forces_plan_range(slab, cache, plan.force_interior(),
                              plan.force_boundary());
  }
}

}  // namespace slipflow::lbm
