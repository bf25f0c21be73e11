#include "lbm/kernels.hpp"

#include <cmath>

#include "lbm/mrt.hpp"

namespace slipflow::lbm {

namespace {
/// Densities below this are treated as vacuum when dividing by rho.
constexpr double kTinyDensity = 1e-12;
}  // namespace

void collide(Slab& slab) {
  const Extents& st = slab.storage();
  const index_t first = st.plane_cells();                       // plane lx=1
  const index_t last = (slab.nx_local() + 1) * st.plane_cells();  // one past
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const ComponentParams& cp = slab.params().components[c];
    const ScalarField& n = slab.density(c);
    const VectorField& ueq = slab.ueq(c);
    const DistField& f = slab.f(c);
    DistField& fp = slab.f_post(c);

    if (cp.collision == CollisionModel::mrt) {
      const MrtOperator& op = MrtOperator::instance();
      const MrtRates rates = MrtRates::for_tau(cp.tau);
      double fin[kQ], fout[kQ];
      for (index_t cell = first; cell < last; ++cell) {
        for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
        op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
        for (int d = 0; d < kQ; ++d) fp.at(d, cell) = fout[d];
      }
      continue;
    }

    const double inv_tau = 1.0 / cp.tau;
    for (index_t cell = first; cell < last; ++cell) {
      const double nc = n[cell];
      const Vec3 u = ueq.at(cell);
      const double u2 = u.norm2();
      for (int d = 0; d < kQ; ++d) {
        const double cu = kCx[d] * u.x + kCy[d] * u.y + kCz[d] * u.z;
        const double feq =
            kWeight[d] * nc * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * u2);
        const double fold = f.at(d, cell);
        fp.at(d, cell) = fold - (fold - feq) * inv_tau;
      }
    }
  }
}

void stream(Slab& slab) {
  const Extents& st = slab.storage();
  const ChannelGeometry& geom = slab.geometry();
  const bool obstacles = geom.has_obstacles();
  const bool moving = geom.has_moving_walls();
  const bool wy = geom.walls_y();
  const bool wz = geom.walls_z();
  using Wall = ChannelGeometry::Wall;
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const DistField& fp = slab.f_post(c);
    const ScalarField& nc = slab.density(c);
    DistField& f = slab.f(c);
    for (index_t lx = 1; lx <= slab.nx_local(); ++lx) {
      const index_t gx = slab.x_begin() + lx - 1;
      for (index_t y = 0; y < st.ny; ++y) {
        for (index_t z = 0; z < st.nz; ++z) {
          const index_t cell = st.idx(lx, y, z);
          if (obstacles && geom.solid(gx, y, z)) {
            // populations inside solids are irrelevant; keep them finite
            for (int d = 0; d < kQ; ++d) f.at(d, cell) = 0.0;
            continue;
          }
          for (int d = 0; d < kQ; ++d) {
            index_t sy = y - kCy[d];
            index_t sz = z - kCz[d];
            bool wall = false;
            Vec3 uw{};  // velocity of the wall(s) crossed, if any
            if (sy < 0 || sy >= st.ny) {
              if (wy) {
                wall = true;
                if (moving)
                  uw += geom.wall_velocity(sy < 0 ? Wall::y_low
                                                  : Wall::y_high);
              } else {
                sy = (sy + st.ny) % st.ny;
              }
            }
            if (sz < 0 || sz >= st.nz) {
              if (wz) {
                wall = true;
                if (moving)
                  uw += geom.wall_velocity(sz < 0 ? Wall::z_low
                                                  : Wall::z_high);
              } else {
                sz = (sz + st.nz) % st.nz;
              }
            }
            if (!wall && obstacles && geom.solid(gx - kCx[d], sy, sz))
              wall = true;
            if (wall) {
              // half-way bounce-back: the population that would have come
              // out of the wall is the one we sent into it, reversed; a
              // moving wall adds the standard momentum correction
              // 2 w_d n (c_d . u_w) / c_s^2 (Ladd 1994).
              double bb = fp.at(kOpposite[d], cell);
              if (moving && (uw.x != 0.0 || uw.y != 0.0 || uw.z != 0.0)) {
                const double cu =
                    kCx[d] * uw.x + kCy[d] * uw.y + kCz[d] * uw.z;
                bb += 2.0 * kWeight[d] * nc[cell] * cu / kCs2;
              }
              f.at(d, cell) = bb;
            } else {
              f.at(d, cell) = fp.at(d, st.idx(lx - kCx[d], sy, sz));
            }
          }
        }
      }
    }
  }
}

void compute_density(Slab& slab) {
  const Extents& st = slab.storage();
  const index_t first = st.plane_cells();
  const index_t count = slab.nx_local() * st.plane_cells();
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    const DistField& f = slab.f(c);
    ScalarField& n = slab.density(c);
    std::span<double> nd = n.data().subspan(static_cast<std::size_t>(first),
                                            static_cast<std::size_t>(count));
    std::span<const double> f0 =
        f.dir(0).subspan(static_cast<std::size_t>(first),
                         static_cast<std::size_t>(count));
    for (index_t i = 0; i < count; ++i) nd[i] = f0[i];
    for (int d = 1; d < kQ; ++d) {
      std::span<const double> fd =
          f.dir(d).subspan(static_cast<std::size_t>(first),
                           static_cast<std::size_t>(count));
      for (index_t i = 0; i < count; ++i) nd[i] += fd[i];
    }
  }
}

void compute_density_planes(Slab& slab, index_t plane_begin,
                            index_t plane_end) {
  SLIPFLOW_REQUIRE(plane_begin >= 1 && plane_end <= slab.nx_local() + 1 &&
                   plane_begin <= plane_end);
  const Extents& st = slab.storage();
  // Pure additions in compute_density's order — bit-identical to it
  // under any flags, just wider.
  compute_density_cells(slab, active_kernel_backend(),
                        plane_begin * st.plane_cells(),
                        (plane_end - plane_begin) * st.plane_cells());
}

void compute_forces_and_velocity(Slab& slab) {
  const Extents& st = slab.storage();
  const ChannelGeometry& geom = slab.geometry();
  const FluidParams& prm = slab.params();
  const std::size_t nc = slab.num_components();
  const bool obstacles = geom.has_obstacles();
  const bool wy = geom.walls_y();
  const bool wz = geom.walls_z();
  const bool patterned = static_cast<bool>(prm.wall_pattern);
  // pseudopotential: psi = n for the paper's multicomponent model, or the
  // original Shan-Chen 1 - exp(-n) for liquid-vapor coexistence
  const bool psi_exp = prm.psi_form == PsiForm::shan_chen;
  auto psi_of = [psi_exp](double n_val) {
    return psi_exp ? 1.0 - std::exp(-n_val) : n_val;
  };

  for (index_t lx = 1; lx <= slab.nx_local(); ++lx) {
    const index_t gx = slab.x_begin() + lx - 1;
    for (index_t y = 0; y < st.ny; ++y) {
      for (index_t z = 0; z < st.nz; ++z) {
        const index_t cell = st.idx(lx, y, z);

        // First moments and the common velocity u' (Section 2.1):
        // u' = sum_c (m_c / tau_c) p_c  /  sum_c (m_c / tau_c) n_c.
        // The per-component momentum p_c is kept for the rho_u sum below.
        Vec3 unum{};
        double uden = 0.0;
        Vec3 p[8];
        SLIPFLOW_REQUIRE(nc <= 8);
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

        // Shan–Chen neighbor sums: grad[c'] = sum_d w_d psi_c'(x+c_d) c_d,
        // with psi = n and psi = 0 inside walls/solids.
        Vec3 grad[8];  // supports up to 8 components; enforced above
        for (std::size_t c2 = 0; c2 < nc; ++c2) {
          Vec3 g{};
          const ScalarField& n2 = slab.density(c2);
          for (int d = 1; d < kQ; ++d) {
            index_t ny2 = y + kCy[d];
            index_t nz2 = z + kCz[d];
            if (ny2 < 0 || ny2 >= st.ny) {
              if (wy) continue;  // psi = 0 inside walls
              ny2 = (ny2 + st.ny) % st.ny;
            }
            if (nz2 < 0 || nz2 >= st.nz) {
              if (wz) continue;
              nz2 = (nz2 + st.nz) % st.nz;
            }
            if (obstacles && geom.solid(gx + kCx[d], ny2, nz2)) continue;
            const double psi = psi_of(n2[st.idx(lx + kCx[d], ny2, nz2)]);
            g.x += kWeight[d] * psi * kCx[d];
            g.y += kWeight[d] * psi * kCy[d];
            g.z += kWeight[d] * psi * kCz[d];
          }
          grad[c2] = g;
        }

        Vec3 wall_a = slab.wall_accel_unit(y, z);
        if (patterned) wall_a = prm.wall_pattern(gx, y, z) * wall_a;
        double rho_tot = 0.0;
        Vec3 rho_u{};
        Vec3 force_sum{};
        for (std::size_t c = 0; c < nc; ++c) {
          const auto& cp = prm.components[c];
          const double ncur = slab.density(c)[cell];
          const double rho = cp.molecular_mass * ncur;

          // interaction force F = -psi_c sum_c' G_{cc'} grad[c']
          Vec3 F{};
          const double psi_c = psi_of(ncur);
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
      }
    }
  }
}

double owned_mass(const Slab& slab, std::size_t component) {
  const Extents& st = slab.storage();
  const index_t first = st.plane_cells();
  const index_t count = slab.nx_local() * st.plane_cells();
  const ScalarField& n = slab.density(component);
  double m = 0.0;
  for (index_t i = 0; i < count; ++i) m += n[first + i];
  return m * slab.params().components[component].molecular_mass;
}

}  // namespace slipflow::lbm
