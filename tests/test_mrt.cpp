// MRT collision operator: moment-basis algebra, exact BGK equivalence
// when all rates coincide, conservation, and physics equivalence at the
// hydrodynamic level (same viscosity => same steady Poiseuille flow).

#include <gtest/gtest.h>

#include <cmath>

#include "lbm/mrt.hpp"
#include "lbm/observables.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {
const MrtOperator& op() { return MrtOperator::instance(); }
}  // namespace

TEST(MrtBasis, RowsAreMutuallyOrthogonal) {
  for (int r = 0; r < kQ; ++r) {
    for (int s = 0; s < r; ++s) {
      double dot = 0.0;
      for (int d = 0; d < kQ; ++d) dot += op().basis(r, d) * op().basis(s, d);
      EXPECT_NEAR(dot, 0.0, 1e-9) << "rows " << r << "," << s;
    }
  }
}

TEST(MrtBasis, DensityRowIsAllOnes) {
  for (int d = 0; d < kQ; ++d) EXPECT_DOUBLE_EQ(op().basis(0, d), 1.0);
}

TEST(MrtBasis, MomentumRowsAreVelocities) {
  for (int d = 0; d < kQ; ++d) {
    EXPECT_DOUBLE_EQ(op().basis(3, d), kCx[d]);
    EXPECT_DOUBLE_EQ(op().basis(5, d), kCy[d]);
    EXPECT_DOUBLE_EQ(op().basis(7, d), kCz[d]);
  }
}

TEST(MrtBasis, NormsMatchRowSelfDot) {
  for (int r = 0; r < kQ; ++r) {
    double n2 = 0.0;
    for (int d = 0; d < kQ; ++d) n2 += op().basis(r, d) * op().basis(r, d);
    EXPECT_NEAR(op().row_norm2(r), n2, 1e-12);
  }
}

TEST(MrtCollide, IdentityWhenAllRatesZero) {
  // zero rates relax nothing: f_out == f_in
  slipflow::util::Rng rng(1);
  double fin[kQ], fout[kQ];
  for (int d = 0; d < kQ; ++d) fin[d] = rng.uniform(0.01, 0.2);
  const MrtRates zero{0, 0, 0, 0, 0, 0, 0};
  op().collide_cell(fin, fout, 1.0, Vec3{0.02, -0.01, 0.03}, zero);
  for (int d = 0; d < kQ; ++d) EXPECT_NEAR(fout[d], fin[d], 1e-13);
}

TEST(MrtCollide, EquivalentRatesReproduceBgkExactly) {
  slipflow::util::Rng rng(2);
  for (int rep = 0; rep < 20; ++rep) {
    const double tau = rng.uniform(0.6, 2.0);
    double fin[kQ], fout[kQ];
    double n = 0.0;
    for (int d = 0; d < kQ; ++d) {
      fin[d] = rng.uniform(0.01, 0.3);
      n += fin[d];
    }
    const Vec3 u{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                 rng.uniform(-0.05, 0.05)};
    op().collide_cell(fin, fout, n, u, MrtRates::bgk_equivalent(tau));
    for (int d = 0; d < kQ; ++d) {
      const double bgk = fin[d] - (fin[d] - equilibrium(d, n, u)) / tau;
      EXPECT_NEAR(fout[d], bgk, 1e-12) << "tau=" << tau << " d=" << d;
    }
  }
}

TEST(MrtCollide, ConservesMassAndMomentum) {
  slipflow::util::Rng rng(3);
  double fin[kQ], fout[kQ];
  double n = 0.0;
  for (int d = 0; d < kQ; ++d) {
    fin[d] = rng.uniform(0.01, 0.3);
    n += fin[d];
  }
  op().collide_cell(fin, fout, n, Vec3{0.01, 0.02, -0.01},
                    MrtRates::for_tau(0.8));
  double m_in = 0, m_out = 0;
  Vec3 p_in{}, p_out{};
  for (int d = 0; d < kQ; ++d) {
    m_in += fin[d];
    m_out += fout[d];
    p_in += fin[d] * Vec3{double(kCx[d]), double(kCy[d]), double(kCz[d])};
    p_out += fout[d] * Vec3{double(kCx[d]), double(kCy[d]), double(kCz[d])};
  }
  EXPECT_NEAR(m_out, m_in, 1e-12);
  // NOTE: momentum moments relax toward j_eq = n*u with u the equilibrium
  // velocity, which here differs from the populations' own first moment
  // only through the force shift; with u matching the populations the
  // momentum must be conserved. Rebuild that case:
  Vec3 u_self = (1.0 / n) * p_in;
  op().collide_cell(fin, fout, n, u_self, MrtRates::for_tau(0.8));
  Vec3 p2{};
  for (int d = 0; d < kQ; ++d)
    p2 += fout[d] * Vec3{double(kCx[d]), double(kCy[d]), double(kCz[d])};
  EXPECT_NEAR(p2.x, p_in.x, 1e-12);
  EXPECT_NEAR(p2.y, p_in.y, 1e-12);
  EXPECT_NEAR(p2.z, p_in.z, 1e-12);
}

namespace {

Simulation poiseuille_sim(CollisionModel model, double tau = 0.8) {
  FluidParams p = FluidParams::single_component(tau, 1e-5);
  p.components[0].collision = model;
  Simulation sim(Extents{4, 15, 4}, std::move(p), true, false);
  sim.initialize_uniform();
  return sim;
}

}  // namespace

TEST(MrtPhysics, SamePoiseuilleProfileAsBgk) {
  // the MRT ghost-mode rates must not change the hydrodynamics: steady
  // Poiseuille flow depends only on the viscosity (s_nu = 1/tau).
  Simulation bgk = poiseuille_sim(CollisionModel::bgk);
  Simulation mrt = poiseuille_sim(CollisionModel::mrt);
  bgk.run(3000);
  mrt.run(3000);
  const auto ub = velocity_profile_y(bgk.slab(), 1, 2);
  const auto um = velocity_profile_y(mrt.slab(), 1, 2);
  const double umax = *std::max_element(ub.begin(), ub.end());
  for (std::size_t j = 0; j < ub.size(); ++j)
    EXPECT_NEAR(um[j], ub[j], 0.01 * umax) << "j=" << j;
}

TEST(MrtPhysics, MassConservedInSlabRun) {
  Simulation sim = poiseuille_sim(CollisionModel::mrt);
  const double m0 = owned_mass(sim.slab(), 0);
  sim.run(500);
  EXPECT_NEAR(owned_mass(sim.slab(), 0), m0, 1e-9 * m0);
}

TEST(MrtPhysics, MixedOperatorsPerComponent) {
  // water on BGK, trace air on MRT — the per-component dispatch the
  // microchannel application wants
  FluidParams p = FluidParams::microchannel_defaults();
  p.components[1].collision = CollisionModel::mrt;
  Simulation sim(Extents{6, 16, 8}, std::move(p));
  sim.initialize_uniform();
  sim.run(400);
  const auto w = density_profile_y(sim.slab(), 0, 2, 4);
  for (double v : w) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
  }
  // the slip mechanism still works
  EXPECT_LT(w.front(), w[8]);
}

TEST(MrtPhysics, BoundedOnStiffTraceComponent) {
  // the stiff configuration (trace air at tau=0.52 under the full wall
  // force) — MRT must keep every density finite and essentially
  // non-negative over a long run
  FluidParams p = FluidParams::microchannel_defaults(0.3, 2.5, 0.03, 1.0);
  p.components[1].tau = 0.52;
  p.components[1].collision = CollisionModel::mrt;
  Simulation sim(Extents{6, 20, 10}, std::move(p));
  sim.initialize_uniform();
  sim.run(800);
  const Extents& st = sim.slab().storage();
  for (index_t y = 0; y < st.ny; ++y)
    for (index_t z = 0; z < st.nz; ++z) {
      const double air = sim.slab().density(1)[st.idx(2, y, z)];
      const double water = sim.slab().density(0)[st.idx(2, y, z)];
      EXPECT_TRUE(std::isfinite(air));
      EXPECT_TRUE(std::isfinite(water));
      EXPECT_GT(air, -0.05);  // transient undershoot only, never blow-up
      EXPECT_GT(water, 0.0);
      EXPECT_LT(water, 3.0);
    }
}
