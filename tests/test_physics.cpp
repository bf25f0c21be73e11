// Single-component physics validation: Poiseuille flow against the
// analytic profile, steady-state behavior, Galilean invariance of the
// equilibrium, and viscosity dependence on tau.

#include <gtest/gtest.h>

#include <cmath>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

/// Body-force-driven flow between parallel plates at the y extents
/// (periodic x and z): u(y) = g/(2 nu) * ((h/2)^2 - y'^2), with h = ny
/// (half-way walls) and y' measured from the channel center.
std::vector<double> poiseuille_analytic(index_t ny, double gravity,
                                        double tau) {
  const double nu = (tau - 0.5) / 3.0;
  const double h = static_cast<double>(ny);
  std::vector<double> u(static_cast<std::size_t>(ny));
  for (index_t j = 0; j < ny; ++j) {
    const double yp = (static_cast<double>(j) + 0.5) - h / 2.0;
    u[static_cast<std::size_t>(j)] =
        gravity / (2.0 * nu) * (h * h / 4.0 - yp * yp);
  }
  return u;
}

Simulation make_poiseuille(index_t ny, double tau, double gravity) {
  Simulation sim(Extents{4, ny, 4}, FluidParams::single_component(tau, gravity),
                 /*walls_y=*/true, /*walls_z=*/false);
  sim.initialize_uniform();
  return sim;
}

}  // namespace

TEST(Poiseuille, MatchesAnalyticProfile) {
  const index_t ny = 21;
  const double tau = 1.0, g = 1e-5;
  Simulation sim = make_poiseuille(ny, tau, g);
  sim.run(4000);
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  const auto ref = poiseuille_analytic(ny, g, tau);
  const double umax = *std::max_element(ref.begin(), ref.end());
  for (index_t j = 0; j < ny; ++j) {
    EXPECT_NEAR(u[static_cast<std::size_t>(j)], ref[static_cast<std::size_t>(j)],
                0.02 * umax)
        << "j=" << j;
  }
}

TEST(Poiseuille, ProfileIsSymmetric) {
  Simulation sim = make_poiseuille(16, 1.0, 1e-5);
  sim.run(2000);
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  for (std::size_t j = 0; j < u.size() / 2; ++j)
    EXPECT_NEAR(u[j], u[u.size() - 1 - j], 1e-10);
}

TEST(Poiseuille, NoSlipAtWallsWithoutWallForce) {
  Simulation sim = make_poiseuille(21, 1.0, 1e-5);
  sim.run(4000);
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  const auto slip = measure_slip(u);
  // wall-extrapolated velocity is a small fraction of the centerline
  EXPECT_LT(std::abs(slip.slip_fraction), 0.02);
}

TEST(Poiseuille, CenterlineScalesInverselyWithViscosity) {
  // nu(tau=1.0) = 1/6, nu(tau=0.8) = 1/10: u_max ratio should be 10/6.
  Simulation a = make_poiseuille(15, 1.0, 1e-5);
  Simulation b = make_poiseuille(15, 0.8, 1e-5);
  a.run(4000);
  b.run(4000);
  const auto ua = velocity_profile_y(a.slab(), 1, 2);
  const auto ub = velocity_profile_y(b.slab(), 1, 2);
  const double ma = *std::max_element(ua.begin(), ua.end());
  const double mb = *std::max_element(ub.begin(), ub.end());
  EXPECT_NEAR(mb / ma, 10.0 / 6.0, 0.05);
}

TEST(Poiseuille, VelocityUniformAlongXAndZ) {
  Simulation sim = make_poiseuille(13, 1.0, 1e-5);
  sim.run(1500);
  const auto u0 = velocity_profile_y(sim.slab(), 0, 1);
  const auto u1 = velocity_profile_y(sim.slab(), 3, 3);
  for (std::size_t j = 0; j < u0.size(); ++j) EXPECT_NEAR(u0[j], u1[j], 1e-12);
}

TEST(Physics, MassConservedOverLongRun) {
  Simulation sim = make_poiseuille(11, 1.0, 1e-5);
  const double m0 = owned_mass(sim.slab(), 0);
  sim.run(3000);
  EXPECT_NEAR(owned_mass(sim.slab(), 0), m0, 1e-8 * m0);
}

TEST(Physics, MomentumSteadyStateBalance) {
  // at steady state, momentum input by gravity is absorbed by the walls;
  // the momentum must stop growing.
  Simulation sim = make_poiseuille(11, 1.0, 1e-5);
  sim.run(3000);
  const double p1 = owned_momentum_x(sim.slab());
  sim.run(500);
  const double p2 = owned_momentum_x(sim.slab());
  EXPECT_NEAR(p2, p1, 1e-3 * std::abs(p1));
}

TEST(Physics, QuiescentFluidStaysQuiescent) {
  Simulation sim(Extents{5, 8, 6}, FluidParams::single_component(1.0, 0.0));
  sim.initialize_uniform();
  sim.run(200);
  const Extents& st = sim.slab().storage();
  for (index_t y = 0; y < 8; ++y)
    for (index_t z = 0; z < 6; ++z) {
      const Vec3 u = sim.slab().velocity().at(st.idx(2, y, z));
      EXPECT_NEAR(u.x, 0.0, 1e-14);
      EXPECT_NEAR(u.y, 0.0, 1e-14);
      EXPECT_NEAR(u.z, 0.0, 1e-14);
    }
}

TEST(Physics, DensityStaysUniformInQuiescentChannel) {
  Simulation sim(Extents{5, 8, 6}, FluidParams::single_component(1.0, 0.0));
  sim.initialize_uniform();
  sim.run(200);
  const Extents& st = sim.slab().storage();
  for (index_t y = 0; y < 8; ++y)
    EXPECT_NEAR(sim.slab().density(0)[st.idx(2, y, 3)], 1.0, 1e-12);
}

TEST(Physics, ObstacleBlocksFlow) {
  // a solid wall spanning the whole cross-section: no net flow can develop
  slipflow::sim::RunnerConfig cfg;
  cfg.global = Extents{8, 6, 6};
  cfg.fluid = FluidParams::single_component(1.0, 1e-5);
  cfg.obstacle = [](index_t x, index_t, index_t) { return x == 2; };
  Simulation sim(std::move(cfg));
  sim.initialize([&](std::size_t, index_t gx, index_t, index_t) {
    return gx == 2 ? 0.0 : 1.0;
  });
  sim.run(500);
  // velocity stays tiny compared to an unobstructed channel
  Simulation open(Extents{8, 6, 6}, FluidParams::single_component(1.0, 1e-5));
  open.initialize_uniform();
  open.run(500);
  const auto ub = velocity_profile_y(sim.slab(), 5, 3);
  const auto uo = velocity_profile_y(open.slab(), 5, 3);
  const double mb = *std::max_element(ub.begin(), ub.end());
  const double mo = *std::max_element(uo.begin(), uo.end());
  EXPECT_LT(std::abs(mb), 0.2 * mo);
}

TEST(Observables, MeasureSlipLinearExtrapolation) {
  // profile u(y) = 2 + y_node where y_node = j + 0.5: wall value = 2.
  std::vector<double> u;
  for (int j = 0; j < 8; ++j) u.push_back(2.0 + (j + 0.5));
  const auto m = measure_slip(u);
  EXPECT_NEAR(m.u_wall, 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.u_center, u.back());
  EXPECT_DOUBLE_EQ(m.u_wall_node, u.front());
}

TEST(Observables, PlaneMassMatchesPattern) {
  Simulation sim(Extents{4, 3, 3}, FluidParams::single_component());
  sim.initialize([](std::size_t, index_t gx, index_t, index_t) {
    return static_cast<double>(gx + 1);
  });
  EXPECT_NEAR(plane_mass(sim.slab(), 0, 2), 3.0 * 9, 1e-12);
}
