// Single-component nonideal fluid (original Shan-Chen pseudopotential,
// attractive self-coupling): phase separation, coexistence, and the
// Laplace pressure jump across a curved interface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

/// Shan-Chen equation of state: p = n cs^2 + (cs^2 g / 2) psi(n)^2 with
/// psi = 1 - exp(-n).
double sc_pressure(double n, double g) {
  const double psi = 1.0 - std::exp(-n);
  return n * kCs2 + 0.5 * kCs2 * g * psi * psi;
}

/// Periodic box with a seeded density stripe/droplet. z size kept tiny —
/// the physics of interest is 2-D-like.
Simulation periodic_box(Extents e, FluidParams p) {
  return Simulation(e, std::move(p), /*walls_y=*/false,
                    /*walls_z=*/false);
}

}  // namespace

TEST(LiquidVapor, UniformStateStaysUniformAboveCriticalG) {
  // weak attraction (above critical, i.e. |g| too small to demix)
  Simulation sim = periodic_box(Extents{16, 16, 2},
                                FluidParams::liquid_vapor(-2.0));
  sim.initialize_uniform();
  sim.run(400);
  const auto prof = density_profile_y(sim.slab(), 0, 4, 1);
  for (double v : prof) EXPECT_NEAR(v, 1.0, 1e-6);
}

TEST(LiquidVapor, SeededStripeSeparatesIntoTwoPhases) {
  Simulation sim = periodic_box(Extents{8, 32, 2},
                                FluidParams::liquid_vapor(-5.0));
  // a denser stripe in the middle third seeds the liquid phase
  sim.initialize([](std::size_t, index_t, index_t gy, index_t) {
    return (gy >= 11 && gy < 21) ? 1.6 : 0.8;
  });
  sim.run(2000);
  const auto n = density_profile_y(sim.slab(), 0, 4, 1);
  const double lo = *std::min_element(n.begin(), n.end());
  const double hi = *std::max_element(n.begin(), n.end());
  EXPECT_GT(hi / lo, 3.0);  // clearly two phases
  for (double v : n) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

TEST(LiquidVapor, CoexistenceDensitiesAreStable) {
  // seed a planar liquid slab directly at near-coexistence densities so
  // the test measures stability of the equilibrium, not coarsening speed
  Simulation sim = periodic_box(Extents{8, 32, 2},
                                FluidParams::liquid_vapor(-5.0));
  sim.initialize([](std::size_t, index_t, index_t gy, index_t) {
    return (gy >= 11 && gy < 21) ? 1.9 : 0.2;
  });
  sim.run(2500);
  const auto n1 = density_profile_y(sim.slab(), 0, 4, 1);
  sim.run(500);
  const auto n2 = density_profile_y(sim.slab(), 0, 4, 1);
  // the phase densities have converged
  const double hi1 = *std::max_element(n1.begin(), n1.end());
  const double hi2 = *std::max_element(n2.begin(), n2.end());
  const double lo1 = *std::min_element(n1.begin(), n1.end());
  const double lo2 = *std::min_element(n2.begin(), n2.end());
  EXPECT_NEAR(hi2, hi1, 0.02 * hi1);
  EXPECT_NEAR(lo2, lo1, 0.05 * lo1);
}

TEST(LiquidVapor, MassConservedThroughSeparation) {
  Simulation sim = periodic_box(Extents{8, 24, 2},
                                FluidParams::liquid_vapor(-5.0));
  sim.initialize([](std::size_t, index_t, index_t gy, index_t) {
    return (gy >= 8 && gy < 16) ? 1.6 : 0.8;
  });
  const double m0 = owned_mass(sim.slab(), 0);
  sim.run(1500);
  EXPECT_NEAR(owned_mass(sim.slab(), 0), m0, 1e-8 * m0);
}

namespace {

/// Form a liquid cylinder (periodic in x and z) of given seed radius and
/// return (pressure inside, pressure outside, measured radius).
struct Droplet {
  double p_in, p_out, radius;
};

Droplet run_droplet(double seed_radius, double g) {
  const index_t n = 44;
  Simulation sim = periodic_box(Extents{4, n, n},
                                FluidParams::liquid_vapor(g));
  const double cy = n / 2.0 - 0.5, cz = n / 2.0 - 0.5;
  // background seeded near the vapor coexistence density so the vapor is
  // not inside the spinodal (it would condense everywhere otherwise)
  sim.initialize([&](std::size_t, index_t, index_t gy, index_t gz) {
    const double dy = static_cast<double>(gy) - cy;
    const double dz = static_cast<double>(gz) - cz;
    return std::sqrt(dy * dy + dz * dz) < seed_radius ? 1.9 : 0.2;
  });
  sim.run(3000);

  const Extents& st = sim.slab().storage();
  // average small probe regions (spurious currents make single cells
  // noisy): droplet center 3x3 and the far corner 3x3
  auto probe = [&](index_t y0, index_t z0) {
    double s = 0.0;
    for (index_t y = y0; y < y0 + 3; ++y)
      for (index_t z = z0; z < z0 + 3; ++z)
        s += sim.slab().density(0)[st.idx(1, y, z)];
    return s / 9.0;
  };
  const double n_in = probe(n / 2 - 1, n / 2 - 1);
  const double n_out = probe(0, 0);
  const double thresh = 0.5 * (n_in + n_out);
  double area = 0.0;
  for (index_t y = 0; y < n; ++y)
    for (index_t z = 0; z < n; ++z)
      if (sim.slab().density(0)[st.idx(1, y, z)] > thresh) area += 1.0;
  return {sc_pressure(n_in, g), sc_pressure(n_out, g),
          std::sqrt(area / M_PI)};
}

}  // namespace

TEST(LiquidVapor, LaplaceLawPressureJump) {
  // dp = sigma / R for a 2-D (cylindrical) interface. At the resolutions
  // and run lengths a unit test affords, the quantitative sigma constant
  // still drifts with the diffuse-interface width, so this asserts the
  // robust core of the law: both jumps positive and the smaller droplet
  // carrying the strictly larger jump.
  const double g = -5.0;
  const Droplet small = run_droplet(8.0, g);
  const Droplet large = run_droplet(14.0, g);
  EXPECT_GT(small.radius, 6.0);
  EXPECT_GT(large.radius, small.radius + 3.0);
  const double dp_small = small.p_in - small.p_out;
  const double dp_large = large.p_in - large.p_out;
  EXPECT_GT(dp_small, 0.0);
  EXPECT_GT(dp_large, 0.0);
  EXPECT_GT(dp_small, 1.5 * dp_large);
  // interior density exceeds the flat-interface liquid branch more for
  // the more curved interface (the Kelvin effect's sign)
  EXPECT_GT(small.p_in, large.p_in);
}
