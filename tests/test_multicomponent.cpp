// Two-component (water + air) physics: the paper's slip mechanism.
// A hydrophobic wall force on the water component produces a depleted
// water / enriched gas layer at the walls (Figure 6) and apparent slip in
// the streamwise velocity profile (Figure 7).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

/// Reduced-resolution microchannel (quasi-2D: periodic z) used by the
/// fast tests; the full 3-D walled channel is exercised by one test and
/// by the Figure 6/7 benches.
Simulation make_channel(double wall_accel, index_t ny = 24,
                        double gravity = 2e-5) {
  FluidParams p = FluidParams::microchannel_defaults(
      wall_accel, /*wall_decay=*/2.5, /*air_fraction=*/0.03,
      /*coupling_g=*/1.0, gravity);
  Simulation sim(Extents{4, ny, 4}, std::move(p),
                 /*walls_y=*/true, /*walls_z=*/false);
  sim.initialize_uniform();
  return sim;
}

}  // namespace

TEST(Multicomponent, MassOfEachComponentConserved) {
  Simulation sim = make_channel(0.05);
  const double m0 = owned_mass(sim.slab(), 0);
  const double m1 = owned_mass(sim.slab(), 1);
  sim.run(800);
  EXPECT_NEAR(owned_mass(sim.slab(), 0), m0, 1e-8 * m0);
  EXPECT_NEAR(owned_mass(sim.slab(), 1), m1, 1e-8 * m1);
}

TEST(Multicomponent, WaterDepletedAtWalls) {
  Simulation sim = make_channel(0.05);
  sim.run(2000);
  const auto water = density_profile_y(sim.slab(), 0, 1, 2);
  const double bulk = water[water.size() / 2];
  // density at the wall-adjacent node is visibly below the bulk value
  EXPECT_LT(water.front(), 0.95 * bulk);
  EXPECT_LT(water.back(), 0.95 * bulk);
}

TEST(Multicomponent, AirEnrichedAtWalls) {
  Simulation sim = make_channel(0.05);
  sim.run(2000);
  const auto air = density_profile_y(sim.slab(), 1, 1, 2);
  const double bulk = air[air.size() / 2];
  EXPECT_GT(air.front(), 1.05 * bulk);
  EXPECT_GT(air.back(), 1.05 * bulk);
}

TEST(Multicomponent, DepletionLayerIsThin) {
  // the exponential wall force (decay 2 lattice units) confines the
  // density disturbance to the near-wall region: mid-channel stays bulk.
  Simulation sim = make_channel(0.05);
  sim.run(2000);
  const auto water = density_profile_y(sim.slab(), 0, 1, 2);
  const double bulk = water[water.size() / 2];
  const std::size_t quarter = water.size() / 4;
  EXPECT_NEAR(water[quarter], bulk, 0.05 * bulk);
}

TEST(Multicomponent, ProfilesSymmetricAcrossChannel) {
  Simulation sim = make_channel(0.05);
  sim.run(1500);
  const auto water = density_profile_y(sim.slab(), 1, 1, 2);
  for (std::size_t j = 0; j < water.size() / 2; ++j)
    EXPECT_NEAR(water[j], water[water.size() - 1 - j], 1e-8);
}

TEST(Multicomponent, NoDepletionWithoutWallForce) {
  // without the hydrophobic force only the (small) Shan-Chen wall
  // artifact remains: the wall value stays within ~10% of bulk, far from
  // the ~80% depletion the paper-strength force produces.
  Simulation sim = make_channel(0.0);
  sim.run(1500);
  const auto water = density_profile_y(sim.slab(), 0, 1, 2);
  const double bulk = water[water.size() / 2];
  EXPECT_GT(water.front(), 0.88 * bulk);
}

TEST(Multicomponent, WallForceProducesApparentSlip) {
  // quasi-2D version: with the hydrophobic wall force at the paper's
  // amplitude (0.2) the wall-extrapolated streamwise velocity is clearly
  // nonzero; without it the channel is no-slip. The full ~10% figure
  // needs the paper's thin-depth 3-D geometry — see the next test and
  // the Figure 7 bench.
  Simulation forced = make_channel(0.2);
  Simulation control = make_channel(0.0);
  forced.run(4000);
  control.run(4000);
  const auto slip_f =
      measure_slip(velocity_profile_y(forced.slab(), 1, 2));
  const auto slip_c =
      measure_slip(velocity_profile_y(control.slab(), 1, 2));
  EXPECT_LT(std::abs(slip_c.slip_fraction), 0.01);
  EXPECT_GT(slip_f.slip_fraction, 0.015);
  EXPECT_LT(slip_f.slip_fraction, 0.20);
}

TEST(Multicomponent, ThinDepthChannelSlipsNearTenPercent) {
  // the paper's geometry has depth 1/10 of the width, so the top/bottom
  // walls force the whole depth; this is where the ~10% slip lives.
  FluidParams p = FluidParams::microchannel_defaults();
  Simulation sim(Extents{6, 20, 10}, std::move(p));
  sim.initialize_uniform();
  sim.run(2500);
  const auto s = measure_slip(velocity_profile_y(sim.slab(), 2, 5));
  EXPECT_GT(s.slip_fraction, 0.05);
  EXPECT_LT(s.slip_fraction, 0.16);
}

TEST(Multicomponent, SlipGrowsWithForceAmplitude) {
  Simulation weak = make_channel(0.05);
  Simulation strong = make_channel(0.2);
  weak.run(2500);
  strong.run(2500);
  const auto sw = measure_slip(velocity_profile_y(weak.slab(), 1, 2));
  const auto ss = measure_slip(velocity_profile_y(strong.slab(), 1, 2));
  EXPECT_GT(ss.slip_fraction, sw.slip_fraction);
}

TEST(Multicomponent, StableInFull3DWalledChannel) {
  FluidParams p = FluidParams::microchannel_defaults();
  Simulation sim(Extents{6, 20, 10}, std::move(p));
  sim.initialize_uniform();
  sim.run(600);
  const Extents& st = sim.slab().storage();
  for (index_t y = 0; y < st.ny; ++y)
    for (index_t z = 0; z < st.nz; ++z) {
      const double n = sim.slab().density(0)[st.idx(2, y, z)];
      EXPECT_TRUE(std::isfinite(n));
      EXPECT_GE(n, 0.0);
      EXPECT_LE(n, 2.0);
    }
}

TEST(Multicomponent, VelocityProfileStaysParabolicInBulk) {
  Simulation sim = make_channel(0.05);
  sim.run(3000);
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  // bulk curvature: centered second difference is negative (concave)
  const std::size_t c = u.size() / 2;
  EXPECT_LT(u[c + 1] - 2 * u[c] + u[c - 1], 0.0);
  // and the maximum sits at the center
  const auto it = std::max_element(u.begin(), u.end());
  const auto pos = static_cast<std::size_t>(it - u.begin());
  EXPECT_NEAR(static_cast<double>(pos), static_cast<double>(c), 1.5);
}
