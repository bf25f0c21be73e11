// Moving-wall bounce-back: Couette flow validation against the linear
// analytic profile, and the wall-velocity configuration contract.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

using Wall = ChannelGeometry::Wall;

/// A y-walled, z-periodic 4 x ny x 4 channel whose top y-wall moves at
/// `top_u` (and bottom wall at `bottom_u` when `also_bottom`).
Simulation couette(index_t ny, const Vec3& top_u, FluidParams p,
                   bool also_bottom = false, const Vec3& bottom_u = {}) {
  slipflow::sim::RunnerConfig cfg;
  cfg.global = Extents{4, ny, 4};
  cfg.fluid = std::move(p);
  cfg.walls_z = false;
  cfg.wall_velocity[static_cast<std::size_t>(Wall::y_high)] = top_u;
  if (also_bottom)
    cfg.wall_velocity[static_cast<std::size_t>(Wall::y_low)] = bottom_u;
  return Simulation(std::move(cfg));
}

}  // namespace

TEST(MovingWalls, ConfigurationContract) {
  ChannelGeometry g(Extents{4, 8, 8});
  EXPECT_FALSE(g.has_moving_walls());
  g.set_wall_velocity(Wall::y_high, Vec3{0.1, 0.0, 0.0});
  EXPECT_TRUE(g.has_moving_walls());
  // normal component forbidden
  EXPECT_THROW(g.set_wall_velocity(Wall::y_low, Vec3{0.0, 0.1, 0.0}),
               slipflow::contract_error);
  EXPECT_THROW(g.set_wall_velocity(Wall::z_low, Vec3{0.0, 0.0, 0.1}),
               slipflow::contract_error);
  // resetting to zero clears the flag
  g.set_wall_velocity(Wall::y_high, Vec3{});
  EXPECT_FALSE(g.has_moving_walls());
}

TEST(MovingWalls, PeriodicDirectionRejected) {
  ChannelGeometry g(Extents{4, 8, 8}, nullptr, /*walls_y=*/false, true);
  EXPECT_THROW(g.set_wall_velocity(Wall::y_low, Vec3{0.1, 0, 0}),
               slipflow::contract_error);
}

TEST(Couette, LinearProfile) {
  const index_t ny = 16;
  const double U = 0.04;
  FluidParams p = FluidParams::single_component(1.0, 0.0);
  Simulation sim = couette(ny, Vec3{U, 0, 0}, std::move(p));
  sim.initialize_uniform();
  sim.run(3000);
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  // analytic: u(y) = U * (j + 1/2) / ny with half-way wall positions
  for (index_t j = 0; j < ny; ++j) {
    const double expect = U * (static_cast<double>(j) + 0.5) / ny;
    EXPECT_NEAR(u[static_cast<std::size_t>(j)], expect, 0.02 * U) << j;
  }
}

TEST(Couette, CounterMovingWallsAntisymmetric) {
  const index_t ny = 14;
  const double U = 0.03;
  FluidParams p = FluidParams::single_component(1.0, 0.0);
  Simulation sim =
      couette(ny, Vec3{U, 0, 0}, std::move(p), true, Vec3{-U, 0, 0});
  sim.initialize_uniform();
  sim.run(3000);
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  for (index_t j = 0; j < ny / 2; ++j) {
    EXPECT_NEAR(u[static_cast<std::size_t>(j)],
                -u[static_cast<std::size_t>(ny - 1 - j)], 1e-6);
  }
  // center is (anti)symmetric around zero
  EXPECT_NEAR(u[static_cast<std::size_t>(ny / 2)], U / ny, 0.05 * U);
}

TEST(Couette, MassConserved) {
  FluidParams p = FluidParams::single_component(1.0, 0.0);
  Simulation sim = couette(12, Vec3{0.05, 0, 0}, std::move(p));
  sim.initialize_uniform();
  const double m0 = owned_mass(sim.slab(), 0);
  sim.run(1000);
  EXPECT_NEAR(owned_mass(sim.slab(), 0), m0, 1e-8 * m0);
}

TEST(Couette, SpanwiseWallMotionDragsZVelocity) {
  // move the top y-wall along z instead of x: the z-velocity profile
  // must become the linear Couette profile, with no x flow
  FluidParams p = FluidParams::single_component(1.0, 0.0);
  Simulation sim = couette(12, Vec3{0, 0, 0.03}, std::move(p));
  sim.initialize_uniform();
  sim.run(2500);
  const Extents& st = sim.slab().storage();
  for (index_t j = 0; j < 12; ++j) {
    const Vec3 u = sim.slab().velocity().at(st.idx(1, j, 2));
    const double expect = 0.03 * (static_cast<double>(j) + 0.5) / 12.0;
    EXPECT_NEAR(u.z, expect, 0.002);
    EXPECT_NEAR(u.x, 0.0, 1e-9);
  }
}

TEST(Couette, ZeroWallVelocityMatchesStaticWalls) {
  FluidParams p = FluidParams::single_component(1.0, 1e-5);
  Simulation moving = couette(10, Vec3{}, p);
  Simulation fixed(Extents{4, 10, 4}, p, true, false);
  moving.initialize_uniform();
  fixed.initialize_uniform();
  moving.run(300);
  fixed.run(300);
  const auto um = velocity_profile_y(moving.slab(), 1, 2);
  const auto uf = velocity_profile_y(fixed.slab(), 1, 2);
  for (std::size_t j = 0; j < um.size(); ++j)
    EXPECT_DOUBLE_EQ(um[j], uf[j]);
}

TEST(Couette, TopBottomZWallsDriveFlow) {
  // moving z-walls in a y-periodic slit
  slipflow::sim::RunnerConfig cfg;
  cfg.global = Extents{4, 4, 12};
  cfg.fluid = FluidParams::single_component(1.0, 0.0);
  cfg.walls_y = false;
  cfg.wall_velocity[static_cast<std::size_t>(Wall::z_high)] = Vec3{0.04, 0, 0};
  Simulation sim(std::move(cfg));
  sim.initialize_uniform();
  sim.run(2500);
  const auto u = velocity_profile_z(sim.slab(), 1, 2);
  for (index_t k = 0; k < 12; ++k) {
    const double expect = 0.04 * (static_cast<double>(k) + 0.5) / 12.0;
    EXPECT_NEAR(u[static_cast<std::size_t>(k)], expect, 0.003);
  }
}
