// Steady-state monitor and Simulation::run_until_steady.

#include <gtest/gtest.h>

#include <cmath>

#include "lbm/convergence.hpp"
#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

TEST(SteadyMonitor, FirstCheckNeverConverges) {
  Simulation sim(Extents{4, 8, 4}, FluidParams::single_component(1.0, 0.0));
  sim.initialize_uniform();
  SteadyStateMonitor m(1e-3);
  EXPECT_FALSE(m.check(sim.slab()));
  EXPECT_TRUE(std::isinf(m.last_residual()));
}

TEST(SteadyMonitor, QuiescentFluidConvergesImmediately) {
  Simulation sim(Extents{4, 8, 4}, FluidParams::single_component(1.0, 0.0));
  sim.initialize_uniform();
  SteadyStateMonitor m(1e-6);
  m.check(sim.slab());
  sim.run(5);
  EXPECT_TRUE(m.check(sim.slab()));
}

TEST(SteadyMonitor, DevelopingFlowIsNotConverged) {
  Simulation sim(Extents{4, 15, 4}, FluidParams::single_component(1.0, 1e-5),
                 true, false);
  sim.initialize_uniform();
  SteadyStateMonitor m(1e-10);
  m.check(sim.slab());
  sim.run(20);  // still accelerating from rest
  EXPECT_FALSE(m.check(sim.slab()));
  EXPECT_GT(m.last_residual(), 1e-4);
}

TEST(SteadyMonitor, ResidualDecreasesAsFlowDevelops) {
  Simulation sim(Extents{4, 15, 4}, FluidParams::single_component(1.0, 1e-5),
                 true, false);
  sim.initialize_uniform();
  SteadyStateMonitor m(1e-14);
  m.check(sim.slab());
  sim.run(100);
  m.check(sim.slab());
  const double early = m.last_residual();
  sim.run(2000);
  m.check(sim.slab());
  sim.run(100);
  m.check(sim.slab());
  const double late = m.last_residual();
  EXPECT_LT(late, 0.1 * early);
}

TEST(SteadyMonitor, ResetForgetsBaseline) {
  Simulation sim(Extents{4, 8, 4}, FluidParams::single_component(1.0, 0.0));
  sim.initialize_uniform();
  SteadyStateMonitor m(1e-6);
  m.check(sim.slab());
  m.reset();
  EXPECT_FALSE(m.check(sim.slab()));  // baseline gone
}

TEST(RunUntilSteady, StopsEarlyOnSteadyFlow) {
  Simulation sim(Extents{4, 11, 4}, FluidParams::single_component(1.0, 1e-5),
                 true, false);
  sim.initialize_uniform();
  const int done = sim.run_until_steady(20000, 1e-9, 50);
  EXPECT_LT(done, 20000);          // converged before the cap
  EXPECT_GT(done, 200);            // but not instantly
  // and the result is the Poiseuille steady state
  const auto u = velocity_profile_y(sim.slab(), 1, 2);
  const double umax = *std::max_element(u.begin(), u.end());
  const double nu = 1.0 / 6.0;
  const double expect = 1e-5 / (2 * nu) * (11.0 * 11.0 / 4.0);
  EXPECT_NEAR(umax, expect, 0.03 * expect);
}

TEST(RunUntilSteady, RespectsMaxPhases) {
  Simulation sim(Extents{4, 15, 4}, FluidParams::single_component(1.0, 1e-5),
                 true, false);
  sim.initialize_uniform();
  const int done = sim.run_until_steady(120, 1e-14, 40);
  EXPECT_EQ(done, 120);
  EXPECT_EQ(sim.phase_count(), 120);
}

TEST(SlipLength, NoSlipProfileGivesNearZero) {
  // parabola through the half-way wall: u(j) ~ (j+0.5)(n-0.5-j)
  std::vector<double> u;
  for (int j = 0; j < 16; ++j)
    u.push_back((j + 0.5) * (15.5 - j));
  EXPECT_NEAR(navier_slip_length(u), 0.0, 0.15);
}

TEST(SlipLength, LinearCouettegivesWallIntercept) {
  // u(y) = a (y + b): slope a, wall value a*b -> slip length b
  std::vector<double> u;
  const double a = 0.01, b = 3.0;
  for (int j = 0; j < 12; ++j) u.push_back(a * ((j + 0.5) + b));
  EXPECT_NEAR(navier_slip_length(u), b, 1e-9);
}

TEST(SlipLength, HydrophobicChannelHasPositiveSlipLength) {
  FluidParams p = FluidParams::microchannel_defaults();
  Simulation sim(Extents{6, 20, 10}, std::move(p));
  sim.initialize_uniform();
  sim.run(2000);
  const auto u = velocity_profile_y(sim.slab(), 2, 5);
  EXPECT_GT(navier_slip_length(u), 0.2);
}
