// Golden-value physics regression for the reduced-resolution
// microchannel (the tier-1 guard against silent physics drift).
//
// The reference configuration is the calibrated two-component
// hydrophobic channel (FluidParams::microchannel_defaults) on an
// ny = 20 cross-section — the resolution of the Figure 6/7 harnesses —
// with nx shrunk to 8: the flow is x-uniform, so the cross-channel
// physics is identical to the wide channel while the test stays fast.
//
// Golden values were recorded at phase 2000 from the seed
// implementation (gcc 12, -O3). Tolerances are a few 1e-4 relative —
// wide enough for compiler/FMA variation, far tighter than any physics
// change: a kernel, wall-force, or coupling regression moves the slip
// fraction at the percent level.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

constexpr index_t kNx = 8, kNy = 20, kNz = 10;
constexpr int kPhases = 2000;

// Recorded golden values (see file comment).
constexpr double kGoldSlipFraction = 0.086202530417143791;
constexpr double kGoldUCenter = 0.0020519332460969251;
constexpr double kGoldWallNodeFraction = 0.24069258941407806;
constexpr double kGoldSlipLength = 0.2789905414524258;
constexpr double kGoldWallWaterDensity = 0.45734948531634656;
constexpr double kGoldCenterWaterDensity = 1.7587902597939575;
constexpr double kGoldMassWater = 1600.0;
constexpr double kGoldMassAir = 48.000000000001059;

/// One shared steady-ish state for every assertion below.
const Simulation& golden_run() {
  static Simulation* sim = [] {
    auto* s = new Simulation(Extents{kNx, kNy, kNz},
                             FluidParams::microchannel_defaults());
    s->initialize_uniform();
    s->run(kPhases);
    return s;
  }();
  return *sim;
}

std::vector<double> golden_profile() {
  return velocity_profile_y(golden_run().slab(), kNx / 2, kNz / 2);
}

}  // namespace

TEST(GoldenRegression, ApparentSlipFractionPinned) {
  const auto slip = measure_slip(golden_profile());
  // the paper-style "% slip": ~8.6% of the free-stream velocity at this
  // resolution — inside the ~8-9% band the calibration targets
  EXPECT_NEAR(slip.slip_fraction, kGoldSlipFraction, 2e-4);
  EXPECT_GT(slip.slip_fraction, 0.08);
  EXPECT_LT(slip.slip_fraction, 0.09);
}

TEST(GoldenRegression, CenterlineVelocityPinned) {
  const auto slip = measure_slip(golden_profile());
  EXPECT_NEAR(slip.u_center, kGoldUCenter, 2e-6);
  EXPECT_NEAR(slip.u_wall_node / slip.u_center, kGoldWallNodeFraction, 5e-4);
}

TEST(GoldenRegression, NavierSlipLengthPinned) {
  EXPECT_NEAR(navier_slip_length(golden_profile()), kGoldSlipLength, 1e-3);
}

TEST(GoldenRegression, PerComponentMassTotalsPinned) {
  // initialization pins the totals; 2000 phases must conserve them
  EXPECT_NEAR(owned_mass(golden_run().slab(), 0), kGoldMassWater,
              1e-9 * kGoldMassWater);
  EXPECT_NEAR(owned_mass(golden_run().slab(), 1), kGoldMassAir,
              1e-9 * kGoldMassAir);
}

TEST(GoldenRegression, DepletionLayerDensitiesPinned) {
  const auto water =
      density_profile_y(golden_run().slab(), 0, kNx / 2, kNz / 2);
  // hydrophobic wall force depletes water at the wall and piles it at
  // the channel center — the mechanism behind the apparent slip
  EXPECT_NEAR(water.front(), kGoldWallWaterDensity, 2e-3);
  EXPECT_NEAR(water[water.size() / 2], kGoldCenterWaterDensity, 2e-3);
  EXPECT_LT(water.front(), 0.5);
  EXPECT_GT(water[water.size() / 2], 1.7);
}

TEST(GoldenRegression, ProfileIsSymmetricAcrossTheChannel) {
  const auto u = golden_profile();
  for (std::size_t j = 0; j < u.size() / 2; ++j)
    EXPECT_NEAR(u[j], u[u.size() - 1 - j], 1e-12) << "j=" << j;
}
