// Patterned wettability: the wall_pattern multiplier modulates the
// hydrophobic force over the wall, enabling striped coatings (the MEMS
// design space the paper's introduction motivates).

#include <gtest/gtest.h>

#include <cmath>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

FluidParams striped(double period_cells) {
  FluidParams p = FluidParams::microchannel_defaults();
  p.wall_pattern = [period_cells](index_t gx, index_t, index_t) {
    // alternating hydrophobic (1) / hydrophilic (0) stripes along x
    return std::fmod(static_cast<double>(gx), period_cells) <
                   period_cells / 2
               ? 1.0
               : 0.0;
  };
  return p;
}

}  // namespace

TEST(WallPattern, UnitPatternMatchesUnpatterned) {
  FluidParams plain = FluidParams::microchannel_defaults();
  FluidParams unit = FluidParams::microchannel_defaults();
  unit.wall_pattern = [](index_t, index_t, index_t) { return 1.0; };
  Simulation a(Extents{8, 12, 6}, std::move(plain));
  Simulation b(Extents{8, 12, 6}, std::move(unit));
  a.initialize_uniform();
  b.initialize_uniform();
  a.run(100);
  b.run(100);
  const auto ua = velocity_profile_y(a.slab(), 4, 3);
  const auto ub = velocity_profile_y(b.slab(), 4, 3);
  for (std::size_t j = 0; j < ua.size(); ++j)
    EXPECT_DOUBLE_EQ(ua[j], ub[j]);
}

TEST(WallPattern, ZeroPatternMatchesNoForce) {
  FluidParams none = FluidParams::microchannel_defaults(/*wall_accel=*/0.0);
  FluidParams zero = FluidParams::microchannel_defaults();
  zero.wall_pattern = [](index_t, index_t, index_t) { return 0.0; };
  Simulation a(Extents{8, 12, 6}, std::move(none));
  Simulation b(Extents{8, 12, 6}, std::move(zero));
  a.initialize_uniform();
  b.initialize_uniform();
  a.run(100);
  b.run(100);
  const auto wa = density_profile_y(a.slab(), 0, 4, 3);
  const auto wb = density_profile_y(b.slab(), 0, 4, 3);
  for (std::size_t j = 0; j < wa.size(); ++j)
    EXPECT_DOUBLE_EQ(wa[j], wb[j]);
}

TEST(WallPattern, StripesProduceStripedDepletion) {
  Simulation sim(Extents{24, 14, 6}, striped(12.0));
  sim.initialize_uniform();
  sim.run(800);
  // hydrophobic stripe covers gx in [0,6) and [12,18): compare water
  // density at the wall inside vs outside a stripe
  const auto hydrophobic = density_profile_y(sim.slab(), 0, 3, 3);
  const auto hydrophilic = density_profile_y(sim.slab(), 0, 9, 3);
  EXPECT_LT(hydrophobic.front(), 0.85 * hydrophilic.front());
}

TEST(WallPattern, StripesDriveSecondaryCirculation) {
  // alternating wettability modulates the near-wall density along x,
  // whose Shan-Chen pressure differences drive a steady circulation far
  // stronger than the gravity-driven through-flow — the striped channel
  // is *not* just a Poiseuille flow with variable slip.
  Simulation uniform(Extents{24, 14, 6},
                     FluidParams::microchannel_defaults());
  Simulation stripes(Extents{24, 14, 6}, striped(12.0));
  uniform.initialize_uniform();
  stripes.initialize_uniform();
  uniform.run(800);
  stripes.run(800);
  auto max_abs_u = [](const Simulation& sim) {
    double m = 0.0;
    const Extents& st = sim.slab().storage();
    for (index_t gx = 0; gx < 24; ++gx) {
      const double u = sim.slab().velocity().x()[st.idx(gx + 1, 7, 3)];
      m = std::max(m, std::abs(u));
    }
    return m;
  };
  EXPECT_GT(max_abs_u(stripes), 5.0 * max_abs_u(uniform));
}

TEST(WallPattern, PatternIsDecompositionInvariant) {
  // the pattern is a function of global coordinates, so two slabs with
  // different origins agree on every cell — spot-check through geometry
  // by running two different domains offset in x... the invariance that
  // matters operationally is that sequential == parallel, covered by the
  // parallel tests; here we assert the pattern evaluates globally, i.e.
  // the same simulation shifted by one period gives the same profiles.
  Simulation a(Extents{24, 10, 6}, striped(12.0));
  a.initialize_uniform();
  a.run(300);
  // period-12 pattern: gx and gx+12 see identical coating
  const auto pa = density_profile_y(a.slab(), 0, 2, 3);
  const auto pb = density_profile_y(a.slab(), 0, 14, 3);
  for (std::size_t j = 0; j < pa.size(); ++j)
    EXPECT_NEAR(pa[j], pb[j], 1e-9);
}

TEST(WallPattern, MassStillConserved) {
  Simulation sim(Extents{24, 12, 6}, striped(8.0));
  sim.initialize_uniform();
  const double m0 = owned_mass(sim.slab(), 0);
  sim.run(500);
  EXPECT_NEAR(owned_mass(sim.slab(), 0), m0, 1e-9 * m0);
}
