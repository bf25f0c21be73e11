// Systematic conservation / boundedness sweep: every combination of
// component count, collision operator, wall configuration and driving
// must conserve mass exactly and stay finite. This is the safety net
// behind all feature interactions (e.g. MRT x moving walls x patterns).

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

enum class Fluid { single, two_component, liquid_vapor };
enum class WallsCase { both, slit_y, slit_z, moving_top, patterned };

struct Case {
  Fluid fluid;
  CollisionModel collision;
  WallsCase walls;
};

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  std::string s;
  switch (info.param.fluid) {
    case Fluid::single: s += "Single"; break;
    case Fluid::two_component: s += "TwoComp"; break;
    case Fluid::liquid_vapor: s += "LiquidVapor"; break;
  }
  s += info.param.collision == CollisionModel::bgk ? "Bgk" : "Mrt";
  switch (info.param.walls) {
    case WallsCase::both: s += "Walls"; break;
    case WallsCase::slit_y: s += "SlitY"; break;
    case WallsCase::slit_z: s += "SlitZ"; break;
    case WallsCase::moving_top: s += "Moving"; break;
    case WallsCase::patterned: s += "Patterned"; break;
  }
  return s;
}

Simulation build(const Case& c) {
  FluidParams p;
  switch (c.fluid) {
    case Fluid::single: p = FluidParams::single_component(1.0, 1e-5); break;
    case Fluid::two_component: p = FluidParams::microchannel_defaults(); break;
    case Fluid::liquid_vapor: p = FluidParams::liquid_vapor(-5.0); break;
  }
  for (auto& comp : p.components) comp.collision = c.collision;
  if (c.walls == WallsCase::patterned) {
    p.wall_pattern = [](index_t gx, index_t, index_t) {
      return gx % 4 < 2 ? 1.0 : 0.3;
    };
  }

  slipflow::sim::RunnerConfig cfg;
  cfg.global = Extents{8, 10, 6};
  cfg.fluid = std::move(p);
  cfg.walls_y = c.walls != WallsCase::slit_y;
  cfg.walls_z = c.walls != WallsCase::slit_z;
  if (c.walls == WallsCase::moving_top)
    cfg.wall_velocity[static_cast<std::size_t>(ChannelGeometry::Wall::y_high)] =
        Vec3{0.02, 0, 0};
  return Simulation(std::move(cfg));
}

}  // namespace

class ConservationMatrix : public ::testing::TestWithParam<Case> {};

TEST_P(ConservationMatrix, MassConservedAndFieldsBounded) {
  Simulation sim = build(GetParam());
  sim.initialize_uniform();
  std::vector<double> mass0;
  for (std::size_t c = 0; c < sim.slab().num_components(); ++c)
    mass0.push_back(owned_mass(sim.slab(), c));
  sim.run(150);
  for (std::size_t c = 0; c < sim.slab().num_components(); ++c) {
    EXPECT_NEAR(owned_mass(sim.slab(), c), mass0[c],
                1e-9 * std::max(mass0[c], 1.0))
        << "component " << c;
  }
  const Extents& st = sim.slab().storage();
  for (index_t lx = 1; lx <= 8; ++lx)
    for (index_t y = 0; y < st.ny; ++y)
      for (index_t z = 0; z < st.nz; ++z) {
        const index_t cell = st.idx(lx, y, z);
        for (std::size_t c = 0; c < sim.slab().num_components(); ++c) {
          const double n = sim.slab().density(c)[cell];
          ASSERT_TRUE(std::isfinite(n));
          ASSERT_LT(std::abs(n), 10.0);
        }
        ASSERT_TRUE(std::isfinite(sim.slab().velocity().at(cell).x));
      }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ConservationMatrix,
    ::testing::Values(
        Case{Fluid::single, CollisionModel::bgk, WallsCase::both},
        Case{Fluid::single, CollisionModel::bgk, WallsCase::slit_y},
        Case{Fluid::single, CollisionModel::bgk, WallsCase::slit_z},
        Case{Fluid::single, CollisionModel::bgk, WallsCase::moving_top},
        Case{Fluid::single, CollisionModel::mrt, WallsCase::both},
        Case{Fluid::single, CollisionModel::mrt, WallsCase::moving_top},
        Case{Fluid::two_component, CollisionModel::bgk, WallsCase::both},
        Case{Fluid::two_component, CollisionModel::bgk, WallsCase::slit_y},
        Case{Fluid::two_component, CollisionModel::bgk, WallsCase::patterned},
        Case{Fluid::two_component, CollisionModel::mrt, WallsCase::both},
        Case{Fluid::two_component, CollisionModel::mrt, WallsCase::patterned},
        Case{Fluid::liquid_vapor, CollisionModel::bgk, WallsCase::both},
        Case{Fluid::liquid_vapor, CollisionModel::bgk, WallsCase::slit_y},
        Case{Fluid::liquid_vapor, CollisionModel::mrt, WallsCase::both}),
    case_name);
