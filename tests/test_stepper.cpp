// Stepper-level tests: the oracle's periodic self-exchanger (halo
// contents), and the priming pass and phase sequence contract of the one
// stepping program, sim::Simulation (the runner on one rank).

#include <gtest/gtest.h>

#include <memory>

#include "lbm/observables.hpp"
#include "lbm/stepper.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

std::shared_ptr<const ChannelGeometry> geom(Extents e = {8, 4, 3}) {
  return std::make_shared<const ChannelGeometry>(e);
}

}  // namespace

TEST(SelfExchanger, RequiresFullDomainSlab) {
  Slab partial(geom(), FluidParams::single_component(), 0, 4);
  partial.initialize_uniform();
  PeriodicSelfExchanger halo;
  EXPECT_THROW(halo.exchange_f(partial), slipflow::contract_error);
  EXPECT_THROW(halo.exchange_density(partial), slipflow::contract_error);
}

TEST(SelfExchanger, FHaloWrapsBoundaryPopulations) {
  Slab s(geom(), FluidParams::single_component(), 0, 8);
  s.initialize([](std::size_t, index_t gx, index_t, index_t) {
    return 1.0 + 0.1 * static_cast<double>(gx);
  });
  collide(s);
  PeriodicSelfExchanger halo;
  halo.exchange_f(s);
  const index_t pc = s.plane_cells();
  // left halo (storage x = 0) carries the rightmost owned plane's
  // right-going populations (global wrap)
  for (int d : kRightGoing)
    for (index_t i = 0; i < pc; ++i)
      EXPECT_DOUBLE_EQ(s.f_post(0).dir_plane(d, 0)[i],
                       s.f_post(0).dir_plane(d, 8)[i]);
  for (int d : kLeftGoing)
    for (index_t i = 0; i < pc; ++i)
      EXPECT_DOUBLE_EQ(s.f_post(0).dir_plane(d, 9)[i],
                       s.f_post(0).dir_plane(d, 1)[i]);
}

TEST(SelfExchanger, DensityHaloWraps) {
  Slab s(geom(), FluidParams::microchannel_defaults(), 0, 8);
  s.initialize([](std::size_t c, index_t gx, index_t, index_t) {
    return 0.5 + 0.2 * static_cast<double>(c) +
           0.01 * static_cast<double>(gx);
  });
  PeriodicSelfExchanger halo;
  halo.exchange_density(s);
  const index_t pc = s.plane_cells();
  for (std::size_t c = 0; c < 2; ++c) {
    for (index_t i = 0; i < pc; ++i) {
      EXPECT_DOUBLE_EQ(s.density(c).plane(0)[i], s.density(c).plane(8)[i]);
      EXPECT_DOUBLE_EQ(s.density(c).plane(9)[i], s.density(c).plane(1)[i]);
    }
  }
}

TEST(Prime, PopulatesForcesAndVelocity) {
  Simulation sim(Extents{8, 4, 3}, FluidParams::single_component(1.0, 1e-3));
  sim.initialize_uniform();
  // after priming, ueq carries the gravity shift everywhere owned
  const Extents& st = sim.slab().storage();
  for (index_t lx = 1; lx <= 8; ++lx)
    EXPECT_NEAR(sim.slab().ueq(0).at(st.idx(lx, 1, 1)).x, 1e-3, 1e-12);
}

TEST(StepPhase, VelocityFeedsNextCollision) {
  // the paper's line-17-to-line-4 data flow: after one phase with
  // gravity, the next collision's equilibrium is built from a moving
  // state, increasing momentum monotonically during spin-up
  Simulation sim(Extents{8, 9, 4}, FluidParams::single_component(1.0, 1e-4));
  sim.initialize_uniform();
  double prev = owned_momentum_x(sim.slab());
  for (int i = 0; i < 5; ++i) {
    sim.run(1);
    const double cur = owned_momentum_x(sim.slab());
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

TEST(StepPhase, IdenticalSequencesProduceIdenticalStates) {
  auto run_one = [] {
    Simulation sim(Extents{8, 4, 3}, FluidParams::microchannel_defaults());
    sim.initialize_uniform();
    sim.run(15);
    return sim;
  };
  const Simulation a = run_one();
  const Simulation b = run_one();
  const Extents& st = a.slab().storage();
  for (std::size_t c = 0; c < 2; ++c)
    for (int d = 0; d < kQ; ++d)
      for (index_t cell = st.plane_cells(); cell < 9 * st.plane_cells();
           ++cell)
        ASSERT_EQ(a.slab().f(c).at(d, cell), b.slab().f(c).at(d, cell));
}
