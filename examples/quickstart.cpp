/// Quickstart: simulate the water-air mixture in a small hydrophobic
/// microchannel and measure the apparent slip — the paper's core physics
/// in ~40 lines of user code.
///
///   build/examples/quickstart

#include <iostream>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

int main() {
  // a thin microchannel: x is the (periodic) flow direction, side walls
  // at the y extents, top/bottom walls at the z extents
  const Extents grid{40, 20, 8};

  // two components — water plus trace dissolved air — with the paper's
  // hydrophobic wall force (repels water, neutral to air)
  FluidParams fluid = FluidParams::microchannel_defaults();

  Simulation sim(grid, fluid);
  sim.initialize_uniform();

  std::cout << "running " << grid.nx << "x" << grid.ny << "x" << grid.nz
            << " microchannel, " << fluid.components[0].name << " + "
            << fluid.components[1].name << " ...\n";
  sim.run(2000);

  // measure along the channel width at the mid cross-section
  const auto water = density_profile_y(sim.slab(), 0, grid.nx / 2, grid.nz / 2);
  const auto air = density_profile_y(sim.slab(), 1, grid.nx / 2, grid.nz / 2);
  const auto ux = velocity_profile_y(sim.slab(), grid.nx / 2, grid.nz / 2);
  const SlipMeasurement slip = measure_slip(ux);

  std::cout << "water density: wall " << water.front() << "  bulk "
            << water[water.size() / 2] << "\n"
            << "air   density: wall " << air.front() << "  bulk "
            << air[air.size() / 2] << "\n"
            << "apparent slip: u_wall/u0 = " << slip.slip_fraction
            << "  (paper: ~0.1 with hydrophobic walls)\n";

  // the depleted water / enriched air layer is what produces the slip
  return slip.slip_fraction > 0.0 ? 0 : 1;
}
