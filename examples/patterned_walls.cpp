/// Striped-wettability microchannel: alternating hydrophobic /
/// hydrophilic wall stripes along the flow direction — the kind of
/// engineered coating the paper's introduction motivates ("optimizing
/// the flow in microdevices to achieve desired objectives").
///
/// Shows the striped depletion layer, the wettability-gradient-driven
/// secondary circulation, and writes a VTK snapshot for visualization.
///
///   build/examples/patterned_walls [--stripes=4] [--steps=1500]
///       [--nx=48] [--vtk=striped.vtk]

#include <cmath>
#include <iostream>

#include "lbm/observables.hpp"
#include "lbm/vtk.hpp"
#include "sim/simulation.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const index_t nx = opts.get("nx", 48LL);
  const int stripes = static_cast<int>(opts.get("stripes", 4LL));
  const int steps = static_cast<int>(opts.get("steps", 1500LL));
  const std::string vtk = opts.get("vtk", std::string("striped.vtk"));
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }

  const double period = static_cast<double>(nx) / stripes;
  FluidParams fluid = FluidParams::microchannel_defaults();
  fluid.wall_pattern = [period](index_t gx, index_t, index_t) {
    return std::fmod(static_cast<double>(gx), period) < period / 2 ? 1.0
                                                                   : 0.0;
  };

  const Extents grid{nx, 16, 8};
  std::cout << "striped channel " << grid.nx << "x" << grid.ny << "x"
            << grid.nz << ", " << stripes << " stripes of period " << period
            << " cells, " << steps << " phases\n";

  Simulation sim(grid, fluid);
  sim.initialize_uniform();
  sim.run(steps);

  util::Table table("per-stripe wall state (z = mid-depth)");
  table.header({"x", "coating", "wall_water", "wall_air", "u_x_wall",
                "u_x_center"});
  for (index_t gx = 0; gx < nx; gx += nx / 8) {
    const bool phobic =
        std::fmod(static_cast<double>(gx), period) < period / 2;
    const auto water = density_profile_y(sim.slab(), 0, gx, grid.nz / 2);
    const auto air = density_profile_y(sim.slab(), 1, gx, grid.nz / 2);
    const auto ux = velocity_profile_y(sim.slab(), gx, grid.nz / 2);
    table.row({static_cast<long long>(gx),
               std::string(phobic ? "hydrophobic" : "hydrophilic"),
               water.front(), air.front(), ux.front(),
               ux[ux.size() / 2]});
  }
  table.print(std::cout);

  write_vtk(sim.slab(), vtk, "striped wettability microchannel");
  std::cout << "\nfields written to " << vtk
            << " (water depletion follows the hydrophobic stripes; the "
               "wettability gradient drives a secondary circulation)\n";
  return 0;
}
