/// The paper's physics experiment at configurable resolution: a
/// 2 x 1 x 0.1 micron hydrophobic microchannel (Figure 5), water + air,
/// with profile CSV output for plotting Figures 6 and 7.
///
///   build/examples/microchannel_slip [--ny=20] [--steps=2500]
///       [--wall-force=0.2] [--decay=2.5] [--air=0.03] [--coupling=1.0]
///       [--out=profiles.csv]
///
/// --ny sets the resolution across the 1-micron width; x and z scale to
/// keep the paper's 2:1:0.1 geometry. The paper's own resolution is
/// --ny=200 (400x200x20) — large but valid if you have the time.

#include <iostream>

#include "lbm/observables.hpp"
#include "sim/simulation.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const index_t ny = opts.get("ny", 20LL);
  const int steps = static_cast<int>(opts.get("steps", 2500LL));
  const double wall_force = opts.get("wall-force", 0.2);
  const double decay = opts.get("decay", 2.5);
  const double air = opts.get("air", 0.03);
  const double coupling = opts.get("coupling", 1.0);
  const std::string out = opts.get("out", std::string("profiles.csv"));
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }

  // depth chosen to preserve the paper's decay-to-depth ratio at reduced
  // resolution (see DESIGN.md); the paper's own 10:1 width:depth aspect
  // is recovered at --ny=200
  const index_t nz = ny >= 100 ? ny / 10 : std::max<index_t>(ny / 2, 4);
  const Extents grid{2 * ny, ny, nz};
  const double nm = 1000.0 / static_cast<double>(ny);  // nm per cell

  FluidParams fluid =
      FluidParams::microchannel_defaults(wall_force, decay, air, coupling);
  std::cout << "microchannel " << grid.nx << "x" << grid.ny << "x" << grid.nz
            << " (grid spacing " << nm << " nm), wall force " << wall_force
            << ", decay " << decay * nm << " nm, " << steps << " phases\n";

  Simulation sim(grid, fluid);
  sim.initialize_uniform();
  for (int done = 0; done < steps;) {
    const int chunk = std::min(500, steps - done);
    sim.run(chunk);
    done += chunk;
    const auto ux = velocity_profile_y(sim.slab(), grid.nx / 2, grid.nz / 2);
    const auto slip = measure_slip(ux);
    std::cout << "  phase " << done << ": u0 = " << slip.u_center
              << ", slip = " << slip.slip_fraction << "\n";
  }

  const index_t xm = grid.nx / 2, zm = grid.nz / 2;
  const auto water = density_profile_y(sim.slab(), 0, xm, zm);
  const auto vapor = density_profile_y(sim.slab(), 1, xm, zm);
  const auto ux = velocity_profile_y(sim.slab(), xm, zm);
  const auto slip = measure_slip(ux);

  util::Table table("profiles at x = L/2, z = mid-depth");
  table.header({"y_nm", "water_density", "air_density", "u_over_u0"});
  for (index_t j = 0; j < ny; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    table.row({(static_cast<double>(j) + 0.5) * nm, water[ju], vapor[ju],
               ux[ju] / slip.u_center});
  }
  table.save_csv(out);

  std::cout << "\nresults:\n"
            << "  water depletion at wall: " << water.front() << " vs bulk "
            << water[static_cast<std::size_t>(ny / 2)] << "\n"
            << "  air enrichment at wall:  " << vapor.front() << " vs bulk "
            << vapor[static_cast<std::size_t>(ny / 2)] << "\n"
            << "  apparent slip u_wall/u0: " << slip.slip_fraction
            << "   (paper: ~0.1)\n"
            << "profiles written to " << out << "\n";
  return 0;
}
