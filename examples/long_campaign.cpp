/// A production-style campaign: run the microchannel toward steady state
/// in restartable legs — exactly the workflow the paper's "days to
/// weeks" runs need. Each leg resumes from the newest checkpoint,
/// advances until a convergence check or a leg budget, saves a
/// checkpoint and a VTK snapshot, and reports the slip trajectory.
///
///   build/examples/long_campaign [--legs=3] [--leg-phases=800]
///       [--ny=16] [--tol=1e-7] [--dir=campaign]

#include <filesystem>
#include <iostream>

#include "lbm/checkpoint.hpp"
#include "lbm/convergence.hpp"
#include "lbm/observables.hpp"
#include "lbm/units.hpp"
#include "lbm/vtk.hpp"
#include "sim/simulation.hpp"
#include "util/options.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const int legs = static_cast<int>(opts.get("legs", 3LL));
  const int leg_phases = static_cast<int>(opts.get("leg-phases", 800LL));
  const index_t ny = opts.get("ny", 16LL);
  const double tol = opts.get("tol", 1e-7);
  const std::string dir = opts.get("dir", std::string("campaign"));
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }

  std::filesystem::create_directories(dir);
  const std::string ckpt = dir + "/state.ckpt";

  const Extents grid{2 * ny, ny, std::max<index_t>(ny / 2, 4)};
  const UnitSystem units = UnitSystem::paper_channel(ny);
  std::cout << "campaign: " << grid.nx << "x" << grid.ny << "x" << grid.nz
            << " channel, grid spacing " << units.dx() * 1e9 << " nm, "
            << legs << " legs x " << leg_phases << " phases, tol " << tol
            << "\n";

  for (int leg = 1; leg <= legs; ++leg) {
    Simulation sim(grid, FluidParams::microchannel_defaults());
    if (std::filesystem::exists(ckpt)) {
      sim.restore_checkpoint(ckpt);
      std::cout << "leg " << leg << ": resumed at phase "
                << sim.phase_count() << "\n";
    } else {
      sim.initialize_uniform();
      std::cout << "leg " << leg << ": fresh start\n";
    }

    const int done = sim.run_until_steady(leg_phases, tol, 100);
    sim.save_checkpoint(ckpt);
    write_vtk(sim.slab(),
              dir + "/snapshot_" + std::to_string(sim.phase_count()) + ".vtk");

    const auto ux =
        velocity_profile_y(sim.slab(), grid.nx / 2, grid.nz / 2);
    const auto slip = measure_slip(ux);
    std::cout << "  +" << done << " phases (total " << sim.phase_count()
              << "): u0 = " << units.velocity_m_s(slip.u_center)
              << " m/s, slip = " << slip.slip_fraction
              << ", slip length = "
              << units.length_m(navier_slip_length(ux)) * 1e9 << " nm\n";
    if (done < leg_phases) {
      std::cout << "steady state reached; campaign complete.\n";
      break;
    }
  }
  std::cout << "state in " << ckpt << " — rerun to continue the campaign.\n";
  return 0;
}
