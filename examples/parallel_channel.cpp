/// The full parallel program, for real: rank threads run the
/// multicomponent LBM with halo exchanges, one rank is artificially
/// slowed, and filtered dynamic remapping migrates actual lattice planes
/// away from it while the physics stays bit-identical to a sequential
/// run.
///
///   build/examples/parallel_channel [--ranks=4] [--phases=200]
///       [--slow-rank=1] [--slow-factor=3] [--policy=filtered] [--nx=32]
///       [--threads=2]

#include <iostream>
#include <mutex>

#include "lbm/observables.hpp"
#include "sim/parallel_lbm.hpp"
#include "transport/thread_comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace slipflow;
using namespace slipflow::lbm;

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const int ranks = static_cast<int>(opts.get("ranks", 4LL));
  const int phases = static_cast<int>(opts.get("phases", 200LL));
  const int slow_rank = static_cast<int>(opts.get("slow-rank", 1LL));
  const double slow_factor = opts.get("slow-factor", 3.0);
  const std::string policy = opts.get("policy", std::string("filtered"));
  const index_t nx = opts.get("nx", 32LL);
  const int threads = static_cast<int>(opts.get("threads", 1LL));
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }

  sim::RunnerConfig cfg;
  cfg.threads = threads;
  cfg.global = Extents{nx, 16, 6};
  cfg.fluid = FluidParams::microchannel_defaults();
  cfg.policy = policy;
  cfg.remap_interval = 5;
  cfg.balance.window = 4;
  cfg.balance.min_transfer_points = cfg.global.plane_cells();
  if (slow_rank >= 0 && slow_rank < ranks) {
    cfg.slowdown.assign(static_cast<std::size_t>(ranks), 0.0);
    cfg.slowdown[static_cast<std::size_t>(slow_rank)] = slow_factor;
  }

  std::cout << "parallel microchannel on " << ranks << " rank threads, "
            << cfg.global.nx << "x" << cfg.global.ny << "x" << cfg.global.nz
            << ", policy '" << policy << "', rank " << slow_rank
            << " slowed " << (1.0 + slow_factor) << "x\n\n";

  std::vector<sim::RankStats> stats;
  double slip = 0.0, mass_drift = 0.0;
  std::mutex mu;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    const double m0 = run.global_masses()[0];
    run.run(phases);
    const double m1 = run.global_masses()[0];
    auto all = run.gather_stats();
    auto ux = run.gather_velocity_profile_y(cfg.global.nx / 2,
                                            cfg.global.nz / 2);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      stats = std::move(all);
      slip = measure_slip(ux).slip_fraction;
      mass_drift = (m1 - m0) / m0;
    }
  });

  util::Table table("per-rank outcome after " + std::to_string(phases) +
                    " phases");
  table.header({"rank", "planes", "compute_s", "comm_s", "remap_s", "sent",
                "received"});
  for (const auto& s : stats)
    table.row({static_cast<long long>(s.rank), s.planes, s.compute_seconds,
               s.comm_seconds, s.remap_seconds, s.planes_sent,
               s.planes_received});
  table.print(std::cout);

  std::cout << "\napparent slip u_wall/u0 = " << slip
            << "   water mass drift = " << mass_drift << "\n"
            << "(the slowed rank should end with fewer planes when "
               "remapping is on; try --policy=none to see it keep "
               "its share)\n";
  return 0;
}
