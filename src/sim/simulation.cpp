#include "sim/simulation.hpp"

#include <algorithm>

#include "lbm/convergence.hpp"

namespace slipflow::sim {

namespace {
RunnerConfig full_domain(lbm::Extents global, lbm::FluidParams params,
                         bool walls_y, bool walls_z) {
  RunnerConfig cfg;
  cfg.global = global;
  cfg.fluid = std::move(params);
  cfg.walls_y = walls_y;
  cfg.walls_z = walls_z;
  return cfg;
}
}  // namespace

Simulation::Simulation(lbm::Extents global, lbm::FluidParams params,
                       bool walls_y, bool walls_z)
    : Simulation(full_domain(global, std::move(params), walls_y, walls_z)) {}

Simulation::Simulation(RunnerConfig cfg)
    : comm_(std::make_unique<transport::SerialComm>()) {
  cfg.policy = "none";
  cfg.threads = 1;
  if (cfg.metrics == nullptr) {
    // The runner's private registry would keep every stage span of every
    // phase; a long sequential run needs only the totals.
    metrics_ = std::make_unique<obs::MetricsRegistry>(1, /*keep_spans=*/false);
    cfg.metrics = metrics_.get();
  }
  run_ = std::make_unique<ParallelLbm>(std::move(cfg), *comm_);
}

int Simulation::run_until_steady(int max_phases, double tolerance,
                                 int check_interval) {
  SLIPFLOW_REQUIRE(max_phases >= 1 && check_interval >= 1);
  lbm::SteadyStateMonitor monitor(tolerance);
  monitor.check(slab());  // baseline snapshot
  int done = 0;
  while (done < max_phases) {
    const int chunk = std::min(check_interval, max_phases - done);
    run(chunk);
    done += chunk;
    if (monitor.check(slab())) break;
  }
  return done;
}

}  // namespace slipflow::sim
