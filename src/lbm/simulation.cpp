#include "lbm/simulation.hpp"

#include <algorithm>

#include "lbm/checkpoint.hpp"
#include "lbm/convergence.hpp"

namespace slipflow::lbm {

Simulation::Simulation(Extents global, FluidParams params,
                       std::function<bool(index_t, index_t, index_t)> obstacle,
                       bool walls_y, bool walls_z)
    : geom_(std::make_shared<const ChannelGeometry>(global, std::move(obstacle),
                                                    walls_y, walls_z)),
      slab_(geom_, std::move(params), 0, global.nx) {}

Simulation::Simulation(std::shared_ptr<const ChannelGeometry> geom,
                       FluidParams params)
    : geom_(std::move(geom)),
      slab_(geom_, std::move(params), 0, geom_->global().nx) {}

void Simulation::initialize(
    const std::function<double(std::size_t, index_t, index_t, index_t)>&
        init_density) {
  slab_.initialize(init_density);
  prime(slab_, halo_);
  phases_done_ = 0;
  initialized_ = true;
}

void Simulation::initialize_uniform() {
  slab_.initialize_uniform();
  prime(slab_, halo_);
  phases_done_ = 0;
  initialized_ = true;
}

void Simulation::save_checkpoint(const std::string& path) const {
  SLIPFLOW_REQUIRE_MSG(initialized_, "nothing to checkpoint yet");
  lbm::save_checkpoint(slab_, phases_done_, path);
}

void Simulation::restore_checkpoint(const std::string& path) {
  phases_done_ = load_checkpoint_planes(slab_, path);
  initialized_ = true;
}

void Simulation::run(int phases) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "call initialize() before run()");
  SLIPFLOW_REQUIRE(phases >= 0);
  if (prof_ == nullptr) {
    for (int i = 0; i < phases; ++i) step_phase(slab_, halo_);
    phases_done_ += phases;
    return;
  }
  for (int i = 0; i < phases; ++i) {
    prof_->begin_phase(phases_done_ + 1);
    const double begin = prof_->now();
    step_phase(slab_, halo_);
    const double end = prof_->now();
    prof_->record_span("phase", begin, end);
    prof_->observe("phase_seconds", end - begin);
    phases_done_ += 1;
  }
  prof_->set("phases_done", static_cast<double>(phases_done_));
}

int Simulation::run_until_steady(int max_phases, double tolerance,
                                 int check_interval) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "call initialize() before run()");
  SLIPFLOW_REQUIRE(max_phases >= 1 && check_interval >= 1);
  SteadyStateMonitor monitor(tolerance);
  monitor.check(slab_);  // baseline snapshot
  int done = 0;
  while (done < max_phases) {
    const int chunk = std::min(check_interval, max_phases - done);
    run(chunk);
    done += chunk;
    if (monitor.check(slab_)) break;
  }
  return done;
}

}  // namespace slipflow::lbm
