#pragma once
/// \file simulation.hpp
/// Sequential (single-domain) multicomponent LBM simulation: the parallel
/// runner on one rank. It steps through ParallelLbm::step_phase like any
/// multi-rank run, so "sequential" and "parallel" are one program; its
/// runtime is the baseline that defines "speedup" in the paper's
/// Section 4. The test oracle that independently steps a full-domain slab
/// is lbm::reference_phase (lbm/stepper.hpp).

#include <functional>
#include <memory>
#include <string>

#include "obs/metrics.hpp"
#include "sim/parallel_lbm.hpp"
#include "transport/serial_comm.hpp"

namespace slipflow::sim {

/// A full-domain microchannel simulation stepped in-process: a 1-rank
/// ParallelLbm over a SerialComm, with no remapping and one lane.
class Simulation {
 public:
  /// \param global   domain extents (x periodic, y/z walls by default)
  /// \param params   fluid parameters
  /// \param walls_y  solid side walls at the y extents (else periodic)
  /// \param walls_z  solid top/bottom walls at the z extents (else periodic)
  Simulation(lbm::Extents global, lbm::FluidParams params,
             bool walls_y = true, bool walls_z = true);

  /// Run the lattice a runner configuration describes (walls, wall
  /// velocities, obstacles, clock) on one rank. `policy` and `threads`
  /// are overridden to "none" and 1; without a `metrics` sink the
  /// runner records into a registry that keeps totals but no timeline.
  explicit Simulation(RunnerConfig cfg);

  // Movable, so helpers can return one. Not move-assignable: assignment
  // would free the old communicator and registry before the old runner
  // that refers to them.
  Simulation(Simulation&&) = default;
  Simulation& operator=(Simulation&&) = delete;

  /// Initialize densities from a per-component function of global
  /// coordinates and prime the force/velocity state.
  void initialize(const std::function<double(std::size_t, lbm::index_t,
                                             lbm::index_t, lbm::index_t)>&
                      init_density) {
    run_->initialize(init_density);
  }
  /// Initialize each component to its uniform params() init_density.
  void initialize_uniform() { run_->initialize_uniform(); }

  /// Advance `phases` LBM phases.
  void run(int phases) { run_->run(phases); }

  /// Advance until the velocity field's relative L2 change over
  /// `check_interval` phases falls below `tolerance`, or `max_phases`
  /// elapse. Returns the number of phases executed by this call.
  /// The paper's production runs need ~500k phases to steady state —
  /// this is the principled stopping rule for them.
  int run_until_steady(int max_phases, double tolerance = 1e-8,
                       int check_interval = 50);

  /// Write the full state to a restart file (see lbm/checkpoint.hpp),
  /// published by rename like every runner checkpoint.
  void save_checkpoint(const std::string& path) const {
    run_->save_checkpoint(path, run_->phase_count());
  }

  /// Replace the state from a restart file (domain must match), mixture
  /// observables included, and resume the phase counter from it.
  /// Counts as initialization.
  void restore_checkpoint(const std::string& path) {
    run_->load_checkpoint(path);
  }

  /// Number of phases executed since initialization.
  long long phase_count() const { return run_->phase_count(); }

  lbm::Slab& slab() { return run_->slab(); }
  const lbm::Slab& slab() const { return run_->slab(); }
  const lbm::ChannelGeometry& geometry() const {
    return run_->slab().geometry();
  }

 private:
  // Heap-held so a Simulation can move: the runner keeps a reference to
  // the communicator and a pointer to the registry.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<transport::SerialComm> comm_;
  std::unique_ptr<ParallelLbm> run_;
};

}  // namespace slipflow::sim
