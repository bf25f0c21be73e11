#pragma once
/// \file simulation.hpp
/// Sequential (single-domain) multicomponent LBM simulation — the
/// reference implementation the parallel runner must match exactly, and
/// the baseline whose runtime defines "speedup" in the paper's Section 4.

#include <functional>
#include <memory>

#include "lbm/stepper.hpp"
#include "obs/profiler.hpp"

namespace slipflow::lbm {

/// A full-domain microchannel simulation stepped in-process.
class Simulation {
 public:
  /// \param global   domain extents (x periodic, y/z walls by default)
  /// \param params   fluid parameters
  /// \param obstacle optional extra solid cells (global coordinates)
  /// \param walls_y  solid side walls at the y extents (else periodic)
  /// \param walls_z  solid top/bottom walls at the z extents (else periodic)
  Simulation(Extents global, FluidParams params,
             std::function<bool(index_t, index_t, index_t)> obstacle = {},
             bool walls_y = true, bool walls_z = true);

  /// Construct over a pre-built geometry (e.g. one with moving walls set
  /// via ChannelGeometry::set_wall_velocity before sharing it).
  Simulation(std::shared_ptr<const ChannelGeometry> geom, FluidParams params);

  /// Initialize densities from a per-component function of global
  /// coordinates and prime the force/velocity state.
  void initialize(const std::function<double(std::size_t, index_t, index_t,
                                             index_t)>& init_density);
  /// Initialize each component to its uniform params() init_density.
  void initialize_uniform();

  /// Advance `phases` LBM phases.
  void run(int phases);

  /// Advance until the velocity field's relative L2 change over
  /// `check_interval` phases falls below `tolerance`, or `max_phases`
  /// elapse. Returns the number of phases executed by this call.
  /// The paper's production runs need ~500k phases to steady state —
  /// this is the principled stopping rule for them.
  int run_until_steady(int max_phases, double tolerance = 1e-8,
                       int check_interval = 50);

  /// Write the full state to a restart file (see checkpoint.hpp).
  void save_checkpoint(const std::string& path) const;

  /// Replace the state from a restart file (domain must match) and
  /// resume the phase counter from it. Counts as initialization.
  void restore_checkpoint(const std::string& path);

  /// Number of phases executed since initialization.
  long long phase_count() const { return phases_done_; }

  /// Attach an observability profiler (not owned; pass nullptr to
  /// detach). run() then records one "phase" span per LBM phase plus a
  /// phase_seconds histogram through the profiler's injected clock.
  void attach_profiler(obs::PhaseProfiler* prof) { prof_ = prof; }

  Slab& slab() { return slab_; }
  const Slab& slab() const { return slab_; }
  const ChannelGeometry& geometry() const { return *geom_; }

 private:
  std::shared_ptr<const ChannelGeometry> geom_;
  Slab slab_;
  PeriodicSelfExchanger halo_;
  obs::PhaseProfiler* prof_ = nullptr;
  long long phases_done_ = 0;
  bool initialized_ = false;
};

}  // namespace slipflow::lbm
