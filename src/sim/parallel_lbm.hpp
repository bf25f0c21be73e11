#pragma once
/// \file parallel_lbm.hpp
/// The paper's parallel program (Figure 2) with real data: each rank owns
/// a slab of the microchannel, exchanges halos with its x-neighbors every
/// phase, and every REMAPPING_INTERVAL phases runs the remapping protocol
/// — measuring its own compute speed, exchanging load indexes with its
/// chain neighbors (or allgathering for the global policy), and migrating
/// whole yz-planes of actual lattice state between slabs.
///
/// The physical domain is x-periodic (rank 0 and rank P-1 exchange halos
/// across the wrap), while the remapping topology is the paper's *linear
/// array* — planes never migrate across the periodic seam.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "balance/remapper.hpp"
#include "lbm/kernels.hpp"
#include "lbm/observables.hpp"
#include "obs/profiler.hpp"
#include "transport/communicator.hpp"
#include "util/thread_pool.hpp"

namespace slipflow::sim {

/// Periodic on-disk output of a running simulation, written inline from
/// the phase loop. Disabled by default; a nonzero interval needs a
/// non-empty prefix.
struct OutputOptions {
  /// Phases between collective checkpoints (0 = never). Phase P writes
  /// <checkpoint_prefix>.<P>.ckpt (all ranks, one file), published by
  /// save_checkpoint's rename.
  int checkpoint_every = 0;
  std::string checkpoint_prefix;
  /// Phases between VTK snapshots (0 = never). Phase P, rank R writes
  /// <vtk_prefix>.<P>.r<R>.vtk (per-rank tiles; see lbm/vtk.hpp).
  int vtk_every = 0;
  std::string vtk_prefix;
};

struct RunnerConfig {
  lbm::Extents global;
  lbm::FluidParams fluid;
  /// Optional extra solid cells (global coordinates); empty = none.
  std::function<bool(lbm::index_t, lbm::index_t, lbm::index_t)> obstacle;
  /// Solid walls at the y / z extents (else periodic).
  bool walls_y = true;
  bool walls_z = true;
  /// Tangential wall velocities, indexed by ChannelGeometry::Wall
  /// (y_low, y_high, z_low, z_high); all zero = resting walls.
  std::array<lbm::Vec3, 4> wall_velocity{};
  balance::BalanceConfig balance;
  /// Lanes of the per-rank thread pool that sweeps each phase's
  /// halo-independent bulk. 1 = no extra threads. Results are
  /// bit-identical for any value (static write-disjoint partition).
  int threads = 1;
  /// Remap policy name: "none", "conservative", "filtered", "global".
  std::string policy = "none";
  /// Phases between remapping checks.
  int remap_interval = 10;
  /// Optional artificial per-rank slowdown for experiments on this
  /// machine: rank r sleeps slowdown[r] x (its measured compute time)
  /// after each phase's compute, emulating a node at share
  /// 1/(1+slowdown[r]). Empty = no injection.
  std::vector<double> slowdown;
  /// Shared metrics sink (one shard per rank, ranks() >= comm.size());
  /// null = each runner keeps a private registry, readable through
  /// profiler(). See DESIGN.md "Observability" for the metric schema.
  obs::MetricsRegistry* metrics = nullptr;
  /// Per-rank time source for ALL stage timing, including the compute
  /// times fed to the load predictors. Null = wall clock; tests inject
  /// obs::CountingClock so CI scheduling noise never reaches the
  /// balancer.
  obs::ClockFactory clock_factory;
  /// Periodic checkpoint/VTK output; see OutputOptions.
  OutputOptions output;
};

/// Per-rank cost/ownership summary after a run.
struct RankStats {
  int rank = 0;
  long long planes = 0;          ///< owned planes at the end
  double compute_seconds = 0.0;  ///< kernels (incl. injected slowdown)
  double comm_seconds = 0.0;     ///< halo exchanges
  double remap_seconds = 0.0;    ///< remapping protocol + migration
  long long planes_sent = 0;
  long long planes_received = 0;
};

/// One rank's instance of the parallel simulation.
class ParallelLbm {
 public:
  ParallelLbm(RunnerConfig cfg, transport::Communicator& comm);
  ~ParallelLbm();  // out of line: RingExchanger is an incomplete type here

  /// Initialize densities from a function of global coordinates (all
  /// ranks must pass the same function) and prime forces/velocities.
  void initialize(const std::function<double(std::size_t, lbm::index_t,
                                             lbm::index_t, lbm::index_t)>&
                      init_density);
  void initialize_uniform();

  /// Advance `phases` phases, remapping after every phase whose count
  /// (phase_count()) is a multiple of the configured interval, so a run
  /// split into several calls checks on the same phases as one call.
  void run(int phases);

  const lbm::Slab& slab() const { return *slab_; }
  lbm::Slab& slab() { return *slab_; }
  const RankStats& stats() const { return stats_; }
  /// Phases executed since initialization (or the stored phase count
  /// after load_checkpoint).
  long long phase_count() const { return phases_done_; }

  /// This rank's profiler (stage spans, counters, injected clock).
  obs::PhaseProfiler& profiler() { return *prof_; }
  const obs::PhaseProfiler& profiler() const { return *prof_; }

  /// Gather the per-rank stats on every rank (allgather).
  std::vector<RankStats> gather_stats();

  /// Owner rank of every global plane, identical on every rank.
  /// Collective: one allgather of the slab extents.
  std::vector<int> gather_plane_owners();

  /// Gather a full-domain y-profile on rank 0 (empty on other ranks).
  /// All ranks must call these collectively. `owners` is the current
  /// gather_plane_owners() table, or empty to gather it here; callers
  /// sweeping many planes pass it to skip one allgather per profile.
  std::vector<double> gather_velocity_profile_y(
      lbm::index_t gx, lbm::index_t z, std::span<const int> owners = {});
  std::vector<double> gather_density_profile_y(
      std::size_t component, lbm::index_t gx, lbm::index_t z,
      std::span<const int> owners = {});

  /// Total mass of every component, folded in GLOBAL PLANE ORDER: per-
  /// plane sums (each plane has exactly one owner, so the element-wise
  /// reduction adds exact zeros) combined x = 0..nx-1. Byte-identical
  /// across rank counts, transports and migration histories, so a
  /// crash-recovered or warm-started job reproduces a straight-through
  /// run exactly even though its migration history differs. Collective.
  std::vector<double> global_masses();

  /// Collective checkpoint, the one way any checkpoint reaches disk:
  /// rank 0 creates <path>.tmp, every rank writes its own plane range
  /// into it, and rank 0 renames it to `path` once all planes are down.
  /// So `path` never names a torn file — an existing file there is
  /// replaced, not rewritten in place — and on return it is complete
  /// and visible on every rank. Because the format is per-plane, the
  /// checkpoint can later be restored on a *different* number of ranks.
  void save_checkpoint(const std::string& path, long long phase = 0);

  /// Collective restore: every rank loads the planes of its current
  /// extent. The plane records carry the mixture observables too, so a
  /// restore reports the saved run's fields before it steps again.
  /// Counts as initialization. Returns the stored phase count.
  long long load_checkpoint(const std::string& path);

 private:
  class RingExchanger;

  /// Build the slab's streaming plan (its row tiles and per-cell tables)
  /// if it is missing (first run, or dropped by a migration rebuild);
  /// the build is recorded under the "plan" span — outside
  /// "remap", so fig09's remap-cost story stays honest. Returns the build
  /// time (0 if none).
  double ensure_plan();

  /// One phase of Figure 2 with communication/computation overlap: post
  /// each halo exchange (irecv + extract + isend), sweep the
  /// halo-independent bulk of the phase across the rank's thread pool
  /// while the frames are in flight, then wait and finish the
  /// halo-dependent remainder. Every lattice slot is written exactly once
  /// per phase, so the physics is the same for any rank and thread count
  /// (and equals the lbm::reference_phase oracle). The one function that
  /// steps a phase: sim::Simulation is this runner on one rank. Spans:
  /// collide, halo_post_f, interior_stream, halo_wait_f, boundary_stream,
  /// halo_post_density, interior_force, halo_wait_density, boundary_force
  /// (plus "slowdown" when injected).
  void step_phase();

  /// The priming pass after initialize(): build the plan (ensure_plan),
  /// exchange the density halos and run the fused force/velocity kernel,
  /// so the first collision has equilibrium velocities to read.
  void prime();

  /// Periodic checkpoint/VTK hook, run after the remap block of an
  /// output phase under the "io" span. Reads the clock exactly twice and
  /// never inside a timed stage, so the intervals the load balancer
  /// measures are the same with output on or off.
  void write_outputs();

  /// One remapping check: this rank's messages around the balance::
  /// decision steps (DESIGN.md "Key algorithms"). Returns the time this
  /// rank spent transferring planes (0 if none).
  double remap_local();
  double remap_global();
  /// What a rank tells the others at a remap check: (points, predicted
  /// phase time, window full ? 1 : 0, migration cost).
  using LoadInfo = std::array<double, 4>;
  LoadInfo load_info() const;
  /// What the remap gate charges this rank for a migration (injected
  /// clock): migration_cost_, plus one predicted phase for the slab
  /// rebuild until the rank has measured a migration of its own.
  double migration_charge() const;
  /// A peer's LoadInfo as a policy input; nullopt until its window fills.
  static std::optional<balance::NodeLoad> load_of(std::span<const double> info);
  /// Bump the remap/suppressed_<filter> counter for `why` (none: no-op).
  void count_suppressed(balance::Suppressed why);
  /// The profile getters' gather: the owner of plane gx (per `owners`,
  /// gathered here when empty) ships local_profile() to rank 0.
  std::vector<double> gather_profile(
      std::span<const int> owners, lbm::index_t gx,
      const std::function<std::vector<double>()>& local_profile);
  /// Donor-side transfer: detach k planes at `side` and ship them; k may
  /// be clamped to 0, in which case an empty header still goes out so the
  /// receiver never blocks.
  void send_planes(int peer, lbm::Side side, long long k);
  void recv_planes(int peer, lbm::Side side);

  int left_neighbor() const { return comm_.rank() > 0 ? comm_.rank() - 1 : -1; }
  int right_neighbor() const {
    return comm_.rank() + 1 < comm_.size() ? comm_.rank() + 1 : -1;
  }

  RunnerConfig cfg_;
  transport::Communicator& comm_;
  std::shared_ptr<const lbm::ChannelGeometry> geom_;
  std::unique_ptr<lbm::Slab> slab_;
  std::unique_ptr<RingExchanger> halo_;
  std::shared_ptr<const balance::RemapPolicy> policy_;
  std::unique_ptr<balance::NodeBalancer> balancer_;
  std::unique_ptr<obs::PhaseProfiler> prof_;
  RankStats stats_;
  double slowdown_factor_ = 0.0;
  double cells_updated_ = 0.0;  ///< fluid-cell updates, for the MLUPS gauge
  long long phases_done_ = 0;
  bool initialized_ = false;
  /// This rank's measured migration cost (injected clock): the initial
  /// plan build until the rank first moves planes, then the transfer +
  /// rebuild time of its latest migration.
  double migration_cost_ = 0.0;
  bool migration_measured_ = false;

  // Per-lane cell counts and the interior/halo-wait split feed the
  // thread/<t>/cells_updated counters and the overlap_efficiency gauge
  // published at the end of each run().
  std::unique_ptr<util::ThreadPool> pool_;
  lbm::ForcePsiCache psi_cache_;
  std::vector<double> thread_cells_;
  double interior_seconds_ = 0.0;
  double halo_wait_seconds_ = 0.0;
};

/// The channel geometry a configuration describes: walls, obstacles and
/// wall velocities.
std::shared_ptr<const lbm::ChannelGeometry> make_geometry(
    const RunnerConfig& cfg);

/// Convenience: the initial even decomposition (same rule as the virtual
/// cluster): returns {x_begin, nx_local} of `rank` among `size` ranks.
std::pair<lbm::index_t, lbm::index_t> initial_extent(lbm::index_t planes_total,
                                                     int size, int rank);

}  // namespace slipflow::sim
