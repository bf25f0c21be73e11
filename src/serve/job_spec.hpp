#pragma once
/// \file job_spec.hpp
/// The campaign server's job specification: everything a tenant may ask
/// for — geometry, component model, physical parameters, decomposition,
/// transport, service options — parsed from JSON, validated at
/// admission, and lowered to the exact slipflow_worker argv.
///
/// make_launch_config is the single source of the worker command line:
/// the server's job runner and slipflow_submit's --direct (standalone)
/// mode both call it, which is what makes "served observables are
/// byte-identical to a direct run" a structural property rather than a
/// test-maintained coincidence. Physics is bit-identical across rank
/// counts, transports and migration histories (the repo's core
/// invariant), so the spec's scheduling-shaped fields may differ between
/// the two runs without moving a byte of the physics observables.

#include <string>

#include "transport/launcher.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace slipflow::serve {

/// One tenant job. Each knob is declared once, in job_spec.cpp's table
/// (JSON path, worker flag, admissible values, warm-key membership),
/// which every spec reader and writer walks, the worker's flag parse
/// included. Defaults are the initializers below; a worker given no
/// flags differs only in reporting "full" observables and one rank.
struct JobSpec {
  // --- problem: geometry and component model ---
  long long nx = 16, ny = 6, nz = 4;
  /// Fluid components. The microchannel model is two-component (water +
  /// trace air); anything else is an admission error today, but the spec
  /// carries the count so the schema survives future models.
  long long components = 2;
  /// ABSOLUTE phase target (resumed runs execute only the remainder).
  long long phases = 40;

  // --- physical parameters (lbm::FluidParams::microchannel_defaults) ---
  double wall_accel = 0.2;    ///< hydrophobic wall force amplitude (BC)
  double wall_decay = 2.5;    ///< wall force decay length (BC)
  double air_fraction = 0.03; ///< trace-air initial density
  double coupling_g = 1.0;    ///< Shan-Chen water/air coupling
  double gravity = 2e-5;      ///< body force driving the channel flow

  // --- decomposition / execution ---
  int ranks = 2;
  std::string policy = "filtered";
  int remap_interval = 5;
  int window = 3;
  long long min_transfer = 24;
  int threads = 1;
  std::string transport = "socket";  ///< "socket" | "shm" | "auto"
  long long shm_ring_bytes = 0;  ///< 0 = the worker's default ring

  // --- service options ---
  /// Equilibration prefix (phases) eligible for the warm-state cache;
  /// 0 = no warm handling.
  long long warm_phases = 0;
  /// Stream an observable + trace fragment every N phases; 0 = off.
  long long stream_every = 0;
  /// Crash-recovery checkpoint interval; 0 = no recovery checkpoints.
  long long checkpoint_every = 0;
  /// Per-job supervision budgets (transport::LaunchConfig).
  double heartbeat_interval = 0.25;
  double heartbeat_grace = 5.0;
  double wall_clock_budget = 120.0;
  /// "physics" (default: bit-identical across decompositions) | "full"
  /// (adds per-rank plane-ownership lines, a scheduling detail).
  std::string observables = "physics";

  // --- fault injection (testing / chaos drills) ---
  int fault_kill_rank = -1;
  long long fault_kill_phase = -1;

  /// Parse + validate a spec object. Unknown keys are rejected (the
  /// JSON-level mirror of the worker's unknown-flag hygiene); invalid
  /// values throw serve_error naming the field.
  static JobSpec from_json(const util::JsonValue& v);

  /// The worker's side of make_launch_config: overlay the knob flags in
  /// `opts` (absent ones keep this spec's value) and check every knob as
  /// from_json does; throws serve_error naming the flag.
  void read_worker_flags(const util::Options& opts);

  /// Re-serialize (canonical through JsonValue::dump()).
  util::JsonValue to_json() const;

  /// Canonical warm-cache key material: the knobs the table marks warm
  /// (geometry, component count, physical parameters, warm phase count).
  /// Ranks, transport, policy and threads are deliberately absent: the
  /// equilibrated state is invariant to them, so a warm checkpoint from
  /// a 2-rank socket job seeds a 4-rank shm job of the same physics.
  std::string warm_key() const;
};

/// Filesystem outputs of one worker launch; empty ones stay off the argv.
struct JobPaths {
  std::string observables_out;
  std::string checkpoint_prefix;   ///< recovery checkpoints <prefix>.<P>.ckpt
  std::string stream_dir;          ///< incremental fragment directory
  std::string load_checkpoint;     ///< resume/seed source ("" = fresh)
  std::string warm_checkpoint_out; ///< publish equilibrated state here
};

/// Lower a spec to the launch configuration: worker argv (including the
/// path-shaped flags from `paths`), supervision budgets, transport.
/// Recovery checkpoints need no extra flag: the runner publishes every
/// checkpoint by rename, so recovery never seeds from a torn file.
/// Fault-injection fields become extra_args for the guilty rank.
transport::LaunchConfig make_launch_config(const JobSpec& spec,
                                           const std::string& worker_exe,
                                           const JobPaths& paths);

}  // namespace slipflow::serve
