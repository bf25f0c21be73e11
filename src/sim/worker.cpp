#include "sim/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lbm/kernels.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "serve/job_spec.hpp"
#include "transport/shm_comm.hpp"
#include "transport/socket_comm.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

namespace slipflow::sim {

namespace {

/// Shortest exact representation of a double: printf hexfloat.
std::string hexd(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Write `content` under `path` tear-proof: a temp file in the same
/// directory, then rename. Consumers that poll the directory (the
/// campaign server's streaming loop) only ever see complete fragments.
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) throw transport::comm_error("cannot write " + tmp);
    f << content;
    if (!f.good()) throw transport::comm_error("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw transport::comm_error("cannot publish " + path);
}

/// One incremental result fragment at absolute phase `phase`: the
/// component masses (a cheap collective) as obs_<phase>.json, and this
/// rank-0's trace spans recorded since the previous fragment as
/// newline-delimited Chrome trace events in trace_<phase>.json.
/// Collective — every rank must call it; only rank 0 writes.
void write_stream_fragment(ParallelLbm& run, transport::Communicator& comm,
                           long long phase, const std::string& dir,
                           std::size_t& trace_cursor) {
  const std::vector<double> masses = run.global_masses();
  if (comm.rank() != 0) return;
  std::ostringstream obs;
  obs << "{\"phase\":" << phase << ",\"masses\":[";
  for (std::size_t c = 0; c < masses.size(); ++c) {
    if (c != 0) obs << ',';
    obs << util::json_number(masses[c]);
  }
  obs << "]}\n";
  write_file_atomic(dir + "/obs_" + std::to_string(phase) + ".json",
                    obs.str());

  std::ostringstream trace;
  trace_cursor = obs::write_chrome_trace_events(run.profiler().registry(),
                                                trace, 0, trace_cursor);
  write_file_atomic(dir + "/trace_" + std::to_string(phase) + ".json",
                    trace.str());
}

}  // namespace

std::string collect_observables(ParallelLbm& run,
                                transport::Communicator& comm,
                                const lbm::Extents& global,
                                ObservableSet set) {
  // The plane-ordered mass fold is byte-identical across decompositions
  // and migration histories, which is what lets a recovered or
  // warm-started job reproduce a straight-through run exactly.
  const std::vector<double> masses = run.global_masses();
  const std::vector<RankStats> stats = run.gather_stats();

  std::ostringstream os;
  if (comm.rank() == 0) {
    for (std::size_t c = 0; c < masses.size(); ++c)
      os << "mass " << c << " " << hexd(masses[c]) << "\n";
    if (set == ObservableSet::full)
      for (const RankStats& s : stats)
        os << "rank " << s.rank << " planes " << s.planes << " sent "
           << s.planes_sent << " received " << s.planes_received << "\n";
  }
  // Mid-channel y-profiles of every global plane: covers every rank's
  // slab wherever the remapper left the boundaries.
  const lbm::index_t z = global.nz / 2;
  const std::vector<int> owners = run.gather_plane_owners();
  for (lbm::index_t gx = 0; gx < global.nx; ++gx) {
    const std::vector<double> ux = run.gather_velocity_profile_y(gx, z, owners);
    const std::vector<double> rho =
        run.gather_density_profile_y(0, gx, z, owners);
    if (comm.rank() == 0) {
      for (std::size_t j = 0; j < ux.size(); ++j)
        os << "ux " << gx << " " << j << " " << hexd(ux[j]) << "\n";
      for (std::size_t j = 0; j < rho.size(); ++j)
        os << "rho0 " << gx << " " << j << " " << hexd(rho[j]) << "\n";
    }
  }
  return os.str();
}

int worker_main(int argc, const char* const* argv) {
  const util::Options opts = util::Options::parse(argc, argv);
  int rank = 0;
  // A bad flag is named on stderr and exits 2, before any rank connects.
  const auto reject = [&rank](const std::string& why) {
    std::fprintf(stderr, "rank %d: %s\n", rank, why.c_str());
    return 2;
  };
  // An int flag outside int is refused, never narrowed into some other
  // value.
  const auto int_flag = [&opts](const std::string& key, int fallback) {
    const long long v = opts.get(key, static_cast<long long>(fallback));
    if (!std::in_range<int>(v))
      throw contract_error("--" + key + "=" + std::to_string(v) +
                           " is out of range");
    return static_cast<int>(v);
  };

  serve::JobSpec spec;
  transport::PeerCommConfig pc;
  long long shm_session = 0;
  RunnerConfig cfg;
  std::string observables_out, metrics_out, load_ck, warm_out, stream_dir;
  // Every flag is read under this try, so a number Options::get cannot
  // parse (--rank=x, --recv-timeout=abc) is refused like any other.
  try {
    rank = int_flag("rank", 0);

    // --- the job knobs: the spec table's flags, under admission's rules ---
    // Standalone runs keep the ownership lines test_multiprocess compares.
    spec.observables = "full";
    // The launcher passes these; a standalone worker runs one rank.
    spec.ranks = int_flag("ranks", 1);
    spec.transport = opts.get("transport", spec.transport);
    spec.shm_ring_bytes = opts.get("shm-ring-bytes", spec.shm_ring_bytes);
    spec.heartbeat_interval =
        opts.get("heartbeat-interval", spec.heartbeat_interval);
    spec.read_worker_flags(opts);

    // --- transport ---
    pc.rank = rank;
    pc.nranks = spec.ranks;
    pc.dir = opts.get("socket-dir", std::string{});
    pc.connect_timeout = opts.get("connect-timeout", 10.0);
    pc.comm.recv_timeout = opts.get("recv-timeout", 30.0);
    pc.heartbeat_fd = int_flag("heartbeat-fd", -1);
    pc.heartbeat_interval = spec.heartbeat_interval;
    shm_session = opts.get("shm-session", 0LL);

    // --- fault injection ---
    pc.fault.kill_at_phase = spec.fault_kill_phase;
    pc.fault.stop_at_phase = opts.get("fault-stop-phase", -1LL);
    pc.fault.drop_dest = int_flag("fault-drop-dest", -2);
    pc.fault.drop_tag = int_flag("fault-drop-tag", -1);
    pc.fault.drop_count = int_flag("fault-drop-count", 1);
    pc.fault.send_delay = opts.get("fault-send-delay", 0.0);
    pc.fault.throttle_bytes_per_sec = opts.get("fault-throttle-bps", 0.0);

    // --- problem ---
    cfg.global = lbm::Extents{spec.nx, spec.ny, spec.nz};
    // The paper's two-component microchannel model; the physical knobs
    // are exposed so campaign sweeps (slipflow_submit --sweep) can scan
    // them.
    cfg.fluid = lbm::FluidParams::microchannel_defaults(
        spec.wall_accel, spec.wall_decay, spec.air_fraction, spec.coupling_g,
        spec.gravity);
    cfg.policy = spec.policy;
    cfg.remap_interval = spec.remap_interval;
    cfg.balance.window = spec.window;
    cfg.balance.min_transfer_points = spec.min_transfer;
    cfg.threads = spec.threads;
    // Which tile-kernel backend the hot kernels dispatch to. "auto" keeps
    // the CPUID default (widest supported SIMD); naming a backend that
    // this build/CPU cannot run is a configuration error, not a fallback.
    const std::string backend =
        opts.get("kernel-backend", std::string("auto"));
    if (backend != "auto") {
      const auto kb = lbm::parse_kernel_backend(backend);
      if (!kb) return reject("unknown --kernel-backend=" + backend);
      if (!lbm::kernel_backend_supported(*kb))
        return reject("--kernel-backend=" + backend +
                      " not supported by this build/CPU");
      lbm::set_kernel_backend(*kb);
    }

    const int slow_rank = int_flag("slow-rank", -1);
    const double slow_factor = opts.get("slow-factor", 0.0);
    if (slow_rank >= 0 && slow_factor > 0.0) {
      cfg.slowdown.assign(static_cast<std::size_t>(spec.ranks), 0.0);
      if (slow_rank < spec.ranks)
        cfg.slowdown[static_cast<std::size_t>(slow_rank)] = slow_factor;
    }

    // --- determinism: injected clocks (see obs/clock.hpp) ---
    // --clock=counting makes "measured" times a pure function of the call
    // sequence, so the remapping decisions — and hence the observables —
    // are identical across backends and runs.
    const std::string clock = opts.get("clock", std::string("wall"));
    const double clock_step = opts.get("clock-step", 1e-3);
    const int slow_clock_rank = int_flag("slow-clock-rank", -1);
    const double slow_clock_factor = opts.get("slow-clock-factor", 4.0);
    if (clock == "counting") {
      cfg.clock_factory = [=](int r) -> std::shared_ptr<obs::Clock> {
        const double tick =
            r == slow_clock_rank ? clock_step * slow_clock_factor : clock_step;
        return std::make_shared<obs::CountingClock>(tick);
      };
    } else if (clock != "wall") {
      return reject("unknown --clock=" + clock);
    }

    // --- output ---
    observables_out = opts.get("observables-out", std::string{});
    metrics_out = opts.get("metrics-out", std::string{});
    cfg.output.checkpoint_every = static_cast<int>(spec.checkpoint_every);
    cfg.output.checkpoint_prefix = opts.get("checkpoint-out", std::string{});
    cfg.output.vtk_every = int_flag("vtk-every", 0);
    cfg.output.vtk_prefix = opts.get("vtk-out", std::string{});

    // --- job-spec mode (campaign server; see src/serve) ---
    // Resume or seed from a checkpoint, publish a warm state, stream
    // results.
    load_ck = opts.get("load-checkpoint", std::string{});
    warm_out = opts.get("warm-checkpoint-out", std::string{});
    stream_dir = opts.get("stream-dir", std::string{});
  } catch (const std::exception& e) {
    return reject(e.what());
  }
  const ObservableSet obs_set =
      spec.observables == "full" ? ObservableSet::full : ObservableSet::physics;
  // An output interval needs its path (warm_phases <= phases is checked).
  const std::pair<bool, const char*> unpaired[] = {
      {!warm_out.empty() && spec.warm_phases <= 0,
       "--warm-checkpoint-out needs 0 < --warm-phases <= --phases"},
      {spec.stream_every > 0 && stream_dir.empty(),
       "--stream-every needs --stream-dir"},
      {cfg.output.checkpoint_every > 0 && cfg.output.checkpoint_prefix.empty(),
       "--checkpoint-every needs --checkpoint-out"},
      {cfg.output.vtk_every > 0 && cfg.output.vtk_prefix.empty(),
       "--vtk-every needs --vtk-out"}};
  for (const auto& [unpaired_interval, why] : unpaired)
    if (unpaired_interval) return reject(why);

  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::fprintf(stderr, "rank %d: %s", rank, diag.c_str());
    return 2;
  }

  try {
    obs::MetricsRegistry reg(spec.ranks);  // only shard `rank` is written
    cfg.metrics = &reg;

    // Every rank resolves "auto" from the same filesystem probe, so the
    // choice is identical across the launch without any coordination.
    std::string chosen = spec.transport;
    if (chosen == "auto")
      chosen = transport::shm_dir_usable(pc.dir) ? "shm" : "socket";
    pc.metrics = &reg;
    std::unique_ptr<transport::PeerComm> comm;
    if (chosen == "shm") {
      transport::ShmCommConfig hc{pc};
      if (spec.shm_ring_bytes > 0)
        hc.ring_bytes = static_cast<std::size_t>(spec.shm_ring_bytes);
      hc.session = static_cast<std::uint64_t>(shm_session);
      comm = std::make_unique<transport::ShmComm>(hc);
    } else {
      comm = std::make_unique<transport::SocketComm>(pc);
    }

    ParallelLbm run(cfg, *comm);
    long long start_phase = 0;
    if (!load_ck.empty())
      start_phase = run.load_checkpoint(load_ck);
    else
      run.initialize_uniform();

    // Chunked stepping toward the ABSOLUTE phase target: a run resumed
    // from --load-checkpoint executes only the remainder, so a recovered
    // or warm-started job ends at the same state as a straight-through
    // one. Segment boundaries fall on the warm-checkpoint phase and on
    // stream-fragment multiples. Chunking run() never changes the physics
    // (each phase is self-contained), so a streamed job computes the same
    // state as an unstreamed one.
    long long at = start_phase;
    std::size_t trace_cursor = 0;
    while (at < spec.phases) {
      long long next = spec.phases;
      if (!warm_out.empty() && at < spec.warm_phases &&
          spec.warm_phases < next)
        next = spec.warm_phases;
      if (spec.stream_every > 0)
        next =
            std::min(next, (at / spec.stream_every + 1) * spec.stream_every);
      run.run(static_cast<int>(next - at));
      at = next;
      // save_checkpoint publishes by rename, so the warm cache can
      // never promote a torn equilibration state.
      if (!warm_out.empty() && at == spec.warm_phases)
        run.save_checkpoint(warm_out, at);
      if (spec.stream_every > 0 && at % spec.stream_every == 0 &&
          at < spec.phases)
        write_stream_fragment(run, *comm, at, stream_dir, trace_cursor);
    }
    // Final fragment: flushes the last segment's trace spans.
    if (spec.stream_every > 0)
      write_stream_fragment(run, *comm, at, stream_dir, trace_cursor);
    const std::string observables =
        collect_observables(run, *comm, cfg.global, obs_set);
    comm->publish_stats();

    if (!observables_out.empty() && comm->rank() == 0) {
      std::ofstream f(observables_out, std::ios::binary | std::ios::trunc);
      if (!f) throw transport::comm_error("cannot write " + observables_out);
      f << observables;
    }
    if (!metrics_out.empty()) {
      std::ofstream f(metrics_out, std::ios::binary | std::ios::trunc);
      if (!f) throw transport::comm_error("cannot write " + metrics_out);
      reg.write_csv(f);
    }
    // Final barrier so no rank tears down its endpoint while a peer is
    // still mid-collective.
    comm->barrier();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rank %d: %s\n", rank, e.what());
    return 3;
  }
  return 0;
}

}  // namespace slipflow::sim
