#include "sim/worker.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "lbm/kernels.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
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

  // --- transport ---
  const int rank = static_cast<int>(opts.get("rank", 0LL));
  const int nranks = static_cast<int>(opts.get("ranks", 1LL));
  transport::SocketCommConfig sc;
  sc.rank = rank;
  sc.nranks = nranks;
  sc.dir = opts.get("socket-dir", std::string{});
  sc.connect_timeout = opts.get("connect-timeout", 10.0);
  sc.comm.recv_timeout = opts.get("recv-timeout", 30.0);
  sc.heartbeat_path = opts.get("heartbeat-sock", std::string{});
  sc.heartbeat_interval = opts.get("heartbeat-interval", 0.25);
  // socket = Unix-domain sockets (default), shm = mmap'd rings,
  // auto = shm when the socket dir can host mmap'd segments.
  const std::string transport = opts.get("transport", std::string("socket"));
  const long long shm_session = opts.get("shm-session", 0LL);
  const long long shm_ring_bytes = opts.get("shm-ring-bytes", 0LL);
  if (transport != "socket" && transport != "shm" && transport != "auto") {
    std::fprintf(stderr, "rank %d: unknown --transport=%s\n", rank,
                 transport.c_str());
    return 2;
  }

  // --- fault injection ---
  sc.fault.kill_at_phase = opts.get("fault-kill-phase", -1LL);
  sc.fault.stop_at_phase = opts.get("fault-stop-phase", -1LL);
  sc.fault.drop_dest = static_cast<int>(opts.get("fault-drop-dest", -2LL));
  sc.fault.drop_tag = static_cast<int>(opts.get("fault-drop-tag", -1LL));
  sc.fault.drop_count = static_cast<int>(opts.get("fault-drop-count", 1LL));
  sc.fault.send_delay = opts.get("fault-send-delay", 0.0);
  sc.fault.throttle_bytes_per_sec = opts.get("fault-throttle-bps", 0.0);

  // --- problem ---
  RunnerConfig cfg;
  cfg.global = lbm::Extents{opts.get("nx", 16LL), opts.get("ny", 6LL),
                            opts.get("nz", 4LL)};
  // The paper's two-component microchannel model; the physical knobs are
  // exposed so campaign sweeps (slipflow_submit --sweep) can scan them.
  cfg.fluid = lbm::FluidParams::microchannel_defaults(
      opts.get("wall-accel", 0.2), opts.get("wall-decay", 2.5),
      opts.get("air-fraction", 0.03), opts.get("coupling-g", 1.0),
      opts.get("gravity", 2e-5));
  cfg.policy = opts.get("policy", std::string("filtered"));
  cfg.remap_interval = static_cast<int>(opts.get("remap-interval", 5LL));
  cfg.balance.window = static_cast<int>(opts.get("window", 3LL));
  cfg.balance.min_transfer_points = opts.get("min-transfer", 24LL);
  cfg.threads = static_cast<int>(opts.get("threads", 1LL));
  // Which tile-kernel backend the hot kernels dispatch to. "auto" keeps
  // the CPUID default (widest supported SIMD); naming a backend that this
  // build/CPU cannot run is a configuration error, not a fallback.
  const std::string backend_name =
      opts.get("kernel-backend", std::string("auto"));
  if (backend_name != "auto") {
    const std::optional<lbm::KernelBackend> kb =
        lbm::parse_kernel_backend(backend_name);
    if (!kb) {
      std::fprintf(stderr, "rank %d: unknown --kernel-backend=%s\n", rank,
                   backend_name.c_str());
      return 2;
    }
    if (!lbm::kernel_backend_supported(*kb)) {
      std::fprintf(stderr,
                   "rank %d: --kernel-backend=%s not supported by this "
                   "build/CPU\n",
                   rank, backend_name.c_str());
      return 2;
    }
    lbm::set_kernel_backend(*kb);
  }

  // --phases is the ABSOLUTE phase target: a fresh run executes that
  // many phases, a run resumed from --load-checkpoint executes only the
  // remainder. That is what makes a crash-recovered or warm-started job
  // finish at the same physical state as a straight-through one.
  const long long phases = opts.get("phases", 40LL);
  const int slow_rank = static_cast<int>(opts.get("slow-rank", -1LL));
  const double slow_factor = opts.get("slow-factor", 0.0);
  if (slow_rank >= 0 && slow_factor > 0.0) {
    cfg.slowdown.assign(static_cast<std::size_t>(nranks), 0.0);
    if (slow_rank < nranks)
      cfg.slowdown[static_cast<std::size_t>(slow_rank)] = slow_factor;
  }

  // --- determinism: injected clocks (see obs/clock.hpp) ---
  // --clock=counting makes "measured" times a pure function of the call
  // sequence, so the remapping decisions — and hence the observables —
  // are identical across backends and runs.
  const std::string clock = opts.get("clock", std::string("wall"));
  const double clock_step = opts.get("clock-step", 1e-3);
  const int slow_clock_rank = static_cast<int>(opts.get("slow-clock-rank", -1LL));
  const double slow_clock_factor = opts.get("slow-clock-factor", 4.0);
  if (clock == "counting") {
    cfg.clock_factory = [=](int r) -> std::shared_ptr<obs::Clock> {
      const double tick =
          r == slow_clock_rank ? clock_step * slow_clock_factor : clock_step;
      return std::make_shared<obs::CountingClock>(tick);
    };
  } else if (clock != "wall") {
    std::fprintf(stderr, "rank %d: unknown --clock=%s\n", rank, clock.c_str());
    return 2;
  }

  // --- output ---
  const std::string observables_out =
      opts.get("observables-out", std::string{});
  const std::string metrics_out = opts.get("metrics-out", std::string{});
  cfg.output.checkpoint_every =
      static_cast<int>(opts.get("checkpoint-every", 0LL));
  cfg.output.checkpoint_prefix = opts.get("checkpoint-out", std::string{});
  cfg.output.vtk_every = static_cast<int>(opts.get("vtk-every", 0LL));
  cfg.output.vtk_prefix = opts.get("vtk-out", std::string{});

  // --- job-spec mode (campaign server; see src/serve) ---
  // Resume/seed from a checkpoint, publish an equilibrated warm state,
  // stream incremental result fragments, and pick the observable set.
  const std::string load_ck = opts.get("load-checkpoint", std::string{});
  const long long warm_phases = opts.get("warm-phases", 0LL);
  const std::string warm_out = opts.get("warm-checkpoint-out", std::string{});
  const long long stream_every = opts.get("stream-every", 0LL);
  const std::string stream_dir = opts.get("stream-dir", std::string{});
  const std::string obs_set_name =
      opts.get("observables", std::string("full"));
  ObservableSet obs_set = ObservableSet::full;
  if (obs_set_name == "physics") {
    obs_set = ObservableSet::physics;
  } else if (obs_set_name != "full") {
    std::fprintf(stderr, "rank %d: unknown --observables=%s\n", rank,
                 obs_set_name.c_str());
    return 2;
  }
  if (!warm_out.empty() && (warm_phases <= 0 || warm_phases > phases)) {
    std::fprintf(stderr,
                 "rank %d: --warm-checkpoint-out needs 0 < --warm-phases "
                 "<= --phases\n",
                 rank);
    return 2;
  }
  if (stream_every > 0 && stream_dir.empty()) {
    std::fprintf(stderr, "rank %d: --stream-every needs --stream-dir\n",
                 rank);
    return 2;
  }
  if (cfg.output.checkpoint_every > 0 && cfg.output.checkpoint_prefix.empty()) {
    std::fprintf(stderr, "rank %d: --checkpoint-every needs --checkpoint-out\n",
                 rank);
    return 2;
  }
  if (cfg.output.vtk_every > 0 && cfg.output.vtk_prefix.empty()) {
    std::fprintf(stderr, "rank %d: --vtk-every needs --vtk-out\n", rank);
    return 2;
  }

  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::fprintf(stderr, "rank %d: %s", rank, diag.c_str());
    return 2;
  }

  try {
    obs::MetricsRegistry reg(nranks);  // only shard `rank` is written here
    cfg.metrics = &reg;

    // Every rank resolves "auto" from the same filesystem probe, so the
    // choice is identical across the launch without any coordination.
    std::string chosen = transport;
    if (chosen == "auto")
      chosen = transport::shm_dir_usable(sc.dir) ? "shm" : "socket";
    std::unique_ptr<transport::Communicator> comm;
    transport::SocketComm* socket_comm = nullptr;
    transport::ShmComm* shm_comm = nullptr;
    if (chosen == "shm") {
      transport::ShmCommConfig hc;
      hc.rank = rank;
      hc.nranks = nranks;
      hc.dir = sc.dir;
      hc.comm = sc.comm;
      hc.connect_timeout = sc.connect_timeout;
      if (shm_ring_bytes > 0)
        hc.ring_bytes = static_cast<std::size_t>(shm_ring_bytes);
      hc.session = static_cast<std::uint64_t>(shm_session);
      hc.heartbeat_path = sc.heartbeat_path;
      hc.heartbeat_interval = sc.heartbeat_interval;
      hc.fault = sc.fault;
      hc.metrics = &reg;
      auto c = std::make_unique<transport::ShmComm>(hc);
      shm_comm = c.get();
      comm = std::move(c);
    } else {
      sc.metrics = &reg;
      auto c = std::make_unique<transport::SocketComm>(sc);
      socket_comm = c.get();
      comm = std::move(c);
    }

    ParallelLbm run(cfg, *comm);
    long long start_phase = 0;
    if (!load_ck.empty())
      start_phase = run.load_checkpoint(load_ck);
    else
      run.initialize_uniform();

    // Chunked stepping toward the absolute target: segment boundaries
    // fall on the warm-checkpoint phase and on stream-fragment
    // multiples. Chunking run() never changes the physics (each phase
    // is self-contained), so a streamed job computes the same state as
    // an unstreamed one.
    long long at = start_phase;
    std::size_t trace_cursor = 0;
    while (at < phases) {
      long long next = phases;
      if (!warm_out.empty() && at < warm_phases && warm_phases < next)
        next = warm_phases;
      if (stream_every > 0)
        next = std::min(next, (at / stream_every + 1) * stream_every);
      run.run(static_cast<int>(next - at));
      at = next;
      // save_checkpoint publishes by rename, so the warm cache can
      // never promote a torn equilibration state.
      if (!warm_out.empty() && at == warm_phases)
        run.save_checkpoint(warm_out, at);
      if (stream_every > 0 && at % stream_every == 0 && at < phases)
        write_stream_fragment(run, *comm, at, stream_dir, trace_cursor);
    }
    // Final fragment: flushes the last segment's trace spans.
    if (stream_every > 0)
      write_stream_fragment(run, *comm, at, stream_dir, trace_cursor);
    const std::string observables =
        collect_observables(run, *comm, cfg.global, obs_set);
    if (socket_comm != nullptr) socket_comm->publish_stats();
    if (shm_comm != nullptr) shm_comm->publish_stats();

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
