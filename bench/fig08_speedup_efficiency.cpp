/// Reproduces Figure 8: speedup and normalized efficiency vs the number
/// of fixed slow nodes (20 000 phases, 20 nodes, filtered dynamic
/// remapping vs no remapping).
///
/// The paper: speedup ~19 dedicated, ~16 with one slow node, still ~13
/// with five; normalized efficiency >= 0.9 below four slow nodes and 0.8
/// at five, while no-remapping collapses.
///
///   usage: fig08_speedup_efficiency [--phases=20000] [--csv=path]
///
/// --transport=socket switches to a companion measurement on this
/// machine: the same ParallelLbm phase loop timed over in-process
/// ThreadComm vs real launched slipflow_worker processes on Unix-domain
/// sockets, so the thread-vs-process transport overhead is tracked
/// across PRs (written to BENCH_fig08_socket.json).
///
///   usage: fig08_speedup_efficiency --transport=socket [--phases=150]
///            [--max-ranks=4] [--nx=48] [--ny=16] [--nz=8]
///
/// --transport=overlap measures the hybrid runner on this machine: the
/// overlapped step schedule over ThreadComm at 1/2/4 ranks and 1/2/4
/// interior-sweep threads per rank, with the single-thread run's
/// overlap_efficiency gauge (fraction of the halo window covered by
/// compute) alongside the wall times (written to
/// BENCH_fig08_overlap.json).
///
///   usage: fig08_speedup_efficiency --transport=overlap [--phases=150]
///            [--max-ranks=4] [--nx=48] [--ny=16] [--nz=8]
///
/// --transport=shm races the two real-process transports against each
/// other: the same launched workers over Unix-domain sockets vs over
/// shared-memory rings, best of --reps launches per point (written to
/// BENCH_fig08_shm.json). --require-shm-speedup=R exits nonzero when
/// shm fails to beat socket by factor R at the top rank count — the CI
/// guard that keeps the shared-memory rings actually worth having.
///
///   usage: fig08_speedup_efficiency --transport=shm [--phases=150]
///            [--max-ranks=4] [--reps=3] [--require-shm-speedup=1.0]

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "bench_common.hpp"
#include "cluster/scenario.hpp"
#include "obs/metrics.hpp"
#include "serve/job_spec.hpp"
#include "sim/parallel_lbm.hpp"
#include "transport/launcher.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::cluster;

namespace {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The in-process reference: identical problem + policy to the worker
/// flags below, timed end to end including thread spawn/join so the
/// comparison against spawn+rendezvous is symmetric. `efficiency_out`
/// (optional) receives rank 0's overlap_efficiency gauge.
double time_over_threads(const lbm::Extents& global, int ranks, int phases,
                         int threads = 1, double* efficiency_out = nullptr) {
  sim::RunnerConfig cfg;
  cfg.global = global;
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;
  cfg.threads = threads;
  obs::MetricsRegistry reg(ranks);
  if (efficiency_out != nullptr) cfg.metrics = &reg;
  const double t0 = wall_seconds();
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);
  });
  const double elapsed = wall_seconds() - t0;
  if (efficiency_out != nullptr)
    *efficiency_out =
        reg.has_gauge(0, "overlap_efficiency")
            ? reg.gauge(0, "overlap_efficiency")
            : 0.0;
  return elapsed;
}

/// The hybrid-runner companion: overlapped-schedule wall time over
/// ThreadComm with a 1-, 2- and 4-lane interior sweep. On a single
/// hardware core the thread variants measure scheduling overhead, not
/// parallel speedup — the table says what it measured either way.
int run_overlap_sweep(const util::Options& opts) {
  const int phases = static_cast<int>(opts.get("phases", 150LL));
  const int max_ranks = static_cast<int>(opts.get("max-ranks", 4LL));
  const lbm::Extents global{opts.get("nx", 48LL), opts.get("ny", 16LL),
                            opts.get("nz", 8LL)};
  bench::check_options(opts);

  util::Table table("Figure 8 companion — overlapped halo exchange by "
                    "interior-sweep threads (" + std::to_string(phases) +
                    " phases, " +
                    std::to_string(global.nx) + "x" +
                    std::to_string(global.ny) + "x" +
                    std::to_string(global.nz) + ")");
  table.header({"ranks", "overlap_t1_s", "overlap_t2_s", "overlap_t4_s",
                "overlap_efficiency"});

  bench::Summary summary("fig08_overlap");
  summary.add("phases", static_cast<long long>(phases));
  summary.add("nx", static_cast<long long>(global.nx));
  for (int p = 1; p <= max_ranks; p *= 2) {
    double eff = 0.0;
    const double t1 = time_over_threads(global, p, phases, 1, &eff);
    const double t2 = time_over_threads(global, p, phases, 2);
    const double t4 = time_over_threads(global, p, phases, 4);
    table.row({static_cast<long long>(p), t1, t2, t4, eff});
    if (p == max_ranks) {
      summary.add("overlap_seconds", t1);
      summary.add("overlap_efficiency", eff);
    }
  }
  bench::emit(table, opts);
  summary.add_table("overlap", table);
  summary.write(opts);

  std::cout << "overlap_efficiency = interior compute / (interior + halo "
               "wait) on rank 0 at one thread. Physics is byte-identical "
               "across all columns (see test_overlap).\n";
  return 0;
}

/// The same run as real processes through the launcher; elapsed time
/// includes the process spawn, the rendezvous and teardown. `transport` is
/// "socket" or "shm".
double time_over_processes(const lbm::Extents& global, int ranks, int phases,
                           const std::string& transport = "socket") {
  serve::JobSpec spec;  // the default balancer: filtered, R=5, window 3
  spec.nx = global.nx;
  spec.ny = global.ny;
  spec.nz = global.nz;
  spec.phases = phases;
  spec.ranks = ranks;
  spec.transport = transport;
  spec.wall_clock_budget = 300.0;
  transport::LaunchConfig lc =
      serve::make_launch_config(spec, SLIPFLOW_WORKER_EXE, {});
  lc.worker_command.push_back("--recv-timeout=30");
  const transport::LaunchResult res = transport::launch_workers(lc);
  if (!res.ok) {
    std::cerr << transport << " run failed: " << res.diagnostic << "\n";
    std::exit(1);
  }
  return res.elapsed_seconds;
}

/// Best of `reps` launches for each transport, interleaved
/// socket/shm/socket/shm so a burst of machine load cannot poison all of
/// one transport's samples; the minimum is the honest transport floor.
std::pair<double, double> best_process_pair(const lbm::Extents& global,
                                            int ranks, int phases, int reps) {
  double socket = time_over_processes(global, ranks, phases, "socket");
  double shm = time_over_processes(global, ranks, phases, "shm");
  for (int i = 1; i < reps; ++i) {
    socket = std::min(socket,
                      time_over_processes(global, ranks, phases, "socket"));
    shm = std::min(shm, time_over_processes(global, ranks, phases, "shm"));
  }
  return {socket, shm};
}

/// Socket vs shared-memory rings, same worker binary, same problem: the
/// ring transport must not be slower where it matters (>= 4 ranks on
/// one machine is exactly its target deployment).
int run_shm_mode(const util::Options& opts) {
  const int phases = static_cast<int>(opts.get("phases", 150LL));
  const int max_ranks = static_cast<int>(opts.get("max-ranks", 4LL));
  const int reps = static_cast<int>(opts.get("reps", 3LL));
  const double require = opts.get("require-shm-speedup", 0.0);
  const lbm::Extents global{opts.get("nx", 48LL), opts.get("ny", 16LL),
                            opts.get("nz", 8LL)};
  bench::check_options(opts);

  util::Table table("Figure 8 companion — socket vs shared-memory-ring "
                    "halo transport (" + std::to_string(phases) +
                    " phases, " + std::to_string(global.nx) + "x" +
                    std::to_string(global.ny) + "x" +
                    std::to_string(global.nz) + ", best of " +
                    std::to_string(reps) + ")");
  table.header({"ranks", "thread_seconds", "socket_seconds", "shm_seconds",
                "shm_speedup"});

  bench::Summary summary("fig08_shm");
  summary.add("phases", static_cast<long long>(phases));
  summary.add("nx", static_cast<long long>(global.nx));
  summary.add("reps", static_cast<long long>(reps));
  double top_speedup = 0.0;
  for (int p = 2; p <= max_ranks; p *= 2) {
    const double threads = time_over_threads(global, p, phases);
    const auto [socket, shm] = best_process_pair(global, p, phases, reps);
    const double speedup = shm > 0.0 ? socket / shm : 0.0;
    table.row({static_cast<long long>(p), threads, socket, shm, speedup});
    if (p == max_ranks) {
      summary.add("socket_seconds", socket);
      summary.add("shm_seconds", shm);
      summary.add("shm_speedup", speedup);
      top_speedup = speedup;
    }
  }
  bench::emit(table, opts);
  summary.add_table("transport", table);
  summary.write(opts);

  std::cout << "shm_speedup = socket / shm wall time (same spawned workers, "
               "same physics — see test_multiprocess for the byte-identity "
               "proof); both carry process spawn and rendezvous, so the "
               "ratio isolates the transport itself.\n";
  if (require > 0.0) {
    if (top_speedup < require) {
      std::cerr << "FAIL: shm speedup over socket at " << max_ranks
                << " ranks is " << top_speedup << ", required >= " << require
                << "\n";
      return 1;
    }
    std::cout << "shm speedup guard passed: " << top_speedup
              << " >= " << require << " at " << max_ranks << " ranks\n";
  }
  return 0;
}

int run_socket_mode(const util::Options& opts) {
  const int phases = static_cast<int>(opts.get("phases", 150LL));
  const int max_ranks = static_cast<int>(opts.get("max-ranks", 4LL));
  const lbm::Extents global{opts.get("nx", 48LL), opts.get("ny", 16LL),
                            opts.get("nz", 8LL)};
  bench::check_options(opts);

  util::Table table("Figure 8 companion — thread vs real-process transport "
                    "overhead (" + std::to_string(phases) + " phases, " +
                    std::to_string(global.nx) + "x" +
                    std::to_string(global.ny) + "x" +
                    std::to_string(global.nz) + ")");
  table.header({"ranks", "thread_seconds", "process_seconds",
                "process_over_thread"});

  bench::Summary summary("fig08_socket");
  summary.add("phases", static_cast<long long>(phases));
  summary.add("nx", static_cast<long long>(global.nx));
  for (int p = 1; p <= max_ranks; p *= 2) {
    const double threads = time_over_threads(global, p, phases);
    const double procs = time_over_processes(global, p, phases);
    table.row({static_cast<long long>(p), threads, procs,
               threads > 0.0 ? procs / threads : 0.0});
  }
  bench::emit(table, opts);
  summary.add_table("overhead", table);
  summary.write(opts);

  std::cout << "process runs carry process spawn, Unix-socket rendezvous and "
               "frame encode/decode on top of the shared-memory thread "
               "backend; physics is byte-identical (see test_multiprocess).\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const std::string transport = opts.get("transport", std::string("virtual"));
  if (transport == "socket") return run_socket_mode(opts);
  if (transport == "overlap") return run_overlap_sweep(opts);
  if (transport == "shm") return run_shm_mode(opts);
  if (transport != "virtual") {
    std::cerr << "unknown --transport=" << transport
              << " (expected virtual|socket|overlap|shm)\n";
    return 2;
  }

  const int phases = static_cast<int>(opts.get("phases", 20000LL));
  const std::string csv = opts.get("csv", std::string{});
  (void)csv;
  bench::check_options(opts);

  util::Table table("Figure 8 — speedup and normalized efficiency vs slow "
                    "nodes (" + std::to_string(phases) + " phases)");
  table.header({"slow_nodes", "speedup_filtered", "speedup_no_remap",
                "efficiency_filtered", "efficiency_no_remap"});

  for (int m = 0; m <= 5; ++m) {
    double speedup[2];
    int i = 0;
    for (const char* policy : {"filtered", "none"}) {
      ClusterSim sim(paper::base_config(),
                     balance::RemapPolicy::create(policy));
      add_fixed_slow_nodes(sim, paper::slow_node_set(m));
      const auto r = sim.run(phases);
      speedup[i++] = sim.sequential_time(phases) / r.makespan;
    }
    table.row({static_cast<long long>(m), speedup[0], speedup[1],
               normalized_efficiency(speedup[0], 20, m),
               normalized_efficiency(speedup[1], 20, m)});
  }
  bench::emit(table, opts);
  bench::Summary summary("fig08_speedup_efficiency");
  summary.add_table("scaling", table);
  summary.write(opts);

  std::cout << "paper (Fig 8): filtered speedup ~19/16/13 at 0/1/5 slow "
               "nodes; efficiency ~0.9 for m<4 and ~0.8 at m=5; "
               "no-remapping drops dramatically.\n";
  return 0;
}
