/// The parallel program as REAL processes: the launcher spawns
/// `slipflow_worker` ranks wired over Unix-domain sockets, supervises
/// them with heartbeats, and (optionally) injects a kill-rank fault to
/// demonstrate the named-rank diagnostic instead of a hang.
///
///   build/examples/multiprocess_channel [--ranks=4] [--phases=200]
///       [--policy=filtered] [--nx=32] [--slow-rank=1] [--slow-factor=3]
///       [--threads=2]
///       [--transport=socket|shm|auto] [--shm-ring-bytes=1048576]
///       [--fault-kill-rank=2 --fault-kill-phase=20 --expect-failure]
///
/// With --expect-failure the program exits 0 exactly when the launcher
/// reports the fault (the CI fault-injection run), nonzero otherwise.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "serve/job_spec.hpp"
#include "transport/launcher.hpp"
#include "util/options.hpp"

#ifndef SLIPFLOW_WORKER_EXE
#error "SLIPFLOW_WORKER_EXE must point at the slipflow_worker binary"
#endif

using namespace slipflow;

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  serve::JobSpec spec;
  spec.ranks = static_cast<int>(opts.get("ranks", 4LL));
  spec.phases = opts.get("phases", 200LL);
  spec.policy = opts.get("policy", spec.policy);
  spec.nx = opts.get("nx", 32LL);
  spec.ny = 16;
  spec.nz = 6;
  spec.window = 4;
  spec.min_transfer = 96;
  spec.threads = static_cast<int>(opts.get("threads", 1LL));
  const int slow_rank = static_cast<int>(opts.get("slow-rank", 1LL));
  const double slow_factor = opts.get("slow-factor", 3.0);
  spec.fault_kill_rank = static_cast<int>(opts.get("fault-kill-rank", -1LL));
  spec.fault_kill_phase = opts.get("fault-kill-phase", -1LL);
  const bool expect_failure = opts.get("expect-failure", false);
  // Supervision budgets (transport::LaunchConfig): all settable so sweep
  // scripts and the service smoke job can tighten or relax them per run.
  spec.wall_clock_budget = opts.get("wall-timeout", 120.0);
  spec.heartbeat_interval = opts.get("heartbeat-interval", 0.2);
  spec.heartbeat_grace = opts.get("heartbeat-grace", 10.0);
  // socket | shm | auto — forwarded to every worker (see sim/worker.cpp)
  spec.transport = opts.get("transport", spec.transport);
  spec.shm_ring_bytes = opts.get("shm-ring-bytes", spec.shm_ring_bytes);
  const std::string worker =
      opts.get("worker", std::string(SLIPFLOW_WORKER_EXE));
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }

  // The job-spec lowering the campaign server uses, plus the worker-only
  // flags no job spec carries.
  transport::LaunchConfig lc = serve::make_launch_config(spec, worker, {});
  lc.worker_command.push_back("--recv-timeout=20");
  if (slow_rank >= 0 && slow_rank < spec.ranks) {
    lc.worker_command.push_back("--slow-rank=" + std::to_string(slow_rank));
    lc.worker_command.push_back("--slow-factor=" +
                                std::to_string(slow_factor));
  }

  const int ranks = spec.ranks;
  const int kill_rank = spec.fault_kill_rank;
  std::cout << "launching " << ranks << " slipflow_worker processes, "
            << spec.nx << "x16x6, " << spec.phases << " phases, policy '"
            << spec.policy << "'";
  if (kill_rank >= 0)
    std::cout << " (injecting SIGKILL into rank " << kill_rank << " at phase "
              << spec.fault_kill_phase << ")";
  std::cout << "\n\n";

  const transport::LaunchResult res = transport::launch_workers(lc);

  std::cout << (res.ok ? "run completed" : "run FAILED") << " in "
            << res.elapsed_seconds << "s; last reported phases:";
  for (int r = 0; r < ranks; ++r)
    std::cout << " rank" << r << "=" << res.last_phase[static_cast<std::size_t>(r)];
  std::cout << "\n";
  if (!res.ok)
    std::cout << "diagnostic (failed rank " << res.failed_rank << "):\n"
              << res.diagnostic << "\n";

  if (expect_failure) {
    if (res.ok) {
      std::cerr << "expected the injected fault to fail the run\n";
      return 1;
    }
    if (kill_rank >= 0 && res.failed_rank != kill_rank) {
      std::cerr << "expected rank " << kill_rank << " to be blamed, got "
                << res.failed_rank << "\n";
      return 1;
    }
    std::cout << "\ninjected fault was detected and named as expected\n";
    return 0;
  }
  return res.ok ? 0 : 1;
}
