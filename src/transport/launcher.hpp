#pragma once
/// \file launcher.hpp
/// Process launcher for the process transports: starts N worker
/// processes with posix_spawn (normally the `slipflow_worker` binary),
/// wires them to a fresh socket/ring directory of their own, and
/// supervises the run.
/// A worker whose exec fails is reported as exec's failure would exit:
/// "rank R exited with code 127", with the reason in its stderr.
///
/// Supervision turns the three silent failure modes of a real cluster
/// run into named, bounded diagnostics:
///   - a worker that dies (crash, SIGKILL fault injection) is reported as
///     "rank R killed by signal S". Exits are reaped when the worker's
///     pidfd becomes readable, so a launch returns as soon as its last
///     worker exits (kernels without pidfd_open fall back to the 50 ms
///     supervision tick);
///   - a worker that freezes (SIGSTOP, livelock) is caught by heartbeat
///     silence: every worker beats (rank, phase) on its own heartbeat
///     socket (one socketpair per rank, inherited as fd 3), and a beat
///     older than `heartbeat_grace` fails the run naming the stalled
///     rank and its last reported phase. A frame on rank R's socket that
///     is not a heartbeat from rank R closes that socket: a rank can only
///     vouch for itself;
///   - a run that stops making progress collectively is bounded by
///     `wall_clock_timeout`.
/// On any failure every surviving worker is SIGKILLed before returning,
/// so a failed launch never leaks processes.

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace slipflow::transport {

struct LaunchConfig {
  int ranks = 1;
  /// argv of the worker binary (argv[0] = executable path). The launcher
  /// appends, per rank:
  ///   --rank=R --ranks=N --socket-dir=DIR
  ///   --heartbeat-fd=3 --heartbeat-interval=S
  /// followed by extra_args[R], so per-rank fault flags go there. DIR is
  /// a fresh mkdtemp under $TMPDIR (falling back to /tmp), removed when
  /// the launch returns.
  std::vector<std::string> worker_command;
  /// Transport the workers should use: "" = leave the worker's default
  /// (socket), "socket", "shm", or "auto" (shm when the shared dir
  /// supports mmap, else socket). When set, the launcher appends
  /// --transport=<t>; for "shm"/"auto" it also appends a fresh
  /// --shm-session=<tag> (fresh_session(), shm_comm.hpp).
  std::string transport;
  /// Ring capacity per directed peer pair in bytes (0 = worker default).
  /// Only meaningful with transport "shm"/"auto".
  long long shm_ring_bytes = 0;
  double heartbeat_interval = 0.25;
  /// A worker whose latest beat is older than this fails the run
  /// (seconds). <= 0 disables heartbeat supervision.
  double heartbeat_grace = 5.0;
  double wall_clock_timeout = 120.0;
  /// Per-rank extra worker arguments (fault injection etc.).
  std::map<int, std::vector<std::string>> extra_args;
  /// Called from the supervision loop whenever a worker's reported
  /// heartbeat phase advances. Runs on the launching thread, so it may
  /// not block; the campaign server uses it to stream job progress to
  /// the submitting client while launch_workers is still running.
  std::function<void(int rank, long long phase)> on_progress;
  /// Called on every supervision pass while the run is alive: at least
  /// every 50 ms, and on every wake (heartbeat, stderr, worker exit) —
  /// the hook for polling job side channels (result fragment
  /// directories) the launcher itself knows nothing about.
  std::function<void()> on_tick;
};

struct LaunchResult {
  bool ok = false;
  /// First rank blamed for the failure, -1 if none identified.
  int failed_rank = -1;
  /// Human-readable failure description plus collected worker stderr.
  std::string diagnostic;
  double elapsed_seconds = 0.0;
  /// Last phase each rank reported via heartbeat (-1 = never beat).
  std::vector<long long> last_phase;
};

/// Run the workers to completion (all exit 0) or to the first failure.
/// Does not throw on worker failure — that is the result — only on
/// launcher-side setup errors (mkdtemp, pipe or socketpair failures).
LaunchResult launch_workers(const LaunchConfig& cfg);

}  // namespace slipflow::transport
