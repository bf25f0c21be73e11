#include "transport/launcher.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "transport/fdio.hpp"
#include "transport/frame.hpp"
#include "transport/shm_comm.hpp"
#include "transport/tempdir.hpp"
#include "util/require.hpp"

namespace slipflow::transport {

using fdio::mono_now;
using fdio::set_nonblocking;
using fdio::throw_errno;

namespace {

struct Worker {
  pid_t pid = -1;  ///< stays -1 when posix_spawn failed (reaped as 127)
  int err_fd = -1;
  int pid_fd = -1;  ///< readable once the worker exits; -1 = tick-only
  int hb_fd = -1;   ///< launcher end of the worker's heartbeat socketpair
  std::vector<std::byte> hb_buf;  ///< heartbeat bytes not yet a whole frame
  bool done = false;
  int status = 0;
  std::string err;
  double last_beat = -1.0;
  long long last_phase = -1;
};

/// Supervision cadence: the longest the loop sleeps without an event. It
/// bounds the staleness of the heartbeat-grace check and the on_tick
/// rate, and is the whole reaping latency where pidfds are unavailable.
constexpr double kTickSeconds = 0.050;

/// A descriptor that polls readable when `pid` exits, or -1 (the kernel
/// predates pidfd_open). Called through syscall(): not every libc wraps
/// it. The fd is close-on-exec by construction.
int open_pidfd(pid_t pid) {
  return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
}

/// Read every available byte from a nonblocking fd into `out`; closes the
/// fd (and sets it to -1) at EOF or on a hard error, so a dead descriptor
/// never keeps poll() waking.
template <class Sink>
void drain_fd(int& fd, Sink&& out) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      out(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      ::close(fd);
      fd = -1;
    }
    return;
  }
}

}  // namespace

LaunchResult launch_workers(const LaunchConfig& cfg) {
  SLIPFLOW_REQUIRE(cfg.ranks >= 1);
  SLIPFLOW_REQUIRE_MSG(!cfg.worker_command.empty(),
                       "launch_workers: empty worker command");

  const std::string dir = make_socket_temp_dir();
  const double t0 = mono_now();
  std::vector<Worker> workers(static_cast<std::size_t>(cfg.ranks));
  // One ring session tag per launch, distinct even between two launches
  // a daemon starts in the same clock tick.
  const std::uint64_t session = fresh_session();

  // Output the caller buffered goes out before its workers' own.
  std::fflush(stdout);
  std::fflush(stderr);
  for (int r = 0; r < cfg.ranks; ++r) {
    std::vector<std::string> argv_s = cfg.worker_command;
    argv_s.push_back("--rank=" + std::to_string(r));
    argv_s.push_back("--ranks=" + std::to_string(cfg.ranks));
    argv_s.push_back("--socket-dir=" + dir);
    if (!cfg.transport.empty()) {
      argv_s.push_back("--transport=" + cfg.transport);
      if (cfg.transport != "socket") {
        argv_s.push_back("--shm-session=" + std::to_string(session));
        if (cfg.shm_ring_bytes > 0)
          argv_s.push_back("--shm-ring-bytes=" +
                           std::to_string(cfg.shm_ring_bytes));
      }
    }
    argv_s.push_back("--heartbeat-fd=3");
    argv_s.push_back("--heartbeat-interval=" +
                     std::to_string(cfg.heartbeat_interval));
    if (const auto it = cfg.extra_args.find(r); it != cfg.extra_args.end())
      for (const std::string& a : it->second) argv_s.push_back(a);

    // posix_spawn, not fork+exec: the child shares the launcher's
    // address space until its exec, so starting a rank copies no page
    // tables however large the launching process (a daemon with many
    // jobs in flight) has grown. The stderr pipe reaches the child as fd
    // 2 and its end of the heartbeat socketpair as fd 3, through file
    // actions. Every end is close-on-exec, so no other worker (of this or
    // a concurrent launch) inherits them; a child end that already is
    // fd 3 has the flag cleared by the dup2 action itself (glibc, per
    // POSIX).
    int pipefd[2];
    if (::pipe2(pipefd, O_CLOEXEC) < 0) throw_errno("pipe2");
    int hbfd[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, hbfd) < 0)
      throw_errno("socketpair(heartbeat)");
    std::vector<char*> argv;
    argv.reserve(argv_s.size() + 1);
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, pipefd[1], 2);
    posix_spawn_file_actions_adddup2(&actions, hbfd[1], 3);
    pid_t pid = -1;
    const int rc =
        ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(pipefd[1]);
    ::close(hbfd[1]);
    Worker& w = workers[static_cast<std::size_t>(r)];
    if (rc != 0) {
      // The exec failed: report the rank as exec's own failure would
      // have exited, code 127, with the reason on its stderr.
      ::close(pipefd[0]);
      ::close(hbfd[0]);
      w.err = "rank " + std::to_string(r) + ": exec " + argv_s[0] +
              " failed: " + std::strerror(rc) + "\n";
      continue;
    }
    set_nonblocking(pipefd[0]);
    set_nonblocking(hbfd[0]);
    w.pid = pid;
    w.err_fd = pipefd[0];
    w.hb_fd = hbfd[0];
    w.pid_fd = open_pidfd(pid);
  }

  LaunchResult result;
  result.last_phase.assign(static_cast<std::size_t>(cfg.ranks), -1);

  bool failed = false;
  auto fail = [&](int rank, const std::string& why) {
    failed = true;
    result.failed_rank = rank;
    result.diagnostic = why;
  };

  auto drain_stderr = [&] {
    for (Worker& w : workers)
      if (w.err_fd >= 0)
        drain_fd(w.err_fd,
                 [&](const char* p, std::size_t n) { w.err.append(p, n); });
  };

  // A frame on rank r's channel must be a heartbeat from rank r:
  // anything else closes the channel, so a rank vouches only for itself.
  auto pump_heartbeats = [&] {
    for (int r = 0; r < cfg.ranks; ++r) {
      Worker& w = workers[static_cast<std::size_t>(r)];
      if (w.hb_fd >= 0)
        drain_fd(w.hb_fd, [&](const char* p, std::size_t n) {
          const auto* b = reinterpret_cast<const std::byte*>(p);
          w.hb_buf.insert(w.hb_buf.end(), b, b + n);
        });
      std::size_t off = 0;
      while (w.hb_buf.size() - off >= kFrameHeaderBytes) {
        FrameHeader h;
        bool own_beat = false;
        try {
          h = decode_frame_header(
              std::span<const std::byte>(w.hb_buf).subspan(off));
          own_beat = h.kind == FrameKind::kHeartbeat && h.src == r;
        } catch (const comm_error&) {
        }
        if (!own_beat) {
          if (w.hb_fd >= 0) ::close(w.hb_fd);
          w.hb_fd = -1;
          w.hb_buf.clear();
          off = 0;
          break;
        }
        const std::size_t need = kFrameHeaderBytes +
                                 static_cast<std::size_t>(h.count) *
                                     sizeof(double);
        if (w.hb_buf.size() - off < need) break;
        w.last_beat = mono_now();
        if (h.count >= 1) {
          double phase = 0.0;
          std::memcpy(&phase, w.hb_buf.data() + off + kFrameHeaderBytes,
                      sizeof(double));
          const long long p = static_cast<long long>(phase);
          if (p != w.last_phase && cfg.on_progress) cfg.on_progress(r, p);
          w.last_phase = p;
        }
        off += need;
      }
      w.hb_buf.erase(w.hb_buf.begin(),
                     w.hb_buf.begin() + static_cast<std::ptrdiff_t>(off));
    }
  };

  auto reap = [&](Worker& w, int status) {
    w.done = true;
    w.status = status;
    if (w.pid_fd >= 0) ::close(w.pid_fd);
    w.pid_fd = -1;
  };

  auto kill_all = [&] {
    for (Worker& w : workers) {
      if (w.done || w.pid < 0) continue;  // never kill(-1)
      ::kill(w.pid, SIGCONT);  // a SIGSTOPped worker ignores SIGKILL queueing
      ::kill(w.pid, SIGKILL);
    }
    for (Worker& w : workers) {
      if (w.done) continue;
      int status = 0;
      ::waitpid(w.pid, &status, 0);
      reap(w, status);
    }
  };

  // Sleep until something needs the supervisor — worker stderr, a
  // heartbeat frame, a worker exit (pidfd) — or until `until`.
  auto wait_for_events = [&](double until) {
    std::vector<pollfd> fds;
    for (const Worker& w : workers) {
      if (w.err_fd >= 0) fds.push_back({w.err_fd, POLLIN, 0});
      if (w.hb_fd >= 0) fds.push_back({w.hb_fd, POLLIN, 0});
      if (w.pid_fd >= 0) fds.push_back({w.pid_fd, POLLIN, 0});
    }
    const double wait = until - mono_now();
    const int ms = wait > 0.0 ? static_cast<int>(std::ceil(wait * 1e3)) : 0;
    ::poll(fds.data(), fds.size(), ms);  // EINTR is just an early wake
  };

  const double deadline = t0 + cfg.wall_clock_timeout;
  int running = cfg.ranks;
  // Exit attribution. A SIGKILLed rank's peers fail on the closed
  // connection moments later, and either exit may be reaped first. So
  // after the first failing exit the loop keeps reaping for a settle
  // window (one tick, or until every rank is reaped) before blaming:
  // the signalled rank — the injected fault — wins over the peers that
  // merely exited nonzero.
  int first_signaled = -1, first_nonzero = -1;
  double settle_end = -1.0;
  while (running > 0) {
    pump_heartbeats();
    drain_stderr();
    if (cfg.on_tick) cfg.on_tick();

    for (int r = 0; r < cfg.ranks; ++r) {
      Worker& w = workers[static_cast<std::size_t>(r)];
      if (w.done) continue;
      int status = 0;
      if (w.pid < 0)
        status = W_EXITCODE(127, 0);
      else if (::waitpid(w.pid, &status, WNOHANG) != w.pid)
        continue;
      reap(w, status);
      --running;
      if (WIFSIGNALED(status) && first_signaled < 0) first_signaled = r;
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0 && first_nonzero < 0)
        first_nonzero = r;
    }
    const double now = mono_now();
    if (first_signaled >= 0 || first_nonzero >= 0) {
      if (settle_end < 0.0) settle_end = now + kTickSeconds;
      if (running > 0 && now < settle_end && now < deadline) {
        wait_for_events(std::min(settle_end, deadline));
        continue;
      }
      if (first_signaled >= 0) {
        const Worker& w = workers[static_cast<std::size_t>(first_signaled)];
        fail(first_signaled,
             "rank " + std::to_string(first_signaled) + " killed by signal " +
                 std::to_string(WTERMSIG(w.status)) +
                 " (last reported phase " + std::to_string(w.last_phase) +
                 ")");
      } else {
        const Worker& w = workers[static_cast<std::size_t>(first_nonzero)];
        fail(first_nonzero,
             "rank " + std::to_string(first_nonzero) + " exited with code " +
                 std::to_string(WEXITSTATUS(w.status)) +
                 " (last reported phase " + std::to_string(w.last_phase) +
                 ")");
      }
      break;
    }

    if (cfg.heartbeat_grace > 0.0) {
      for (int r = 0; r < cfg.ranks; ++r) {
        const Worker& w = workers[static_cast<std::size_t>(r)];
        if (w.done) continue;
        const double since =
            w.last_beat >= 0.0 ? now - w.last_beat : now - t0;
        if (since > cfg.heartbeat_grace) {
          fail(r, "rank " + std::to_string(r) + " heartbeat silent for " +
                      std::to_string(since) + "s (last reported phase " +
                      std::to_string(w.last_phase) + ")");
          break;
        }
      }
    }
    if (failed) break;

    if (now >= deadline) {
      std::ostringstream os;
      os << "wall-clock timeout after " << cfg.wall_clock_timeout
         << "s; per-rank last phases:";
      for (int r = 0; r < cfg.ranks; ++r)
        os << " rank" << r << "="
           << workers[static_cast<std::size_t>(r)].last_phase;
      fail(-1, os.str());
      break;
    }
    if (running > 0) wait_for_events(std::min(now + kTickSeconds, deadline));
  }

  if (failed) kill_all();
  pump_heartbeats();
  drain_stderr();
  for (Worker& w : workers) {
    if (w.err_fd >= 0) ::close(w.err_fd);
    if (w.hb_fd >= 0) ::close(w.hb_fd);
    if (w.pid_fd >= 0) ::close(w.pid_fd);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  result.elapsed_seconds = mono_now() - t0;
  for (int r = 0; r < cfg.ranks; ++r)
    result.last_phase[static_cast<std::size_t>(r)] =
        workers[static_cast<std::size_t>(r)].last_phase;
  result.ok = !failed;
  if (failed) {
    std::ostringstream os;
    os << result.diagnostic;
    for (int r = 0; r < cfg.ranks; ++r) {
      const std::string& e = workers[static_cast<std::size_t>(r)].err;
      if (!e.empty()) os << "\n--- rank " << r << " stderr ---\n" << e;
    }
    result.diagnostic = os.str();
  }
  return result;
}

}  // namespace slipflow::transport
