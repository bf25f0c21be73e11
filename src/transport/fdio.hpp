#pragma once
/// \file fdio.hpp
/// Low-level file-descriptor and frame I/O shared by the transports:
/// monotonic time, errno-to-comm_error conversion, Unix-domain socket
/// setup (listener / dial-with-retry), the one poll loop every setup
/// wait runs on, bounded exact reads and writes, and blocking frame
/// send/recv for connection setup and heartbeats.
///
/// These were born inside socket_comm.cpp; they live here so the
/// shared-memory transport (shm_comm.cpp) can reuse the heartbeat and
/// rendezvous plumbing, and the launcher the nonblocking-fd setup,
/// without duplicating the error handling.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "transport/frame.hpp"

namespace slipflow::transport::fdio {

inline double mono_now() {
  // det-lint: allow(wall-clock): timeout/heartbeat plumbing only —
  // never feeds observables or balancing decisions (those go through
  // the injectable obs::Clock seam).
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] inline void throw_errno(const std::string& what) {
  throw comm_error(what + ": " + std::strerror(errno));
}

inline sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SLIPFLOW_REQUIRE_MSG(path.size() + 1 <= sizeof(addr.sun_path),
                       "unix socket path too long: " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

inline int make_listener(const std::string& path, int backlog) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(listener " + path + ")");
  ::unlink(path.c_str());
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  return fd;
}

/// Pacing of a setup wait: the pause between looks, and the clock and
/// sleep the wait runs on. Tests substitute a fake clock and a recording
/// sleeper to check the schedule without timing anything.
struct Pacing {
  double pause = 5e-3;  ///< seconds between looks
  std::function<double()> now = mono_now;
  std::function<void(double)> sleep = [](double seconds) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  };
};

/// Poll `ready()` until it returns true, sleeping `pacing.pause` between
/// misses; once `deadline` has passed, throw comm_timeout(what()). Every
/// setup loop that waits for a peer to appear (a listener to bind, a ring
/// to be created or attached) runs on this one helper. The pause is
/// fixed: pauses doubling from 50 µs shortened a launch on an idle host
/// but improved no served workload's job latency (EXPERIMENTS.md).
template <class Ready, class What>
void wait_until(double deadline, const Pacing& pacing, Ready&& ready,
                What&& what) {
  while (!ready()) {
    if (pacing.now() >= deadline) throw comm_timeout(what());
    pacing.sleep(pacing.pause);
  }
}

/// Dial `path`, retrying "not there yet" failures until the deadline —
/// this is what makes worker startup order irrelevant.
inline int connect_retry(const std::string& path, double deadline,
                         const std::string& who) {
  int fd = -1;
  wait_until(
      deadline, Pacing{},
      [&] {
        fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) throw_errno("socket(" + path + ")");
        const sockaddr_un addr = make_addr(path);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0)
          return true;
        const int err = errno;
        ::close(fd);
        fd = -1;
        if (err != ECONNREFUSED && err != ENOENT && err != EAGAIN) {
          errno = err;
          throw_errno("connect(" + path + ")");
        }
        return false;
      },
      [&] { return who + ": connect to " + path + " timed out"; });
  return fd;
}

/// Wait (bounded) until fd is ready for `events`; throws comm_timeout
/// naming `what` on expiry.
inline void wait_ready(int fd, short events, double deadline,
                       const std::string& what) {
  for (;;) {
    const double remaining = deadline - mono_now();
    if (remaining <= 0.0) throw comm_timeout(what + ": timed out");
    pollfd p{fd, events, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(remaining * 1000) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll(" + what + ")");
    }
    if (rc > 0) return;
  }
}

inline void write_exact(int fd, const std::byte* data, std::size_t n,
                        double deadline, const std::string& what) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      wait_ready(fd, POLLOUT, deadline, what);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    throw_errno("send(" + what + ")");
  }
}

inline void read_exact(int fd, std::byte* data, std::size_t n,
                       double deadline, const std::string& what) {
  std::size_t off = 0;
  while (off < n) {
    wait_ready(fd, POLLIN, deadline, what);
    const ssize_t r = ::read(fd, data + off, n - off);
    if (r > 0) {
      off += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) throw comm_error(what + ": connection closed during setup");
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    throw_errno("read(" + what + ")");
  }
}

/// Blocking send of a payload-free or small frame during setup.
inline void send_frame_blocking(int fd, const FrameHeader& h,
                                std::span<const double> payload,
                                double deadline, const std::string& what) {
  const auto hdr = encode_frame_header(h);
  write_exact(fd, hdr.data(), hdr.size(), deadline, what);
  if (!payload.empty())
    write_exact(fd, reinterpret_cast<const std::byte*>(payload.data()),
                payload.size() * sizeof(double), deadline, what);
}

inline FrameHeader recv_frame_blocking(int fd, std::vector<double>& payload,
                                       double deadline,
                                       const std::string& what) {
  std::array<std::byte, kFrameHeaderBytes> hdr;
  read_exact(fd, hdr.data(), hdr.size(), deadline, what);
  const FrameHeader h = decode_frame_header(hdr, [&] { return what; });
  payload.resize(h.count);
  if (h.count > 0)
    read_exact(fd, reinterpret_cast<std::byte*>(payload.data()),
               h.count * sizeof(double), deadline, what);
  return h;
}

inline void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

}  // namespace slipflow::transport::fdio
