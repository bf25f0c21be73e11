#include "transport/socket_comm.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "transport/fdio.hpp"
#include "transport/fork_harness.hpp"
#include "transport/frame.hpp"
#include "transport/tempdir.hpp"

namespace slipflow::transport {

using fdio::connect_retry;
using fdio::make_listener;
using fdio::mono_now;
using fdio::recv_frame_blocking;
using fdio::send_frame_blocking;
using fdio::set_nonblocking;
using fdio::throw_errno;
using fdio::wait_ready;

namespace {

std::string rank_sock_path(const std::string& dir, int rank) {
  return dir + "/rank" + std::to_string(rank) + ".sock";
}

std::string ctl_sock_path(const std::string& dir) { return dir + "/ctl.sock"; }

}  // namespace

SocketComm::SocketComm(const PeerCommConfig& cfg) : PeerComm(cfg, "socket") {
  peers_.resize(static_cast<std::size_t>(cfg_.nranks));
  if (cfg_.nranks > 1) setup_mesh();
}

void SocketComm::setup_mesh() {
  const std::string who = "rank " + std::to_string(cfg_.rank);
  const double deadline = mono_now() + cfg_.connect_timeout;
  const std::string my_path = rank_sock_path(cfg_.dir, cfg_.rank);
  const int listener = make_listener(my_path, cfg_.nranks + 2);

  try {
    // --- rank-0 rendezvous: everyone's listener exists before anyone
    // dials the mesh, so mesh connects can never race a missing peer.
    if (cfg_.rank == 0) {
      const int ctl = make_listener(ctl_sock_path(cfg_.dir), cfg_.nranks + 2);
      std::vector<int> conns;
      try {
        std::vector<double> none;
        for (int i = 0; i < cfg_.nranks - 1; ++i) {
          wait_ready(ctl, POLLIN, deadline, who + ": rendezvous accept");
          const int c = ::accept(ctl, nullptr, nullptr);
          if (c < 0) throw_errno("accept(rendezvous)");
          conns.push_back(c);
          const FrameHeader h =
              recv_frame_blocking(c, none, deadline, who + ": rendezvous hello");
          if (h.kind != FrameKind::kHello)
            throw comm_error(who + ": rendezvous expected hello frame");
        }
        FrameHeader release;
        release.kind = FrameKind::kRelease;
        release.src = 0;
        for (const int c : conns)
          send_frame_blocking(c, release, {}, deadline,
                              who + ": rendezvous release");
      } catch (...) {
        for (const int c : conns) ::close(c);
        ::close(ctl);
        ::unlink(ctl_sock_path(cfg_.dir).c_str());
        throw;
      }
      for (const int c : conns) ::close(c);
      ::close(ctl);
      ::unlink(ctl_sock_path(cfg_.dir).c_str());
    } else {
      const int ctl =
          connect_retry(ctl_sock_path(cfg_.dir), deadline, who + ": rendezvous");
      try {
        FrameHeader hello;
        hello.kind = FrameKind::kHello;
        hello.src = cfg_.rank;
        send_frame_blocking(ctl, hello, {}, deadline, who + ": hello");
        std::vector<double> none;
        const FrameHeader h = recv_frame_blocking(
            ctl, none, deadline, who + ": waiting for rendezvous release");
        if (h.kind != FrameKind::kRelease)
          throw comm_error(who + ": rendezvous expected release frame");
      } catch (...) {
        ::close(ctl);
        throw;
      }
      ::close(ctl);
    }

    // --- mesh: dial every lower rank, accept every higher rank.
    for (int s = cfg_.rank - 1; s >= 0; --s) {
      const int fd = connect_retry(rank_sock_path(cfg_.dir, s), deadline,
                                   who + ": mesh dial");
      FrameHeader hello;
      hello.kind = FrameKind::kHello;
      hello.src = cfg_.rank;
      send_frame_blocking(fd, hello, {}, deadline, who + ": mesh hello");
      peers_[static_cast<std::size_t>(s)].fd = fd;
    }
    for (int i = cfg_.rank + 1; i < cfg_.nranks; ++i) {
      wait_ready(listener, POLLIN, deadline, who + ": mesh accept");
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) throw_errno("accept(mesh)");
      std::vector<double> none;
      const FrameHeader h =
          recv_frame_blocking(fd, none, deadline, who + ": mesh hello");
      if (h.kind != FrameKind::kHello || h.src <= cfg_.rank ||
          h.src >= cfg_.nranks)
        throw comm_error(who + ": bad mesh hello");
      Peer& p = peers_[static_cast<std::size_t>(h.src)];
      if (p.fd >= 0) throw comm_error(who + ": duplicate mesh connection");
      p.fd = fd;
    }
  } catch (...) {
    ::close(listener);
    ::unlink(my_path.c_str());
    throw;
  }
  ::close(listener);
  ::unlink(my_path.c_str());

  for (int s = 0; s < cfg_.nranks; ++s)
    if (s != cfg_.rank) set_nonblocking(peers_[static_cast<std::size_t>(s)].fd);
}

SocketComm::~SocketComm() {
  stop_heartbeat();
  // Best-effort flush so a rank that finishes early does not strand
  // messages its peers still want (eager-send contract); bounded so
  // teardown can never hang.
  try {
    const double deadline = mono_now() + 5.0;
    for (;;) {
      bool pending = false;
      for (int s = 0; s < cfg_.nranks; ++s) {
        Peer& p = peers_[static_cast<std::size_t>(s)];
        if (p.fd < 0 || p.closed || p.outbox.empty()) continue;
        flush_peer(s);
        if (!p.outbox.empty() && !p.closed) pending = true;
      }
      if (!pending || mono_now() >= deadline) break;
      progress(0.01, -1);
    }
  } catch (...) {
    // teardown must not throw
  }
  for (Peer& p : peers_)
    if (p.fd >= 0) ::close(p.fd);
}

void SocketComm::append(int dest, int tag, std::span<const double> data) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.src = cfg_.rank;
  h.tag = tag;
  h.count = data.size();
  const auto hdr = encode_frame_header(h);
  std::vector<std::byte> frame(hdr.size() + data.size() * sizeof(double));
  std::memcpy(frame.data(), hdr.data(), hdr.size());
  if (!data.empty())
    std::memcpy(frame.data() + hdr.size(), data.data(),
                data.size() * sizeof(double));
  throttle(frame.size());
  stats_.bytes_sent += static_cast<long long>(frame.size());
  Peer& p = peers_[static_cast<std::size_t>(dest)];
  if (p.closed)
    throw comm_error("rank " + std::to_string(cfg_.rank) + ": send to rank " +
                     std::to_string(dest) + " failed: connection closed");
  p.outbox.push_back(std::move(frame));
  flush_peer(dest);  // opportunistic; leftovers drain in progress()
}

void SocketComm::flush_peer(int peer) {
  Peer& p = peers_[static_cast<std::size_t>(peer)];
  while (!p.outbox.empty()) {
    const std::vector<std::byte>& buf = p.outbox.front();
    const ssize_t w = ::send(p.fd, buf.data() + p.out_off,
                             buf.size() - p.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w > 0) {
      p.out_off += static_cast<std::size_t>(w);
      if (p.out_off == buf.size()) {
        p.outbox.pop_front();
        p.out_off = 0;
      }
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (w < 0 && errno == EINTR) continue;
    // EPIPE / ECONNRESET: the peer is gone; undeliverable output is
    // dropped and the next recv involving this peer reports it.
    p.closed = true;
    p.outbox.clear();
    p.out_off = 0;
    return;
  }
}

void SocketComm::drain_peer(int src) {
  Peer& p = peers_[static_cast<std::size_t>(src)];
  std::byte chunk[65536];
  for (;;) {
    const ssize_t r = ::read(p.fd, chunk, sizeof(chunk));
    if (r > 0) {
      p.inbuf.insert(p.inbuf.end(), chunk, chunk + r);
      if (static_cast<std::size_t>(r) == sizeof(chunk)) continue;
      break;
    }
    if (r == 0) {
      p.closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    p.closed = true;
    break;
  }
  // Parse complete frames off the accumulated buffer.
  while (p.inbuf.size() - p.in_off >= kFrameHeaderBytes) {
    const FrameHeader h = decode_frame_header(
        std::span<const std::byte>(p.inbuf).subspan(p.in_off));
    const std::size_t need =
        kFrameHeaderBytes + static_cast<std::size_t>(h.count) * sizeof(double);
    if (p.inbuf.size() - p.in_off < need) break;
    if (h.kind != FrameKind::kData || h.src != src)
      throw comm_error("rank " + std::to_string(cfg_.rank) +
                       ": unexpected frame from rank " + std::to_string(src));
    std::vector<double> payload(h.count);
    if (h.count > 0)
      std::memcpy(payload.data(), p.inbuf.data() + p.in_off + kFrameHeaderBytes,
                  payload.size() * sizeof(double));
    deliver(src, h.tag, std::move(payload));
    stats_.bytes_received += static_cast<long long>(need);
    p.in_off += need;
  }
  if (p.in_off > 0) {
    p.inbuf.erase(p.inbuf.begin(),
                  p.inbuf.begin() + static_cast<std::ptrdiff_t>(p.in_off));
    p.in_off = 0;
  }
}

void SocketComm::progress(double max_wait_seconds, int /*src_hint*/) {
  std::vector<pollfd> pfds;
  std::vector<int> ranks;
  for (int s = 0; s < cfg_.nranks; ++s) {
    if (s == cfg_.rank) continue;
    Peer& p = peers_[static_cast<std::size_t>(s)];
    if (p.fd < 0 || p.closed) continue;
    short events = POLLIN;
    if (!p.outbox.empty()) events |= POLLOUT;
    pfds.push_back(pollfd{p.fd, events, 0});
    ranks.push_back(s);
  }
  if (pfds.empty()) {
    if (max_wait_seconds > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::min(max_wait_seconds, 0.01)));
    return;
  }
  const int timeout_ms =
      max_wait_seconds <= 0.0
          ? 0
          : std::max(1, static_cast<int>(max_wait_seconds * 1000.0));
  const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return;
    throw_errno("poll(progress)");
  }
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    if (pfds[i].revents == 0) continue;
    if (pfds[i].revents & POLLOUT) flush_peer(ranks[i]);
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) drain_peer(ranks[i]);
  }
}

bool SocketComm::peer_closed(int src) const {
  return peers_[static_cast<std::size_t>(src)].closed;
}

// ---------------------------------------------------------------------------
// Forked in-process harness.

void run_ranks_sockets(int nranks,
                       const std::function<void(Communicator&)>& fn,
                       const PeerRunOptions& opts) {
  SLIPFLOW_REQUIRE(fn != nullptr);
  const HarnessDir dir(opts.dir, nranks);
  ForkRunOptions fopts;
  fopts.wall_timeout = opts.wall_timeout;
  fopts.who = "run_ranks_sockets";
  run_ranks_forked(
      nranks,
      [&](int r) {
        SocketComm comm(harness_config(r, nranks, dir.path(), opts));
        fn(comm);
      },
      fopts);
}

}  // namespace slipflow::transport
