#pragma once
/// \file socket_comm.hpp
/// SocketComm — real multi-process Communicator over Unix-domain
/// sockets, the repo's stand-in for the paper's MPI-over-GigE cluster.
///
/// Topology: a full mesh of stream connections between N worker
/// processes. Connection setup is a rank-0 rendezvous (everyone creates
/// their own listener, checks in with rank 0, and dials the mesh only
/// after rank 0 releases — so no dial can race a missing listener).
///
/// Semantics match ThreadComm exactly:
///   - sends are eager/buffered: a send appends to a per-peer outbox and
///     flushes opportunistically without ever blocking on the receiver,
///     so the halo pattern "send left, send right, recv, recv" stays
///     deadlock-free even when payloads exceed the kernel socket buffer;
///   - messages are FIFO per (src, dst, tag) — frames on one stream
///     cannot overtake;
///   - the mailbox, recv, collectives, heartbeats and fault injection
///     are the shared endpoint core's (peer_comm.hpp), so results are
///     byte-identical to ThreadComm's and failures read the same.
///
/// A dead peer surfaces as the named closed-connection comm_error the
/// moment its stream hits EOF.

#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "transport/peer_comm.hpp"

namespace slipflow::transport {

class SocketComm final : public PeerComm {
 public:
  /// Connects the full mesh (blocking, bounded by connect_timeout) after
  /// the core has started the heartbeat thread, when configured.
  explicit SocketComm(const PeerCommConfig& cfg);
  /// Stops the heartbeat thread, flushes pending sends (best effort,
  /// bounded), closes every connection. Never throws.
  ~SocketComm() override;

 private:
  struct Peer {
    int fd = -1;
    bool closed = false;
    std::deque<std::vector<std::byte>> outbox;
    std::size_t out_off = 0;      ///< bytes of outbox.front() already sent
    std::vector<std::byte> inbuf;
    std::size_t in_off = 0;       ///< parsed prefix of inbuf
  };

  void setup_mesh();
  /// Frame the message into the peer's outbox and flush opportunistically.
  void append(int dest, int tag, std::span<const double> data) override;
  /// Flush as much of the peer's outbox as the kernel accepts right now.
  void flush_peer(int peer);
  /// Drain readable bytes and dispatch complete frames into mailboxes.
  void drain_peer(int src);
  /// Poll all live peers for readability (and writability where an
  /// outbox is pending); the src hint is not needed.
  void progress(double max_wait_seconds, int src_hint) override;
  bool peer_closed(int src) const override;

  std::vector<Peer> peers_;  ///< indexed by rank; self entry unused
};

/// In-process harness mirroring run_ranks() for the socket backend:
/// forks `nranks` child processes (no exec), each running `fn` on its
/// own SocketComm endpoint. The parent supervises with a wall-clock
/// watchdog, captures each child's stderr, and throws on any child
/// failure or on timeout with the collected per-rank diagnostics.
/// For true fresh-address-space workers use transport::launch_workers
/// with the slipflow_worker binary instead.
void run_ranks_sockets(int nranks,
                       const std::function<void(Communicator&)>& fn,
                       const PeerRunOptions& opts = {});

}  // namespace slipflow::transport
