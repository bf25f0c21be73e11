#pragma once
/// \file socket_comm.hpp
/// SocketComm — real multi-process Communicator over Unix-domain
/// sockets, the repo's stand-in for the paper's MPI-over-GigE cluster.
///
/// Topology: a full mesh of stream connections between N ranks (the
/// launcher's worker processes, or the threads of run_ranks_sockets).
/// Connection setup is a rank-0 rendezvous (everyone creates
/// their own listener, checks in with rank 0, and dials the mesh only
/// after rank 0 releases — so no dial can race a missing listener).
///
/// Semantics match ThreadComm and ShmComm exactly:
///   - sends are eager/buffered: a send appends to a per-peer outbox and
///     flushes opportunistically without ever blocking on the receiver,
///     so the halo pattern "send left, send right, recv, recv" stays
///     deadlock-free even when payloads exceed the kernel socket buffer;
///   - messages are FIFO per (src, dst, tag) — frames on one stream
///     cannot overtake;
///   - the mailbox, recv, collectives, heartbeats and fault injection
///     are the shared endpoint core's (peer_comm.hpp), so results are
///     byte-identical to the other transports' and failures read the
///     same.
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
/// runs `fn` on `nranks` threads, each with its own SocketComm endpoint
/// meshed through a shared socket directory (a fresh mkdtemp when
/// `opts.dir` is empty, removed after), started and joined by
/// run_rank_threads (thread_comm.hpp). A rank that throws closes its
/// connections, so peers fail with the named closed-connection error;
/// the first failure recorded is rethrown. Ranks in one process are
/// always threads: a separate process per rank comes only from
/// transport::launch_workers with the slipflow_worker binary.
void run_ranks_sockets(int nranks,
                       const std::function<void(Communicator&)>& fn,
                       const PeerRunOptions& opts = {});

}  // namespace slipflow::transport
