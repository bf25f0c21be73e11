#pragma once
/// \file communicator.hpp
/// MPI-flavored message passing abstraction.
///
/// The paper's code is plain MPI on a Linux cluster. The library programs
/// against this narrow interface instead; four backends implement it
/// with the same semantics the parallel LBM needs — point-to-point tagged
/// messages of doubles, barrier, allgather and sum/max reductions:
///
///   SerialComm  — one rank, collectives are identities (serial_comm.hpp)
///   ThreadComm  — threads-as-ranks in one process over per-rank
///                 inboxes (thread_comm.hpp)
///   SocketComm  — real processes over Unix-domain sockets with
///                 length-prefixed frames (socket_comm.hpp)
///   ShmComm     — real processes on one host over mmap'd rings of the
///                 same frames (shm_comm.hpp)
///
/// The three multi-rank transports share one endpoint core
/// (peer_comm.hpp) — mailbox, recv, irecv, collectives and the named
/// closed/timeout errors — and differ only in their wire. Negative tags
/// are reserved for the collective trees (collectives.hpp); the runner's
/// tags are its own.
///
/// Sends are buffered (they never block on the receiver), so the
/// neighbor-exchange pattern "send left, send right, recv left, recv
/// right" is deadlock-free exactly as with MPI_Bsend/eager-mode MPI.
/// Collectives are deterministic: allgather concatenates in rank order
/// and reductions fold the gathered values in rank order, so results are
/// byte-identical across all backends.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace slipflow::transport {

/// A transport-layer failure: a peer died, a connection broke, a frame
/// was malformed. Distinct from contract_error (caller bugs).
class comm_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A bounded wait expired — the blocked operation names the pending
/// (src, tag) so a silent hang becomes a diagnosable error.
class comm_timeout : public comm_error {
 public:
  using comm_error::comm_error;
};

/// Options shared by every backend.
struct CommOptions {
  /// Upper bound on any blocking recv, in seconds; <= 0 waits forever.
  /// On expiry the recv throws comm_timeout naming (rank, src, tag)
  /// instead of hanging the run (or ctest) indefinitely.
  double recv_timeout = 0.0;
};

/// Pending nonblocking receive posted with Communicator::irecv.
///
/// test() is a nonblocking probe: it drives whatever progress the
/// backend needs (SocketComm pumps its poll() engine with a zero
/// timeout), claims the oldest matching message if one has arrived, and
/// returns whether the receive is complete. Once it has returned true it
/// stays true. wait() blocks until completion and returns the payload;
/// it honors the communicator's recv_timeout and throws the same
/// comm_timeout / comm_error diagnostics (naming src and tag) as a
/// blocking recv would. wait() may be called without ever calling
/// test(), and consumes the handle: a second wait() is a caller bug.
///
/// Handles claim messages in FIFO order per (src, tag), so posting at
/// most one outstanding handle per (src, tag) keeps ordering identical
/// to a sequence of blocking recvs. The handle must not outlive its
/// communicator and is used from the owning rank's thread only.
class RecvHandle {
 public:
  virtual ~RecvHandle() = default;
  virtual bool test() = 0;
  virtual std::vector<double> wait() = 0;
};

using RecvHandlePtr = std::unique_ptr<RecvHandle>;

/// One rank's endpoint. Implementations must be usable concurrently from
/// the owning rank's thread only.
class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Buffered, non-blocking-on-receiver send of a double payload.
  virtual void send(int dest, int tag, std::span<const double> data) = 0;

  /// Blocking receive of the oldest matching message from (src, tag).
  virtual std::vector<double> recv(int src, int tag) = 0;

  /// Nonblocking send. Every backend's send() already copies the payload
  /// before returning (buffered/eager semantics), so the default simply
  /// forwards; `data` may be reused or overwritten as soon as the call
  /// returns. Exists so call sites can state intent and so a future
  /// backend with truly deferred sends has a seam to implement it.
  virtual void isend(int dest, int tag, std::span<const double> data) {
    send(dest, tag, data);
  }

  /// Post a nonblocking receive for the oldest message from (src, tag)
  /// not yet claimed by recv() or another handle. See RecvHandle for the
  /// completion contract. Matching is FIFO per (src, tag).
  virtual RecvHandlePtr irecv(int src, int tag) = 0;

  /// Block until every rank reached the barrier.
  virtual void barrier() = 0;

  /// Gather equal-size contributions from all ranks; the result is the
  /// concatenation ordered by rank, identical on every rank.
  virtual std::vector<double> allgather(std::span<const double> mine) = 0;

  /// Global sum / max of one double, identical on every rank.
  virtual double allreduce_sum(double x) = 0;
  virtual double allreduce_max(double x) = 0;

  /// Element-wise global sum of an equal-size vector, identical on every
  /// rank. One collective instead of xs.size() scalar reductions. The
  /// default folds an allgather in rank order, which keeps the result
  /// byte-identical to summing scalar allreduces rank by rank.
  // det-lint: rank-ordered — folds the rank-ordered allgather result
  // in ascending rank index, never in completion order.
  virtual std::vector<double> allreduce_sum(std::span<const double> xs) {
    const std::size_t m = xs.size();
    const std::vector<double> all = allgather(xs);
    SLIPFLOW_REQUIRE_MSG(all.size() == m * static_cast<std::size_t>(size()),
                         "allreduce_sum: ragged contributions");
    std::vector<double> out(m, 0.0);
    for (int r = 0; r < size(); ++r)
      for (std::size_t i = 0; i < m; ++i)
        out[i] += all[static_cast<std::size_t>(r) * m + i];
    return out;
  }

  /// Progress note for external monitors: the application's current
  /// phase. The endpoint core forwards it on its heartbeat channel and
  /// applies phase-triggered fault injection, when configured (the
  /// launched workers); otherwise it is ignored.
  virtual void note_progress(long long phase) { (void)phase; }
};

}  // namespace slipflow::transport
