#pragma once
/// \file thread_comm.hpp
/// Threads-as-ranks transport: runs N ranks as N threads of this process,
/// each handed a Communicator endpoint whose wire is an in-process inbox.
///
/// This is the substitution for the paper's MPI cluster (see DESIGN.md):
/// the decomposition, message pattern, synchronization structure and the
/// remapping logic run unchanged; only the wire is a mutex-protected
/// queue instead of a Gigabit switch. Everything above the wire — the
/// mailbox, recv and irecv, the binomial collectives and the named
/// closed/timeout errors — is the endpoint core it shares with the
/// process transports (peer_comm.hpp).

#include <functional>
#include <memory>

#include "transport/communicator.hpp"

namespace slipflow::transport {

/// Runs `fn(comm)` on `nranks` concurrent threads, rank r getting a
/// Communicator with rank()==r. Blocks until every rank returns.
///
/// A rank's endpoint closes when `fn` returns or throws: every peer then
/// sees that rank's messages, followed by an end of stream, as with a
/// socket EOF. A peer blocked on a rank that is gone throws the named
/// "connection to rank N closed" comm_error instead of hanging, and the
/// failure cascades. After all threads are joined, the first exception
/// recorded in time (the root cause, not a later "closed" error) is
/// rethrown to the caller.
void run_ranks(int nranks, const std::function<void(Communicator&)>& fn);

/// As above, with shared options. With opts.recv_timeout > 0 a recv that
/// waits longer throws comm_timeout naming the pending (src, tag), so an
/// in-process deadlock fails diagnosably instead of hanging ctest.
void run_ranks(int nranks, const std::function<void(Communicator&)>& fn,
               const CommOptions& opts);

/// The start/join loop of every in-process harness (run_ranks,
/// run_ranks_sockets, run_ranks_shm): rank r builds its endpoint with
/// `make(r)` on its own thread and runs `fn` on it. An error, from `make`
/// or `fn`, is recorded before the endpoint is destroyed, so the first
/// one recorded is the root cause; it is rethrown once every thread has
/// joined.
void run_rank_threads(
    int nranks,
    const std::function<std::unique_ptr<Communicator>(int rank)>& make,
    const std::function<void(Communicator&)>& fn);

}  // namespace slipflow::transport
