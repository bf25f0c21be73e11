#pragma once
/// \file peer_comm.hpp
/// PeerComm — the endpoint core of the real-process transports
/// (SocketComm over Unix-domain sockets, ShmComm over shared-memory
/// rings). Everything the two do the same way lives here once:
///
///   - the per-(src, tag) mailbox the wire drains frames into;
///   - send, with the drop/delay fault hooks and the self-send path;
///   - the token-bucket throttle the wire charges per frame;
///   - the bounded recv loop and its named closed/timeout/self-deadlock
///     errors, and the RecvHandle behind irecv;
///   - the collectives, over the shared binomial trees (collectives.hpp);
///   - note_progress (heartbeat phase, kill/stop faults) and the
///     heartbeat sender itself;
///   - the common counters and publish_stats.
///
/// A transport supplies only its wire, through three hooks: append one
/// logical message to a peer, run one progress pass, and report whether
/// a peer is closed. The core never asks which transport it serves.
///
/// Teardown order is the transport's to keep: its destructor calls
/// stop_heartbeat() before its final flush or drain.

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "transport/communicator.hpp"
#include "transport/fault.hpp"

namespace slipflow::transport {

class HeartbeatSender;  // heartbeat.hpp

/// Configuration shared by every process-transport endpoint.
struct PeerCommConfig {
  int rank = 0;
  int nranks = 1;
  /// Directory holding the transport's rendezvous files (listener
  /// sockets or ring segments); all ranks must agree. May be empty only
  /// for nranks == 1.
  std::string dir;
  CommOptions comm;
  /// Bound on connection setup: rendezvous, mesh dial, ring discovery
  /// (seconds).
  double connect_timeout = 10.0;
  /// Launcher monitor socket; empty = no heartbeat thread.
  std::string heartbeat_path;
  double heartbeat_interval = 0.25;
  FaultInjection fault;
  /// When set, publish_stats() writes the endpoint's counters into this
  /// registry's shard `rank` under `<transport>/<name>`.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Transport-level counters every process endpoint keeps.
struct PeerStats {
  long long bytes_sent = 0;      ///< framed bytes sent (headers incl.)
  long long bytes_received = 0;  ///< framed bytes received
  long long messages_sent = 0;
  long long messages_received = 0;
  long long heartbeats_sent = 0;
  long long frames_dropped = 0;  ///< by fault injection
  double recv_wait_seconds = 0.0;
  double throttle_wait_seconds = 0.0;
};

class PeerComm : public Communicator {
 public:
  ~PeerComm() override;

  PeerComm(const PeerComm&) = delete;
  PeerComm& operator=(const PeerComm&) = delete;

  int rank() const override { return cfg_.rank; }
  int size() const override { return cfg_.nranks; }
  const std::string& dir() const { return cfg_.dir; }

  void send(int dest, int tag, std::span<const double> data) override;
  std::vector<double> recv(int src, int tag) override;
  /// test() drives one nonblocking progress pass, so posted receives
  /// complete while the caller computes; wait() delegates to recv() and
  /// inherits its timeout/closed diagnostics.
  RecvHandlePtr irecv(int src, int tag) override;
  void barrier() override;
  std::vector<double> allgather(std::span<const double> mine) override;
  using Communicator::allreduce_sum;  // the vector overload
  double allreduce_sum(double x) override;
  double allreduce_max(double x) override;
  void note_progress(long long phase) override;

  /// Counter snapshot (heartbeat count folded in from its thread).
  PeerStats stats() const;
  /// Write the counters into cfg.metrics (shard = rank) under the
  /// transport's prefix; no-op without a registry. Call once, after the
  /// run. A transport with counters of its own adds them here.
  virtual void publish_stats();

 protected:
  /// Validates the config and starts the heartbeat thread when one is
  /// configured, so a rank stuck in the transport's own setup is
  /// already visible to the launcher's monitor. `prefix` names the
  /// metrics ("socket", "shm").
  PeerComm(const PeerCommConfig& cfg, std::string prefix);

  // --- the wire ---
  /// Put one logical message on the wire to `dest` (never self), eagerly:
  /// buffer whatever the peer cannot take yet, never block on it.
  virtual void append(int dest, int tag, std::span<const double> data) = 0;
  /// One bounded step of the progress engine: move pending output and
  /// drain arrivals into the mailbox; waits up to max_wait_seconds when
  /// nothing moved (<= 0 is a pure nonblocking pass). `src_hint` names
  /// the peer a blocked recv waits on, -1 for none.
  virtual void progress(double max_wait_seconds, int src_hint) = 0;
  /// Has `src` gone away with nothing more to deliver?
  virtual bool peer_closed(int src) const = 0;

  /// Hand one received message to the mailbox.
  void deliver(int src, int tag, std::vector<double> payload);
  /// Charge `bytes` against the throttle's token bucket (sleeps when
  /// the bucket is empty; no-op without a throttle).
  void throttle(std::size_t bytes);
  /// Stop the heartbeats; the transport's destructor calls this first.
  void stop_heartbeat();
  /// Publish one counter under the transport's prefix.
  void publish(const std::string& name, double value) const;

  const PeerCommConfig cfg_;
  PeerStats stats_;

 private:
  class Handle;  // RecvHandle over the mailbox + progress engine

  /// Claim the oldest queued (src, tag) message, if any. No progress.
  bool try_pop(int src, int tag, std::vector<double>& out);
  [[noreturn]] void throw_closed(int src, int tag) const;

  const std::string prefix_;
  std::map<std::pair<int, int>, std::deque<std::vector<double>>> mail_;
  double throttle_tokens_ = 0.0;
  double throttle_last_ = 0.0;
  int drop_remaining_ = 0;
  std::unique_ptr<HeartbeatSender> hb_;
};

/// Options shared by the forked and threaded harnesses of the process
/// transports (run_ranks_sockets, run_ranks_shm, run_ranks_shm_forked).
struct PeerRunOptions {
  CommOptions comm;
  double connect_timeout = 10.0;
  /// Wall-clock bound of the forked harnesses (seconds).
  double wall_timeout = 60.0;
  /// Rendezvous directory; empty = a fresh mkdtemp under $TMPDIR
  /// (falling back to /tmp), removed after.
  std::string dir;
  /// Optional per-rank fault injection.
  std::function<FaultInjection(int rank)> faults;
};

/// The endpoint config a harness gives rank `rank` of `nranks`.
PeerCommConfig harness_config(int rank, int nranks, const std::string& dir,
                              const PeerRunOptions& opts);

}  // namespace slipflow::transport
