#pragma once
/// \file shm_comm.hpp
/// ShmComm — same-host Communicator over mmap'd single-producer/
/// single-consumer ring buffers, the launcher's fast path for workers
/// when every rank shares a machine.
///
/// Topology: one ring file per *directed* peer pair
/// (`DIR/ring_<src>to<dst>.shm`). The consumer rank creates and owns
/// its inbound rings; the producer opens them by path, retrying until
/// the header's magic word and session tag match — so stale segments
/// left by a crashed earlier launch are never mistaken for live ones.
/// Each ring is a classic SPSC byte ring: a monotonic `head` counter
/// (bytes produced, advanced with release stores by the producer) and a
/// monotonic `tail` counter (bytes consumed, advanced with release
/// stores by the consumer). `send` serializes its tagged frame directly
/// into the mapped ring — no intermediate buffer, no kernel copy — and
/// the consumer parses frames in place into the mailbox.
///
/// Semantics match SocketComm exactly (same frame codec, same eager-send
/// contract — a full ring spills to a local outbox instead of blocking,
/// so the halo pattern stays deadlock-free), because everything above
/// the wire is the shared endpoint core (peer_comm.hpp): the mailbox,
/// recv and its named errors, the binomial collectives, heartbeats and
/// fault injection. A peer that tore down cleanly flips the ring's
/// closed flag and surfaces as the same named comm_error.
///
/// Frames larger than half a ring are split into fragments
/// (kFrameFlagMoreFragments) so any message fits; waits are
/// spin-then-futex: a bounded yield loop covers the halo exchange's
/// microsecond latencies, and only when that comes up empty does the
/// consumer arm a per-ring waiting flag and sleep in futex(2) on the
/// ring's head word, so an idle rank costs no CPU until its producer
/// commits (which issues FUTEX_WAKE exactly when the flag is armed).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "transport/peer_comm.hpp"

namespace slipflow::transport {

/// The shared counters (published as `shm/*`) plus the ring's own.
struct ShmStats : PeerStats {
  /// Frames that found the ring full and took the local-outbox detour
  /// (the only path that copies); nonzero means the ring is undersized
  /// for the traffic pattern.
  long long spilled_frames = 0;
  long long spilled_bytes = 0;
  /// Times a blocking wait exhausted its yield budget and parked in
  /// futex(2) on a ring's head word (zero on hosts without futex).
  long long futex_waits = 0;
};

/// The smallest ring capacity ShmComm accepts (ShmCommConfig::ring_bytes).
inline constexpr std::size_t kShmMinRingBytes = 4096;

struct ShmCommConfig : PeerCommConfig {
  /// Data capacity of each directed ring in bytes (rounded up to 8); at
  /// least kShmMinRingBytes.
  std::size_t ring_bytes = std::size_t{1} << 20;
  /// Launch-wide session tag; a producer only accepts a ring whose
  /// header carries this exact tag. All ranks must agree (the launcher
  /// passes one via --shm-session).
  std::uint64_t session = 0;
};

class ShmComm final : public PeerComm {
 public:
  /// Creates this rank's inbound rings, opens every peer's (blocking,
  /// bounded by connect_timeout), after the core has started the
  /// heartbeat thread when configured.
  explicit ShmComm(const ShmCommConfig& cfg);
  /// Stops the heartbeat thread, drains pending spilled sends (best
  /// effort, bounded), marks every ring closed, unmaps, and unlinks the
  /// inbound segments. Never throws.
  ~ShmComm() override;

  /// Counter snapshot, the ring's own counters included.
  ShmStats stats() const;
  void publish_stats() override;

 private:
  struct Ring {
    std::byte* base = nullptr;  ///< mmap base (header + data)
    std::size_t map_len = 0;
    std::uint64_t cap = 0;      ///< data bytes
    std::string path;
    /// Producer: head value (bytes produced, cached — only we write it).
    /// Consumer: tail value (bytes consumed, cached).
    std::uint64_t pos = 0;
  };

  /// In-flight fragment reassembly for one inbound ring.
  struct Partial {
    bool active = false;
    int tag = 0;
    std::vector<double> data;
  };

  void create_inbound_rings();
  void open_outbound_rings();
  /// Constructor rendezvous: block until every peer has mapped this
  /// rank's inbound rings, which makes the destructor's unlink safe.
  void wait_producers_attached();
  /// Claim `frame_bytes` contiguous bytes in the ring (writing a pad
  /// frame / applying the implicit end-skip as needed); returns nullptr
  /// without blocking when the ring lacks space. `advance` is the total
  /// head advance (pad included) to pass to ring_commit.
  std::byte* ring_reserve(Ring& r, std::uint64_t frame_bytes,
                          std::uint64_t& advance);
  /// Publish bytes written after ring_reserve (release-store of head).
  void ring_commit(Ring& r, std::uint64_t advance);
  /// Serialize one frame into the outbound ring to `dest` if it fits;
  /// returns false (without blocking) when the ring lacks space.
  bool try_append(int dest, std::uint16_t flags, int tag,
                  std::span<const double> data);
  bool try_append_raw(int dest, std::span<const std::byte> frame);
  /// Fragment + append or spill one logical message.
  void append(int dest, int tag, std::span<const double> data) override;
  /// Retry spilled frames for one peer in FIFO order; true if any moved.
  bool drain_outbox(int dest);
  /// Parse every complete frame off the inbound ring from `src` into
  /// the mailbox; true if any moved. A frame that claims more bytes
  /// than the producer committed, or than remain to the ring's end, is
  /// a comm_error naming the producer.
  bool drain_ring(int src);
  /// Drain all inbound rings and retry every spilled outbox; waits
  /// (spin-then-futex) when nothing moved and max_wait_seconds > 0.
  /// `src_hint` names the ring the caller is blocked on — the only ring
  /// worth a futex sleep; -1 (no hint, or spilled sends still pending)
  /// keeps the waiter in the polling loop so outbox retries are never
  /// delayed by a sleep.
  void progress(double max_wait_seconds, int src_hint) override;
  /// Park in futex(2) on the inbound ring from `src` until its producer
  /// commits (or `max_wait_seconds` passes); false when the host has no
  /// futex and the caller should fall back to a timed sleep.
  bool futex_wait_ring(int src, double max_wait_seconds);
  /// Producer of the inbound ring closed, and the ring fully drained?
  bool peer_closed(int src) const override;

  const std::uint64_t ring_bytes_;
  const std::uint64_t session_;
  std::vector<Ring> in_;   ///< inbound ring from each rank (self unused)
  std::vector<Ring> out_;  ///< outbound ring to each rank (self unused)
  std::vector<Partial> partial_;  ///< per-src fragment reassembly
  std::vector<std::deque<std::vector<std::byte>>> outbox_;  ///< spill, per dest
  /// Yields burned in progress() before conceding a sleep; raised on an
  /// oversubscribed host (ranks > cores), where each yield donates the
  /// core to the peer being waited on and the sleep cliff costs more
  /// than the halo round-trip.
  int spin_limit_ = 256;
  long long spilled_frames_ = 0;
  long long spilled_bytes_ = 0;
  long long futex_waits_ = 0;
};

/// Can `dir` host mmap'd ring segments? (Probe: create, map shared,
/// write, read back.) The launcher's "auto" transport resolves to shm
/// exactly when this is true — deterministically identical on every
/// rank, since they probe the same filesystem.
bool shm_dir_usable(const std::string& dir);

/// A fresh ring session tag (pid, steady clock and a per-process
/// counter): no two launches or harness runs of one process share one,
/// even within one clock tick.
std::uint64_t fresh_session();

/// In-process harness mirroring run_ranks() for the shm backend: runs
/// `fn` on `nranks` threads, each with its own ShmComm endpoint over a
/// shared ring directory (a fresh mkdtemp when `dir` is empty, removed
/// after), started and joined by run_rank_threads (thread_comm.hpp). A
/// rank that throws tears its endpoint down, which unblocks peers with
/// named closed-ring errors; the first failure recorded is rethrown.
/// Kill/stop faults are refused (harness_configs, peer_comm.hpp); rings
/// across real processes are the launcher's (launch_workers).
struct ShmRunOptions : PeerRunOptions {
  std::size_t ring_bytes = std::size_t{1} << 20;
};

void run_ranks_shm(int nranks, const std::function<void(Communicator&)>& fn,
                   const ShmRunOptions& opts = {});

}  // namespace slipflow::transport
