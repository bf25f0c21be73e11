#include "transport/shm_comm.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#endif

#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>

#include "transport/fdio.hpp"
#include "transport/frame.hpp"
#include "transport/tempdir.hpp"
#include "transport/thread_comm.hpp"

namespace slipflow::transport {

using fdio::mono_now;
using fdio::throw_errno;

namespace {

// --- ring segment layout -------------------------------------------------
// [0]   u64 magic     — stored LAST (release) by the creating consumer,
//                       so a mapped segment with the magic set is fully
//                       initialized
// [8]   u64 session   — launch-wide tag; rejects stale segments
// [16]  u64 capacity  — data bytes (producer validates against its own)
// [64]  u64 head      — bytes produced, monotonic (producer-written)
// [128] u64 tail      — bytes consumed, monotonic (consumer-written)
// [136] u32 consumer_waiting — armed by the consumer just before it
//                       parks in futex(2) on the head word; the
//                       producer's commit checks it (after a seq_cst
//                       fence pairing with the waiter's) and issues
//                       FUTEX_WAKE only when set. Lives on the tail's
//                       cache line: both words are consumer-written,
//                       producer-read.
// [192] u32 producer_closed / [196] u32 consumer_closed
// [200] u32 producer_attached — set once the producer has mapped the
//                       segment; the consumer's constructor waits for it
//                       (the rendezvous that makes the destructor's
//                       unlink safe: an mmap outlives the directory entry)
// [256] data[capacity]
// head/tail/closed live on their own cache lines to avoid false sharing
// between the two sides.
constexpr std::uint64_t kShmMagic = 0x534C502E53484Dull;  // "SLP.SHM"
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffSession = 8;
constexpr std::size_t kOffCapacity = 16;
constexpr std::size_t kOffHead = 64;
constexpr std::size_t kOffTail = 128;
constexpr std::size_t kOffConsumerWaiting = 136;
constexpr std::size_t kOffProducerClosed = 192;
constexpr std::size_t kOffConsumerClosed = 196;
constexpr std::size_t kOffProducerAttached = 200;
constexpr std::size_t kRingDataOffset = 256;

std::atomic_ref<std::uint64_t> a64(std::byte* base, std::size_t off) {
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(base + off));
}

std::atomic_ref<std::uint32_t> a32(std::byte* base, std::size_t off) {
  return std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(base + off));
}

std::uint64_t checked_ring_bytes(std::size_t bytes) {
  SLIPFLOW_REQUIRE_MSG(bytes >= kShmMinRingBytes,
                       "ShmComm ring_bytes must be at least "
                           << kShmMinRingBytes);
  return (bytes + 7u) & ~std::uint64_t{7};
}

/// Pacing of the construction rendezvous: ring creation and attachment
/// are polled by path and by header word, 2 ms apart.
const fdio::Pacing kRingPacing{.pause = 2e-3};

std::string ring_path(const std::string& dir, int src, int dst) {
  return dir + "/ring_" + std::to_string(src) + "to" + std::to_string(dst) +
         ".shm";
}

#if defined(__linux__)
// The futex word is the 32 low-order bits of the ring's u64 head
// counter: every commit advances head by a nonzero amount far below
// 2^32, so the low word changes on every publish and FUTEX_WAIT's
// expected-value check catches any commit that lands between the
// waiter's last drain and its sleep.
std::uint32_t* head_futex_word(std::byte* base) {
  const std::size_t off =
      std::endian::native == std::endian::little ? kOffHead : kOffHead + 4;
  return reinterpret_cast<std::uint32_t*>(base + off);
}

// No glibc wrapper for futex(2); the segments are shared across worker
// processes, so the non-PRIVATE opcodes are required.
long futex_call(std::uint32_t* word, int op, std::uint32_t val,
                const struct timespec* timeout) {
  return ::syscall(SYS_futex, word, op, val, timeout, nullptr, 0);
}
#endif

}  // namespace

ShmComm::ShmComm(const ShmCommConfig& cfg)
    : PeerComm(cfg, "shm"),
      ring_bytes_(checked_ring_bytes(cfg.ring_bytes)),
      session_(cfg.session) {
  SLIPFLOW_REQUIRE_MSG(cfg_.nranks == 1 || !cfg_.dir.empty(),
                       "shm endpoint needs a directory for > 1 rank");
  // On an oversubscribed host (more ranks than cores) each yield donates
  // the core to the peer we are waiting on, so stay in the yield loop
  // much longer before conceding a real sleep — the 200us sleep cliff
  // costs more than the halo round-trip itself.
  spin_limit_ =
      cfg_.nranks <= static_cast<int>(std::thread::hardware_concurrency())
          ? 256
          : 16384;
  in_.resize(static_cast<std::size_t>(cfg_.nranks));
  out_.resize(static_cast<std::size_t>(cfg_.nranks));
  partial_.resize(static_cast<std::size_t>(cfg_.nranks));
  outbox_.resize(static_cast<std::size_t>(cfg_.nranks));
  if (cfg_.nranks > 1) {
    create_inbound_rings();
    open_outbound_rings();
    wait_producers_attached();
  }
  mesh_ready();
}

/// The construction rendezvous (the shm analogue of SocketComm's accept
/// loop): block until every peer has mapped this rank's inbound rings.
/// After this, no peer still needs our segments' directory entries —
/// their mmaps outlive the unlink — so teardown can remove them no
/// matter how early this rank finishes relative to its peers.
void ShmComm::wait_producers_attached() {
  const double deadline = mono_now() + cfg_.connect_timeout;
  for (int src = 0; src < cfg_.nranks; ++src) {
    if (src == cfg_.rank) continue;
    Ring& r = in_[static_cast<std::size_t>(src)];
    fdio::wait_until(
        deadline, kRingPacing,
        [&] {
          return a32(r.base, kOffProducerAttached)
                     .load(std::memory_order_acquire) != 0;
        },
        [&] {
          return "rank " + std::to_string(cfg_.rank) + ": rank " +
                 std::to_string(src) + " never attached to " + r.path +
                 " within " + std::to_string(cfg_.connect_timeout) + "s";
        });
  }
}

void ShmComm::create_inbound_rings() {
  const std::size_t len = kRingDataOffset + ring_bytes_;
  for (int src = 0; src < cfg_.nranks; ++src) {
    if (src == cfg_.rank) continue;
    Ring& r = in_[static_cast<std::size_t>(src)];
    r.path = ring_path(cfg_.dir, src, cfg_.rank);
    // unlink-then-create: a stale segment from a crashed earlier run
    // keeps its old inode (and old session tag), so a producer that
    // mapped it keeps retrying by path until it sees this fresh one.
    ::unlink(r.path.c_str());
    const int fd = ::open(r.path.c_str(), O_CREAT | O_EXCL | O_RDWR | O_CLOEXEC,
                          0600);
    if (fd < 0) throw_errno("open(create " + r.path + ")");
    if (::ftruncate(fd, static_cast<off_t>(len)) < 0) {
      const int err = errno;
      ::close(fd);
      ::unlink(r.path.c_str());
      errno = err;
      throw_errno("ftruncate(" + r.path + ")");
    }
    void* base =
        ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
      ::unlink(r.path.c_str());
      throw_errno("mmap(" + r.path + ")");
    }
    r.base = static_cast<std::byte*>(base);
    r.map_len = len;
    r.cap = ring_bytes_;
    r.pos = 0;
    // Fresh pages are zero; publish session/capacity before the magic so
    // a producer that observes the magic (acquire) sees a complete header.
    a64(r.base, kOffSession).store(session_, std::memory_order_relaxed);
    a64(r.base, kOffCapacity)
        .store(ring_bytes_, std::memory_order_relaxed);
    a64(r.base, kOffMagic).store(kShmMagic, std::memory_order_release);
  }
}

void ShmComm::open_outbound_rings() {
  const std::size_t len = kRingDataOffset + ring_bytes_;
  const double deadline = mono_now() + cfg_.connect_timeout;
  for (int dst = 0; dst < cfg_.nranks; ++dst) {
    if (dst == cfg_.rank) continue;
    Ring& r = out_[static_cast<std::size_t>(dst)];
    r.path = ring_path(cfg_.dir, cfg_.rank, dst);
    // Map the segment once its consumer has created it for this session;
    // a stale or still-initializing segment is a miss.
    const auto attach = [&] {
      const int fd = ::open(r.path.c_str(), O_RDWR | O_CLOEXEC);
      if (fd < 0) return false;
      struct stat st{};
      const bool sized =
          ::fstat(fd, &st) == 0 && st.st_size == static_cast<off_t>(len);
      void* base = sized ? ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                                  MAP_SHARED, fd, 0)
                         : MAP_FAILED;
      ::close(fd);
      if (base == MAP_FAILED) return false;
      std::byte* b = static_cast<std::byte*>(base);
      if (a64(b, kOffMagic).load(std::memory_order_acquire) != kShmMagic ||
          a64(b, kOffSession).load(std::memory_order_relaxed) != session_ ||
          a64(b, kOffCapacity).load(std::memory_order_relaxed) !=
              ring_bytes_) {
        ::munmap(base, len);
        return false;
      }
      r.base = b;
      r.map_len = len;
      r.cap = ring_bytes_;
      r.pos = 0;
      a32(b, kOffProducerAttached).store(1, std::memory_order_release);
      return true;
    };
    fdio::wait_until(deadline, kRingPacing, attach, [&] {
      return "rank " + std::to_string(cfg_.rank) + ": shm ring " + r.path +
             " not available within " +
             std::to_string(cfg_.connect_timeout) + "s";
    });
  }
}

ShmComm::~ShmComm() {
  stop_heartbeat();
  // Best-effort drain of spilled sends so a rank that finishes early
  // does not strand messages its peers still want (eager-send
  // contract); bounded so teardown can never hang.
  try {
    const double deadline = mono_now() + 5.0;
    for (;;) {
      bool pending = false;
      for (int d = 0; d < cfg_.nranks; ++d) {
        if (d == cfg_.rank) continue;
        drain_outbox(d);
        if (!outbox_[static_cast<std::size_t>(d)].empty()) pending = true;
      }
      if (!pending || mono_now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  } catch (...) {
    // teardown must not throw
  }
  for (int p = 0; p < cfg_.nranks; ++p) {
    Ring& o = out_[static_cast<std::size_t>(p)];
    if (o.base != nullptr) {
      a32(o.base, kOffProducerClosed).store(1, std::memory_order_release);
#if defined(__linux__)
      // A consumer parked on this ring must see the closed flag rather
      // than sleep out its timeout; same fence pairing as ring_commit.
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (a32(o.base, kOffConsumerWaiting).load(std::memory_order_relaxed) !=
          0)
        futex_call(head_futex_word(o.base), FUTEX_WAKE, INT_MAX, nullptr);
#endif
      ::munmap(o.base, o.map_len);
      o.base = nullptr;
    }
    Ring& i = in_[static_cast<std::size_t>(p)];
    if (i.base != nullptr) {
      a32(i.base, kOffConsumerClosed).store(1, std::memory_order_release);
      ::munmap(i.base, i.map_len);
      i.base = nullptr;
      ::unlink(i.path.c_str());
    }
  }
}

std::byte* ShmComm::ring_reserve(Ring& r, std::uint64_t frame_bytes,
                                 std::uint64_t& advance) {
  const std::uint64_t h = r.pos;
  const std::uint64_t end = r.cap - (h % r.cap);
  // A frame never wraps: when the space to the ring's end is too small,
  // fill it — with an explicit kPad frame when a header fits, otherwise
  // by the implicit skip rule the consumer applies symmetrically (both
  // sides know end-of-ring remainders under one header are dead space).
  const std::uint64_t pad = end < frame_bytes ? end : 0;
  const std::uint64_t t =
      a64(r.base, kOffTail).load(std::memory_order_acquire);
  if (r.cap - (h - t) < pad + frame_bytes) return nullptr;
  if (pad >= kFrameHeaderBytes) {
    FrameHeader ph;
    ph.kind = FrameKind::kPad;
    ph.src = cfg_.rank;
    ph.count = (pad - kFrameHeaderBytes) / sizeof(double);
    const auto pb = encode_frame_header(ph);
    std::memcpy(r.base + kRingDataOffset + (h % r.cap), pb.data(), pb.size());
  }
  advance = pad + frame_bytes;
  return r.base + kRingDataOffset + ((h + pad) % r.cap);
}

void ShmComm::ring_commit(Ring& r, std::uint64_t advance) {
  r.pos += advance;
  a64(r.base, kOffHead).store(r.pos, std::memory_order_release);
  stats_.bytes_sent += static_cast<long long>(advance);
#if defined(__linux__)
  // Publish-then-check against the waiter's arm-then-recheck: the
  // seq_cst fences on both sides guarantee that either this side sees
  // consumer_waiting set (and wakes) or the consumer's recheck sees the
  // new head (and skips the sleep) — a lost wake is impossible.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  auto waiting = a32(r.base, kOffConsumerWaiting);
  if (waiting.load(std::memory_order_relaxed) != 0) {
    waiting.store(0, std::memory_order_relaxed);
    futex_call(head_futex_word(r.base), FUTEX_WAKE, INT_MAX, nullptr);
  }
#endif
}

bool ShmComm::try_append(int dest, std::uint16_t flags, int tag,
                         std::span<const double> data) {
  Ring& r = out_[static_cast<std::size_t>(dest)];
  const std::uint64_t S = kFrameHeaderBytes + data.size() * sizeof(double);
  std::uint64_t advance = 0;
  std::byte* at = ring_reserve(r, S, advance);
  if (at == nullptr) return false;
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.flags = flags;
  h.src = cfg_.rank;
  h.tag = tag;
  h.count = data.size();
  const auto hb = encode_frame_header(h);
  std::memcpy(at, hb.data(), hb.size());
  if (!data.empty())
    // The payload's only copy: caller's buffer -> mapped ring.
    std::memcpy(at + kFrameHeaderBytes, data.data(),
                data.size() * sizeof(double));
  ring_commit(r, advance);
  return true;
}

bool ShmComm::try_append_raw(int dest, std::span<const std::byte> frame) {
  Ring& r = out_[static_cast<std::size_t>(dest)];
  std::uint64_t advance = 0;
  std::byte* at = ring_reserve(r, frame.size(), advance);
  if (at == nullptr) return false;
  std::memcpy(at, frame.data(), frame.size());
  ring_commit(r, advance);
  return true;
}

void ShmComm::append(int dest, int tag, std::span<const double> data) {
  Ring& r = out_[static_cast<std::size_t>(dest)];
  if (a32(r.base, kOffConsumerClosed).load(std::memory_order_acquire) != 0)
    throw comm_error("rank " + std::to_string(cfg_.rank) + ": send to rank " +
                     std::to_string(dest) + " failed: connection closed");
  // Fragments are bounded by half a ring so any message is deliverable
  // regardless of capacity; all but the last carry the more-fragments
  // flag and reassemble on the receiver.
  const std::size_t max_frag =
      (static_cast<std::size_t>(r.cap) / 2 - kFrameHeaderBytes) /
      sizeof(double);
  auto& spill = outbox_[static_cast<std::size_t>(dest)];
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(data.size() - off, max_frag);
    const bool more = off + n < data.size();
    const std::span<const double> frag = data.subspan(off, n);
    const std::uint16_t flags = more ? kFrameFlagMoreFragments : 0;
    throttle(kFrameHeaderBytes + n * sizeof(double));
    // FIFO: once anything is spilled, everything behind it spills too.
    if (!spill.empty() || !try_append(dest, flags, tag, frag)) {
      FrameHeader h;
      h.kind = FrameKind::kData;
      h.flags = flags;
      h.src = cfg_.rank;
      h.tag = tag;
      h.count = frag.size();
      const auto hb = encode_frame_header(h);
      std::vector<std::byte> bytes(hb.size() + frag.size() * sizeof(double));
      std::memcpy(bytes.data(), hb.data(), hb.size());
      if (!frag.empty())
        std::memcpy(bytes.data() + hb.size(), frag.data(),
                    frag.size() * sizeof(double));
      ++spilled_frames_;
      spilled_bytes_ += static_cast<long long>(bytes.size());
      spill.push_back(std::move(bytes));
    }
    off += n;
  } while (off < data.size());
}

bool ShmComm::drain_outbox(int dest) {
  auto& q = outbox_[static_cast<std::size_t>(dest)];
  if (q.empty()) return false;
  Ring& r = out_[static_cast<std::size_t>(dest)];
  if (a32(r.base, kOffConsumerClosed).load(std::memory_order_acquire) != 0) {
    // The peer is gone; undeliverable output is dropped and the next
    // recv involving this peer reports it (mirrors the socket path).
    q.clear();
    return false;
  }
  bool moved = false;
  while (!q.empty() && try_append_raw(dest, q.front())) {
    q.pop_front();
    moved = true;
  }
  return moved;
}

bool ShmComm::drain_ring(int src) {
  Ring& r = in_[static_cast<std::size_t>(src)];
  if (r.base == nullptr) return false;
  const std::uint64_t h =
      a64(r.base, kOffHead).load(std::memory_order_acquire);
  std::uint64_t t = r.pos;
  // The ring's bytes are the producer's to write, so its head and frame
  // lengths are untrusted: nothing may be read past what it committed
  // or past the ring's end (frames never wrap, see ring_reserve).
  const auto where = [&] {
    return "rank " + std::to_string(cfg_.rank) +
           ": malformed shm ring from rank " + std::to_string(src);
  };
  const auto malformed = [&](const std::string& what) {
    return comm_error(where() + ": " + what);
  };
  if (h - t > r.cap)
    throw malformed("head " + std::to_string(h) + " is more than the ring's " +
                    std::to_string(r.cap) + " bytes past tail " +
                    std::to_string(t));
  bool moved = false;
  while (h - t >= kFrameHeaderBytes) {
    const std::uint64_t end = r.cap - (t % r.cap);
    if (end < kFrameHeaderBytes) {  // implicit end-of-ring skip
      t += end;
      continue;
    }
    std::array<std::byte, kFrameHeaderBytes> hb;
    std::memcpy(hb.data(), r.base + kRingDataOffset + (t % r.cap), hb.size());
    const FrameHeader fh = decode_frame_header(hb, where);
    const std::uint64_t S = kFrameHeaderBytes + fh.count * sizeof(double);
    if (S > h - t || S > end)
      throw malformed("frame of " + std::to_string(S) + " bytes at offset " +
                      std::to_string(t % r.cap) + " exceeds the " +
                      std::to_string(std::min(h - t, end)) +
                      " bytes committed before the ring's end");
    if (fh.kind == FrameKind::kPad) {
      t += S;
      continue;
    }
    if (fh.kind != FrameKind::kData || fh.src != src)
      throw comm_error("rank " + std::to_string(cfg_.rank) +
                       ": unexpected frame from rank " + std::to_string(src));
    // A frame never wraps (see ring_reserve), so the payload is
    // contiguous and 8-aligned in the mapping.
    const double* payload = reinterpret_cast<const double*>(
        r.base + kRingDataOffset + (t % r.cap) + kFrameHeaderBytes);
    Partial& pa = partial_[static_cast<std::size_t>(src)];
    if ((fh.flags & kFrameFlagMoreFragments) != 0) {
      if (!pa.active) {
        pa.active = true;
        pa.tag = fh.tag;
        pa.data.clear();
      } else if (pa.tag != fh.tag) {
        throw comm_error("rank " + std::to_string(cfg_.rank) +
                         ": interleaved fragments from rank " +
                         std::to_string(src));
      }
      pa.data.insert(pa.data.end(), payload, payload + fh.count);
    } else if (pa.active) {
      if (pa.tag != fh.tag)
        throw comm_error("rank " + std::to_string(cfg_.rank) +
                         ": interleaved fragments from rank " +
                         std::to_string(src));
      pa.data.insert(pa.data.end(), payload, payload + fh.count);
      deliver(src, fh.tag, std::move(pa.data));
      pa.active = false;
      pa.data = {};
    } else {
      deliver(src, fh.tag, {payload, payload + fh.count});
    }
    t += S;
    moved = true;
  }
  if (t != r.pos) {
    stats_.bytes_received += static_cast<long long>(t - r.pos);
    r.pos = t;
    a64(r.base, kOffTail).store(t, std::memory_order_release);
  }
  return moved;
}

/// Arm the consumer_waiting flag on the inbound ring from `src` and
/// park in FUTEX_WAIT on its head word. The arm-then-recheck sequence
/// (seq_cst fence between) pairs with ring_commit's publish-then-check,
/// so a commit racing with the arm either aborts the sleep here or
/// triggers a wake there. The sleep is additionally bounded (50 ms cap
/// under max_wait_seconds) so fault-injected stalls and missed close
/// edges degrade to a short poll, never a hang.
bool ShmComm::futex_wait_ring(int src, double max_wait_seconds) {
#if defined(__linux__)
  Ring& r = in_[static_cast<std::size_t>(src)];
  if (r.base == nullptr) return false;
  auto waiting = a32(r.base, kOffConsumerWaiting);
  waiting.store(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::uint64_t h =
      a64(r.base, kOffHead).load(std::memory_order_acquire);
  if (h != r.pos ||
      a32(r.base, kOffProducerClosed).load(std::memory_order_acquire) != 0) {
    waiting.store(0, std::memory_order_relaxed);
    return true;  // raced with a commit or a close — go drain instead
  }
  const double bound = std::min(max_wait_seconds, 0.05);
  struct timespec ts{};
  ts.tv_nsec = static_cast<long>(std::max(bound, 0.0) * 1e9);
  ++futex_waits_;
  // Expected value = the head low word we just verified; a commit that
  // slips in before the kernel's own recheck makes this return EAGAIN.
  futex_call(head_futex_word(r.base), FUTEX_WAIT,
             static_cast<std::uint32_t>(h), &ts);
  waiting.store(0, std::memory_order_relaxed);
  return true;
#else
  (void)src;
  (void)max_wait_seconds;
  return false;
#endif
}

void ShmComm::progress(double max_wait_seconds, int src_hint) {
  auto pass = [this] {
    bool moved = false;
    for (int p = 0; p < cfg_.nranks; ++p) {
      if (p == cfg_.rank) continue;
      if (drain_outbox(p)) moved = true;
      if (drain_ring(p)) moved = true;
    }
    return moved;
  };
  if (pass() || max_wait_seconds <= 0.0) return;
  // Spin-then-futex: the halo exchange's latencies are microseconds, so
  // burn yields (spin_limit_, tuned in the constructor for the host's
  // core count) before conceding a real sleep. A caller blocked on one
  // specific ring (src_hint) with no spilled sends pending parks in
  // futex(2) and is woken by that producer's next commit — for such
  // waits the yield phase is additionally time-capped (a busy host can
  // stretch each yield to a scheduling quantum, and past a couple of
  // milliseconds the wake-on-commit park is strictly cheaper than more
  // yielding). Everyone else falls back to the short timed sleep so
  // outbox retries keep flowing.
  const double start = mono_now();
  const double deadline = start + max_wait_seconds;
  const double yield_deadline = start + 0.002;
  const bool hinted = src_hint >= 0 && src_hint != cfg_.rank;
  int spins = 0;
  for (;;) {
    if (pass()) return;
    const double now = mono_now();
    if (now >= deadline) return;
    bool spill_pending = false;
    for (const auto& q : outbox_)
      if (!q.empty()) {
        spill_pending = true;
        break;
      }
    const bool may_park = hinted && !spill_pending;
    if (++spins < spin_limit_ && !(may_park && now >= yield_deadline)) {
      std::this_thread::yield();
      continue;
    }
    if (!may_park || !futex_wait_ring(src_hint, deadline - now))
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

bool ShmComm::peer_closed(int src) const {
  const Ring& r = in_[static_cast<std::size_t>(src)];
  if (r.base == nullptr) return false;
  if (a32(r.base, kOffProducerClosed).load(std::memory_order_acquire) == 0)
    return false;
  // Closed AND fully drained: the producer's final messages still count.
  return a64(r.base, kOffHead).load(std::memory_order_acquire) == r.pos;
}

ShmStats ShmComm::stats() const {
  ShmStats s;
  static_cast<PeerStats&>(s) = PeerComm::stats();
  s.spilled_frames = spilled_frames_;
  s.spilled_bytes = spilled_bytes_;
  s.futex_waits = futex_waits_;
  return s;
}

void ShmComm::publish_stats() {
  PeerComm::publish_stats();
  if (cfg_.metrics == nullptr) return;
  publish("spilled_frames", static_cast<double>(spilled_frames_));
  publish("spilled_bytes", static_cast<double>(spilled_bytes_));
  publish("futex_waits", static_cast<double>(futex_waits_));
}

// ---------------------------------------------------------------------------
// Harnesses.

bool shm_dir_usable(const std::string& dir) {
  const std::string path =
      dir + "/.shm_probe." + std::to_string(::getpid());
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_RDWR | O_CLOEXEC,
                        0600);
  if (fd < 0) return false;
  bool ok = false;
  if (::ftruncate(fd, 4096) == 0) {
    void* base =
        ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (base != MAP_FAILED) {
      auto* p = static_cast<std::uint64_t*>(base);
      *p = kShmMagic;
      ok = *p == kShmMagic;
      ::munmap(base, 4096);
    }
  }
  ::close(fd);
  ::unlink(path.c_str());
  return ok;
}

std::uint64_t fresh_session() {
  static std::atomic<std::uint64_t> counter{0};
  return (static_cast<std::uint64_t>(::getpid()) << 32) ^
         // det-lint: allow(wall-clock): session-uniqueness tag for ring
         // segment naming — an identifier, never a simulated value.
         static_cast<std::uint64_t>(
             std::chrono::steady_clock::now().time_since_epoch().count()) ^
         counter.fetch_add(1, std::memory_order_relaxed);
}

void run_ranks_shm(int nranks, const std::function<void(Communicator&)>& fn,
                   const ShmRunOptions& opts) {
  const HarnessDir dir(opts.dir, nranks);
  const std::vector<PeerCommConfig> cfgs =
      harness_configs(nranks, dir.path(), opts);
  const std::uint64_t session = fresh_session();
  run_rank_threads(
      nranks,
      [&](int r) {
        return std::make_unique<ShmComm>(ShmCommConfig{
            cfgs[static_cast<std::size_t>(r)], opts.ring_bytes, session});
      },
      fn);
}

}  // namespace slipflow::transport
