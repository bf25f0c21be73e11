// ShmComm-specific behaviors beyond the cross-backend contract matrix
// (which test_transport.cpp / test_property_transport.cpp already run
// over the Shm backend): ring wrap-around, fragmentation of messages
// larger than the ring, spill-based backpressure, stale-segment
// replacement and cleanup, $TMPDIR-honoring segment paths, named
// closed-peer/drop/hostile-frame diagnostics, stats publication, and the
// threaded harnesses' refusal of kill/stop faults. Every run is threaded
// via run_ranks_shm, so the whole suite runs under ThreadSanitizer; rings
// across real processes and killed ranks are drilled with launched
// workers (test_multiprocess).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "transport/frame.hpp"
#include "transport/shm_comm.hpp"
#include "transport/socket_comm.hpp"
#include "transport/tempdir.hpp"

using namespace slipflow;
using namespace slipflow::transport;

namespace {

ShmRunOptions small_ring(std::size_t ring_bytes) {
  ShmRunOptions o;
  o.ring_bytes = ring_bytes;
  o.comm.recv_timeout = 20.0;  // a wedged test must fail, not hang ctest
  return o;
}

std::vector<double> pattern(std::size_t n, double seed) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = seed + static_cast<double>(i) * 0.5;
  return v;
}

bool exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

TEST(ShmComm, RingWrapAroundPreservesMessageStream) {
  // The minimum ring holds only a couple of frames, so this ping-pong
  // crosses the end-of-ring seam many times with varying frame sizes —
  // exercising both the explicit kPad frames and the implicit skip
  // (remainder smaller than one header).
  run_ranks_shm(
      2,
      [](Communicator& c) {
        for (int i = 0; i < 150; ++i) {
          const auto n = static_cast<std::size_t>(100 + i);
          const std::vector<double> msg = pattern(n, i);
          if (c.rank() == 0) {
            c.send(1, 7, msg);
            EXPECT_EQ(c.recv(1, 8), msg) << "round " << i;
          } else {
            EXPECT_EQ(c.recv(0, 7), msg) << "round " << i;
            c.send(0, 8, msg);
          }
        }
      },
      small_ring(4096));
}

TEST(ShmComm, MessageLargerThanRingIsFragmented) {
  // 5000 doubles ≈ 40 KB through a 4 KB ring: the message must arrive
  // intact via bounded fragments (no frame may exceed half a ring).
  const std::vector<double> big = pattern(5000, 3.0);
  run_ranks_shm(
      2,
      [&big](Communicator& c) {
        if (c.rank() == 0) {
          c.send(1, 4, big);
        } else {
          EXPECT_EQ(c.recv(0, 4), big);
        }
        c.barrier();
      },
      small_ring(4096));
}

TEST(ShmComm, BackpressureSpillsInsteadOfBlockingTheSender) {
  // The receiver sleeps before touching the transport, so nothing
  // consumes the ring while the sender pushes 32 frames that together
  // exceed it many times over. The eager-send contract says every send
  // must still return (spilling to the local outbox), and FIFO order
  // must survive the spill.
  run_ranks_shm(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          for (int i = 0; i < 32; ++i)
            c.send(1, 5, pattern(200, i));
          // All 32 sends returned; with the peer asleep the ring can
          // only have absorbed a couple of them.
          const ShmStats s = dynamic_cast<ShmComm&>(c).stats();
          EXPECT_GT(s.spilled_frames, 0);
          EXPECT_GT(s.spilled_bytes, 0);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(500));
          for (int i = 0; i < 32; ++i)
            EXPECT_EQ(c.recv(0, 5), pattern(200, i)) << "message " << i;
        }
        c.barrier();
      },
      small_ring(4096));
}

namespace {

/// A ring's bytes are its producer's to write. Rank 0 maps its outbound
/// ring behind its endpoint's back and commits the one header `forge`
/// makes for the ring's length; rank 1's recv must reject it with a
/// comm_error containing every string in `expected`.
void expect_forged_header_rejected(
    const std::function<std::array<std::byte, kFrameHeaderBytes>(
        std::size_t ring_len)>& forge,
    const std::vector<std::string>& expected) {
  run_ranks_shm(
      2,
      [&](Communicator& c) {
        auto& shm = dynamic_cast<ShmComm&>(c);
        if (c.rank() == 0) {
          const std::string path = shm.dir() + "/ring_0to1.shm";
          const int fd = ::open(path.c_str(), O_RDWR);
          ASSERT_GE(fd, 0) << path;
          struct stat st{};
          ASSERT_EQ(::fstat(fd, &st), 0);
          const auto len = static_cast<std::size_t>(st.st_size);
          void* map =
              ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
          ::close(fd);
          ASSERT_NE(map, MAP_FAILED);
          auto* base = static_cast<std::byte*>(map);
          const auto header = forge(len);
          std::memcpy(base + 256, header.data(), header.size());  // data[0]
          std::atomic_ref<std::uint64_t>(
              *reinterpret_cast<std::uint64_t*>(base + 64))  // head
              .store(kFrameHeaderBytes, std::memory_order_release);
          // Keep the ring up until rank 1 has judged the frame.
          EXPECT_EQ(c.recv(1, 4), std::vector<double>{1.0});
          ::munmap(map, len);
          return;
        }
        try {
          c.recv(0, 3);
          ADD_FAILURE() << "the forged frame must be rejected";
        } catch (const comm_error& e) {
          const std::string msg = e.what();
          for (const std::string& want : expected)
            EXPECT_NE(msg.find(want), std::string::npos) << msg;
        }
        c.send(0, 4, std::vector<double>{1.0});
      },
      small_ring(4096));
}

}  // namespace

TEST(ShmComm, OversizedRingFrameIsNamedCommError) {
  // One header whose count is larger than the whole ring: rank 1 must
  // reject the frame by name, not copy it out of the mapping.
  expect_forged_header_rejected(
      [](std::size_t len) {
        FrameHeader h;
        h.src = 0;
        h.tag = 3;
        h.count = len / sizeof(double);
        return encode_frame_header(h);
      },
      {"malformed shm ring from rank 0"});
}

TEST(ShmComm, CorruptRingHeaderNamesRankAndPeer) {
  // A header with a bad magic word fails the frame codec itself; the
  // error must still say which rank read it and which peer wrote it.
  expect_forged_header_rejected(
      [](std::size_t) {
        FrameHeader h;
        h.src = 0;
        h.tag = 3;
        auto bytes = encode_frame_header(h);
        bytes[0] = std::byte{0x00};
        return bytes;
      },
      {"rank 1: malformed shm ring from rank 0", "bad magic word"});
}

TEST(ShmComm, SegmentsHonorTmpdir) {
  const std::string tmp = make_socket_temp_dir();
  const char* old = std::getenv("TMPDIR");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("TMPDIR", tmp.c_str(), 1);
  try {
    run_ranks_shm(2, [&tmp](Communicator& c) {
      auto& shm = dynamic_cast<ShmComm&>(c);
      // The harness's fresh directory (tempdir.hpp) lives under TMPDIR,
      // and the live segment files for this rank's inbound rings exist
      // inside it while the communicator is up.
      EXPECT_EQ(shm.dir().rfind(tmp + "/", 0), 0u) << shm.dir();
      const int peer = 1 - c.rank();
      EXPECT_TRUE(exists(shm.dir() + "/ring_" + std::to_string(peer) + "to" +
                         std::to_string(c.rank()) + ".shm"));
      c.barrier();
    });
  } catch (...) {
    if (saved.empty()) ::unsetenv("TMPDIR");
    else ::setenv("TMPDIR", saved.c_str(), 1);
    std::filesystem::remove_all(tmp);
    throw;
  }
  if (saved.empty()) ::unsetenv("TMPDIR");
  else ::setenv("TMPDIR", saved.c_str(), 1);
  std::filesystem::remove_all(tmp);
}

TEST(ShmComm, StaleSegmentsAreReplacedAndCleanedUp) {
  // A crashed earlier run leaves segment files behind. A new launch in
  // the same directory must replace them (unlink-then-create plus the
  // session tag makes a stale mapping unacceptable to producers), and a
  // clean exit must leave no segments at all.
  const std::string dir = make_socket_temp_dir();
  for (const char* name : {"/ring_0to1.shm", "/ring_1to0.shm"}) {
    std::ofstream junk(dir + name, std::ios::binary | std::ios::trunc);
    junk << "stale garbage from a previous crashed run";
  }
  ShmRunOptions o;
  o.comm.recv_timeout = 20.0;
  o.dir = dir;
  run_ranks_shm(
      2,
      [](Communicator& c) {
        const int peer = 1 - c.rank();
        if (c.rank() == 0) c.send(peer, 1, std::vector<double>{42.0});
        if (c.rank() == 1) {
          EXPECT_EQ(c.recv(0, 1), std::vector<double>{42.0});
        }
        c.barrier();
      },
      o);
  for (const char* name : {"/ring_0to1.shm", "/ring_1to0.shm"})
    EXPECT_FALSE(exists(dir + name)) << name;
  std::filesystem::remove_all(dir);
}

TEST(ShmComm, CleanPeerExitSurfacesAsNamedClosedError) {
  // Rank 0 departs without sending; rank 1's recv must fail with the
  // same named "connection closed" diagnostic SocketComm gives, not a
  // timeout and not a hang.
  run_ranks_shm(2, [](Communicator& c) {
    if (c.rank() == 0) return;  // tears the endpoint down immediately
    try {
      c.recv(0, 5);
      ADD_FAILURE() << "recv from a departed peer must fail";
    } catch (const comm_error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("connection to rank 0 closed"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find("(src=0, tag=5)"), std::string::npos) << msg;
    }
  });
}

TEST(ShmComm, DropFaultSurfacesAsNamedTimeout) {
  ShmRunOptions o;
  o.comm.recv_timeout = 0.5;
  o.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) {
      f.drop_dest = 1;
      f.drop_tag = 9;
      f.drop_count = 1;
    }
    return f;
  };
  run_ranks_shm(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          c.send(1, 9, std::vector<double>{1.0});  // silently dropped
          // outlive the peer's timeout so it reports a timeout, not a
          // closed connection
          std::this_thread::sleep_for(std::chrono::milliseconds(900));
        } else {
          try {
            c.recv(0, 9);
            ADD_FAILURE() << "the dropped message must never arrive";
          } catch (const comm_timeout& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("(src=0, tag=9)"), std::string::npos) << msg;
          }
        }
      },
      o);
}

TEST(ShmComm, ThreadedHarnessRejectsKillFaults) {
  // SIGKILL in a threaded harness would take down the whole test
  // process; both process-transport harnesses name the launcher instead,
  // before rank 0 waits out its connect timeout on the faulted rank 1.
  ShmRunOptions o;
  o.faults = [](int rank) {
    FaultInjection f;
    if (rank == 1) f.kill_at_phase = 1;
    return f;
  };
  const std::function<void(const std::function<void(Communicator&)>&)>
      harnesses[] = {
          [&o](const auto& fn) { run_ranks_shm(2, fn, o); },
          [&o](const auto& fn) { run_ranks_sockets(2, fn, o); },
      };
  for (const auto& run : harnesses) {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      run([](Communicator& c) {
        for (long long phase = 1; phase <= 3; ++phase) {
          c.note_progress(phase);
          c.barrier();
        }
      });
      ADD_FAILURE() << "a kill fault must be refused";
    } catch (const contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "runs only in workers started by launch_workers"),
                std::string::npos)
          << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "expected contract_error, got: " << e.what();
    }
    EXPECT_LT(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count(),
              o.connect_timeout / 2);
  }
}

TEST(ShmComm, StatsCountTrafficAndPublishToMetrics) {
  const std::string dir = make_socket_temp_dir();
  obs::MetricsRegistry reg(2);
  auto endpoint = [&](int rank) {
    ShmCommConfig cfg;
    cfg.rank = rank;
    cfg.nranks = 2;
    cfg.dir = dir;
    cfg.comm.recv_timeout = 20.0;
    cfg.session = 42;
    cfg.metrics = &reg;
    ShmComm c(cfg);
    if (rank == 0) c.send(1, 1, pattern(64, 1.0));
    if (rank == 1) {
      EXPECT_EQ(c.recv(0, 1), pattern(64, 1.0));
    }
    c.barrier();
    const ShmStats s = c.stats();
    EXPECT_GT(s.messages_sent, 0);
    EXPECT_GT(s.messages_received, 0);
    EXPECT_GT(s.bytes_sent, 0);
    c.publish_stats();
  };
  std::thread t1([&] { endpoint(1); });
  endpoint(0);
  t1.join();
  EXPECT_GT(reg.counter_total("shm/messages_sent"), 0.0);
  EXPECT_GT(reg.counter_total("shm/bytes_received"), 0.0);
  EXPECT_GE(reg.counter(1, "shm/messages_received"), 1.0);
  std::filesystem::remove_all(dir);
}

TEST(ShmComm, ConnectSecondsGaugeIsPublished) {
  // Each rank publishes how long its endpoint took from construction
  // to a ready mesh, as a gauge in its own shard.
  const std::string dir = make_socket_temp_dir();
  obs::MetricsRegistry reg(2);
  auto endpoint = [&](int rank) {
    ShmCommConfig cfg;
    cfg.rank = rank;
    cfg.nranks = 2;
    cfg.dir = dir;
    cfg.comm.recv_timeout = 20.0;
    cfg.session = 43;
    cfg.metrics = &reg;
    ShmComm c(cfg);
    c.barrier();
    c.publish_stats();
  };
  std::thread t1([&] { endpoint(1); });
  endpoint(0);
  t1.join();
  for (int rank = 0; rank < 2; ++rank) {
    ASSERT_TRUE(reg.has_gauge(rank, "shm/connect_seconds")) << rank;
    const double v = reg.gauge(rank, "shm/connect_seconds");
    EXPECT_TRUE(std::isfinite(v)) << rank;
    EXPECT_GE(v, 0.0) << rank;
  }
  std::filesystem::remove_all(dir);
}

#if defined(__linux__)
TEST(ShmComm, BlockedRecvParksInFutexAndWakesOnCommit) {
  // The receiver blocks well past the spin budget (the sender sits out
  // 200 ms before sending), so the wait must concede at least one
  // futex(2) park — and the sender's commit must wake it promptly
  // enough that the message still arrives.
  run_ranks_shm(2, [](Communicator& c) {
    if (c.rank() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      c.send(1, 7, pattern(32, 2.0));
    } else {
      EXPECT_EQ(c.recv(0, 7), pattern(32, 2.0));
      EXPECT_GT(dynamic_cast<ShmComm&>(c).stats().futex_waits, 0);
    }
    c.barrier();
  });
}
#endif

TEST(ShmComm, DirUsableProbe) {
  const std::string dir = make_socket_temp_dir();
  EXPECT_TRUE(shm_dir_usable(dir));
  EXPECT_FALSE(shm_dir_usable(dir + "/does-not-exist"));
  std::filesystem::remove_all(dir);
}
