// SocketComm specifics: the wire format, the buffered progress engine
// under pressure, and the deterministic fault-injection layer. Every
// multi-rank body runs in forked child processes (run_ranks_sockets), so
// all assertions are made in-rank.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "transport/frame.hpp"
#include "transport/socket_comm.hpp"

using namespace slipflow::transport;

namespace {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SocketComm& as_socket(Communicator& c) {
  auto* s = dynamic_cast<SocketComm*>(&c);
  if (s == nullptr) throw std::runtime_error("not a SocketComm endpoint");
  return *s;
}

}  // namespace

// --- frame codec ---

TEST(Frame, HeaderRoundTripsAllFields) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.src = 1234;
  h.tag = -101;  // internal collective tags are negative
  h.count = (1ull << 20) + 7;
  const auto bytes = encode_frame_header(h);
  const FrameHeader back = decode_frame_header(bytes);
  EXPECT_EQ(back.kind, FrameKind::kData);
  EXPECT_EQ(back.src, 1234);
  EXPECT_EQ(back.tag, -101);
  EXPECT_EQ(back.count, (1ull << 20) + 7);
  EXPECT_EQ(back.magic, kFrameMagic);
}

TEST(Frame, RejectsBadMagic) {
  auto bytes = encode_frame_header(FrameHeader{});
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(decode_frame_header(bytes), comm_error);
}

TEST(Frame, RejectsUnknownKind) {
  auto bytes = encode_frame_header(FrameHeader{});
  const std::uint16_t bad = 99;
  std::memcpy(bytes.data() + 4, &bad, 2);
  EXPECT_THROW(decode_frame_header(bytes), comm_error);
}

TEST(Frame, RejectsImplausiblePayloadLength) {
  FrameHeader h;
  h.count = kMaxFrameDoubles + 1;
  const auto bytes = encode_frame_header(h);
  EXPECT_THROW(decode_frame_header(bytes), comm_error);
}

// --- stream demultiplexing ---

TEST(SocketComm, OutOfOrderTagDelivery) {
  run_ranks_sockets(2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<double>{1.0});
      c.send(1, 2, std::vector<double>{2.0});
      c.send(1, 3, std::vector<double>{3.0});
      c.barrier();
    } else {
      // drain the single stream against tag order
      EXPECT_EQ(c.recv(0, 3)[0], 3.0);
      EXPECT_EQ(c.recv(0, 1)[0], 1.0);
      EXPECT_EQ(c.recv(0, 2)[0], 2.0);
      c.barrier();
    }
  });
}

TEST(SocketComm, PayloadBeyond64KiBRoundTrips) {
  // 2^17 doubles = 1 MiB, split across many reads/writes by the kernel.
  run_ranks_sockets(2, [](Communicator& c) {
    std::vector<double> big(1 << 17);
    for (std::size_t i = 0; i < big.size(); ++i)
      big[i] = static_cast<double>(i) * 0.5 + c.rank();
    c.send(1 - c.rank(), 4, big);
    const auto got = c.recv(1 - c.rank(), 4);
    ASSERT_EQ(got.size(), big.size());
    const double base = 1.0 - c.rank();
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], static_cast<double>(i) * 0.5 + base);
  });
}

TEST(SocketComm, BidirectionalFloodDoesNotDeadlock) {
  // Both ranks push ~1.6 MB before either receives: with blocking sends
  // this wedges on full kernel buffers; the eager outbox must absorb it.
  run_ranks_sockets(2, [](Communicator& c) {
    const int peer = 1 - c.rank();
    std::vector<double> chunk(1024, static_cast<double>(c.rank()));
    for (int i = 0; i < 200; ++i) {
      chunk[0] = static_cast<double>(i);
      c.send(peer, 6, chunk);
    }
    for (int i = 0; i < 200; ++i) {
      const auto got = c.recv(peer, 6);
      ASSERT_EQ(got.size(), chunk.size());
      ASSERT_EQ(got[0], static_cast<double>(i));
      ASSERT_EQ(got[1], static_cast<double>(peer));
    }
  });
}

// --- fault injection ---

TEST(SocketComm, DroppedFrameYieldsNamedTimeoutNotHang) {
  PeerRunOptions opts;
  opts.comm.recv_timeout = 0.5;
  opts.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) {
      f.drop_dest = 1;
      f.drop_tag = 5;
      f.drop_count = 1;
    }
    return f;
  };
  run_ranks_sockets(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          c.send(1, 5, std::vector<double>{42.0});  // dropped on the floor
          EXPECT_EQ(as_socket(c).stats().frames_dropped, 1);
          // outlive the peer's timeout so it reports a timeout, not a
          // closed connection
          std::this_thread::sleep_for(std::chrono::milliseconds(1200));
        } else {
          try {
            c.recv(0, 5);
            ADD_FAILURE() << "dropped frame must surface as comm_timeout";
          } catch (const comm_timeout& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("src=0"), std::string::npos) << msg;
            EXPECT_NE(msg.find("tag=5"), std::string::npos) << msg;
          }
        }
      },
      opts);
}

TEST(SocketComm, DelayFaultStillDelivers) {
  PeerRunOptions opts;
  opts.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) f.send_delay = 0.2;
    return f;
  };
  run_ranks_sockets(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          const double t0 = wall_now();
          c.send(1, 8, std::vector<double>{7.0});
          EXPECT_GE(wall_now() - t0, 0.15);
          c.barrier();
        } else {
          EXPECT_EQ(c.recv(0, 8)[0], 7.0);
          c.barrier();
        }
      },
      opts);
}

TEST(SocketComm, ThrottleFaultSlowsButDelivers) {
  PeerRunOptions opts;
  opts.faults = [](int rank) {
    FaultInjection f;
    if (rank == 0) f.throttle_bytes_per_sec = 1e6;  // burst allowance 100 KB
    return f;
  };
  run_ranks_sockets(
      2,
      [](Communicator& c) {
        if (c.rank() == 0) {
          std::vector<double> big(1 << 16, 1.5);  // 512 KB frame
          const double t0 = wall_now();
          c.send(1, 9, big);
          // ~(512 KB - 100 KB burst) / 1 MB/s ≈ 0.4 s of token wait
          EXPECT_GE(wall_now() - t0, 0.25);
          EXPECT_GT(as_socket(c).stats().throttle_wait_seconds, 0.0);
          c.barrier();
        } else {
          const auto got = c.recv(0, 9);
          ASSERT_EQ(got.size(), static_cast<std::size_t>(1 << 16));
          EXPECT_EQ(got[123], 1.5);
          c.barrier();
        }
      },
      opts);
}

TEST(SocketComm, KillRankFaultFailsRunWithNamedRank) {
  PeerRunOptions opts;
  opts.comm.recv_timeout = 5.0;
  opts.wall_timeout = 30.0;
  opts.faults = [](int rank) {
    FaultInjection f;
    if (rank == 2) f.kill_at_phase = 5;
    return f;
  };
  try {
    run_ranks_sockets(
        3,
        [](Communicator& c) {
          for (long long p = 1; p <= 100; ++p) {
            c.note_progress(p);  // rank 2 SIGKILLs itself at p == 5
            c.barrier();
          }
        },
        opts);
    FAIL() << "a killed rank must fail the harness";
  } catch (const comm_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 2 killed by signal 9"), std::string::npos)
        << msg;
  }
}

TEST(SocketComm, PeerCleanExitSurfacesAsNamedError) {
  PeerRunOptions opts;
  opts.comm.recv_timeout = 10.0;
  try {
    run_ranks_sockets(
        2,
        [](Communicator& c) {
          if (c.rank() == 1) {
            // rank 0 exits immediately; this recv must fail fast with the
            // peer named — long before the 10 s timeout
            const double t0 = wall_now();
            try {
              c.recv(0, 1);
              ADD_FAILURE() << "recv from an exited peer must throw";
            } catch (const comm_error& e) {
              EXPECT_LT(wall_now() - t0, 5.0);
              const std::string msg = e.what();
              EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
              EXPECT_NE(msg.find("closed"), std::string::npos) << msg;
            }
            throw std::runtime_error("propagate to harness");
          }
        },
        opts);
    FAIL() << "harness must report rank 1's failure";
  } catch (const comm_error&) {
    // expected: rank 1 exited nonzero by design
  }
}

// --- counters ---

TEST(SocketComm, StatsCountMessagesAndBytes) {
  run_ranks_sockets(2, [](Communicator& c) {
    const int peer = 1 - c.rank();
    for (int i = 0; i < 10; ++i)
      c.send(peer, 3, std::vector<double>{static_cast<double>(i)});
    for (int i = 0; i < 10; ++i)
      ASSERT_EQ(c.recv(peer, 3)[0], static_cast<double>(i));
    c.barrier();
    const PeerStats s = as_socket(c).stats();
    EXPECT_GE(s.messages_sent, 10);
    EXPECT_GE(s.messages_received, 10);
    // 10 data frames of 1 double: 10 * (24 + 8) bytes, plus collectives
    EXPECT_GE(s.bytes_sent, 320);
    EXPECT_GE(s.bytes_received, 320);
    EXPECT_EQ(s.frames_dropped, 0);
  });
}
