// Transport layer: MPI-semantics message passing over every backend.
//
// The parameterized suite runs each contract test over SerialComm,
// ThreadComm (threads-as-ranks over in-process inboxes), SocketComm
// (threaded endpoints over Unix-domain sockets) and ShmComm (threaded
// endpoints over mmap'd rings). Every backend runs in the test process,
// so the whole matrix runs under ThreadSanitizer. Thread-only behaviors
// (shared-memory visibility, failure propagation through run_ranks) keep
// their own non-parameterized tests below.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "transport/collectives.hpp"
#include "transport_backends.hpp"

using namespace slipflow::transport;
using namespace slipflow::transport::backend_testing;

class TransportSuite : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, TransportSuite,
                         ::testing::Values(Backend::kSerial, Backend::kThread,
                                           Backend::kSocket, Backend::kShm),
                         [](const auto& pinfo) {
                           return backend_name(pinfo.param);
                         });

TEST_P(TransportSuite, RankAndSizeAreCorrect) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(4);
  run_backend(GetParam(), 4, [](Communicator& c) {
    EXPECT_EQ(c.size(), 4);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 4);
    // every rank contributes exactly its id — verified in-rank
    const double mine = static_cast<double>(c.rank());
    const auto all = c.allgather(std::span<const double>(&mine, 1));
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], static_cast<double>(r));
  });
}

TEST_P(TransportSuite, PointToPointDelivers) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      const std::vector<double> msg{1.0, 2.0, 3.0};
      c.send(1, 42, msg);
    } else {
      const auto got = c.recv(0, 42);
      EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
    }
  });
}

TEST_P(TransportSuite, MessagesDoNotOvertake) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  // FIFO per (src, dst, tag) — MPI's non-overtaking guarantee.
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      for (double v = 0; v < 50; ++v)
        c.send(1, 7, std::vector<double>{v});
    } else {
      for (double v = 0; v < 50; ++v)
        EXPECT_EQ(c.recv(0, 7)[0], v);
    }
  });
}

TEST_P(TransportSuite, TagsAreIndependentChannels) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 1, std::vector<double>{1.0});
      c.send(1, 2, std::vector<double>{2.0});
    } else {
      // receive in the opposite order of sending
      EXPECT_EQ(c.recv(0, 2)[0], 2.0);
      EXPECT_EQ(c.recv(0, 1)[0], 1.0);
    }
  });
}

TEST_P(TransportSuite, SelfSendWorks) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(3);
  run_backend(GetParam(), 3, [](Communicator& c) {
    c.send(c.rank(), 5, std::vector<double>{static_cast<double>(c.rank())});
    EXPECT_EQ(c.recv(c.rank(), 5)[0], static_cast<double>(c.rank()));
  });
}

TEST_P(TransportSuite, NeighborExchangePattern) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(5);
  // the runner's send-both-then-recv-both halo pattern must not deadlock
  const int n = 5;
  run_backend(GetParam(), n, [n](Communicator& c) {
    const int l = (c.rank() + n - 1) % n;
    const int r = (c.rank() + 1) % n;
    const std::vector<double> mine{static_cast<double>(c.rank())};
    c.send(r, 1, mine);
    c.send(l, 2, mine);
    EXPECT_EQ(c.recv(l, 1)[0], static_cast<double>(l));
    EXPECT_EQ(c.recv(r, 2)[0], static_cast<double>(r));
  });
}

TEST_P(TransportSuite, BarrierThenMessageOrder) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(4);
  // A message sent before a barrier is receivable after it on all
  // backends (in-rank formulation of the synchronization property).
  run_backend(GetParam(), 4, [](Communicator& c) {
    const int peer = (c.rank() + 1) % c.size();
    c.send(peer, 3, std::vector<double>{static_cast<double>(c.rank())});
    c.barrier();
    const int from = (c.rank() + c.size() - 1) % c.size();
    EXPECT_EQ(c.recv(from, 3)[0], static_cast<double>(from));
  });
}

TEST_P(TransportSuite, AllgatherOrdersByRank) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(4);
  run_backend(GetParam(), 4, [](Communicator& c) {
    const double mine[2] = {static_cast<double>(c.rank()),
                            static_cast<double>(c.rank() * 10)};
    const auto all = c.allgather(std::span<const double>(mine, 2));
    ASSERT_EQ(all.size(), 8u);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[2 * static_cast<std::size_t>(r)], r);
      EXPECT_EQ(all[2 * static_cast<std::size_t>(r) + 1], r * 10);
    }
  });
}

TEST_P(TransportSuite, AllgatherHandlesNonPowerOfTwoRanks) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(5);
  // The socket backend's binomial trees must be exact for ragged fan-in.
  run_backend(GetParam(), 5, [](Communicator& c) {
    const double mine = 1000.0 + c.rank();
    const auto all = c.allgather(std::span<const double>(&mine, 1));
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], 1000.0 + r);
  });
}

TEST_P(TransportSuite, RepeatedCollectivesKeepGenerations) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(3);
  run_backend(GetParam(), 3, [](Communicator& c) {
    for (int round = 0; round < 20; ++round) {
      const double v = c.rank() + 100.0 * round;
      const auto all = c.allgather(std::span<const double>(&v, 1));
      for (int r = 0; r < 3; ++r)
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 100.0 * round);
    }
  });
}

TEST_P(TransportSuite, AllreduceSum) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(5);
  run_backend(GetParam(), 5, [](Communicator& c) {
    const double s = c.allreduce_sum(static_cast<double>(c.rank()));
    EXPECT_DOUBLE_EQ(s, 0 + 1 + 2 + 3 + 4);
  });
}

TEST_P(TransportSuite, AllreduceMax) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(5);
  run_backend(GetParam(), 5, [](Communicator& c) {
    const double m = c.allreduce_max(static_cast<double>(c.rank() * 2));
    EXPECT_DOUBLE_EQ(m, 8.0);
  });
}

TEST_P(TransportSuite, VectorAllreduceSumMatchesScalar) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(4);
  run_backend(GetParam(), 4, [](Communicator& c) {
    const double mine[3] = {static_cast<double>(c.rank()),
                            0.125 * c.rank(),  // exact in binary
                            static_cast<double>(c.rank() * c.rank())};
    const std::vector<double> sums =
        c.allreduce_sum(std::span<const double>(mine, 3));
    ASSERT_EQ(sums.size(), 3u);
    // byte-identical to the scalar reduction of each element
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(sums[static_cast<std::size_t>(i)], c.allreduce_sum(mine[i]));
    EXPECT_EQ(sums[0], 6.0);
    EXPECT_EQ(sums[1], 0.75);
    EXPECT_EQ(sums[2], 14.0);
  });
}

TEST_P(TransportSuite, SingleRankDegenerate) {
  run_backend(GetParam(), 1, [](Communicator& c) {
    EXPECT_EQ(c.size(), 1);
    c.barrier();
    const double v = 3.0;
    EXPECT_EQ(c.allgather(std::span<const double>(&v, 1)),
              std::vector<double>{3.0});
    const double xs[2] = {1.0, 2.0};
    EXPECT_EQ(c.allreduce_sum(std::span<const double>(xs, 2)),
              (std::vector<double>{1.0, 2.0}));
  });
}

TEST_P(TransportSuite, EmptyMessagesAreLegal) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) c.send(1, 9, std::vector<double>{});
    if (c.rank() == 1) {
      EXPECT_TRUE(c.recv(0, 9).empty());
    }
    const auto all = c.allgather(std::span<const double>{});
    EXPECT_TRUE(all.empty());
  });
}

TEST_P(TransportSuite, RecvTimeoutNamesPendingSourceAndTag) {
  if (GetParam() == Backend::kSerial)
    GTEST_SKIP() << "SerialComm fails empty recvs eagerly (contract_error)";
  CommOptions opts;
  opts.recv_timeout = 0.4;
  run_backend(
      GetParam(), 2,
      [](Communicator& c) {
        if (c.rank() == 1) {
          try {
            c.recv(0, 77);
            ADD_FAILURE() << "recv of a never-sent message must time out";
          } catch (const comm_timeout& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("src=0"), std::string::npos) << msg;
            EXPECT_NE(msg.find("tag=77"), std::string::npos) << msg;
          }
        } else {
          // outlive rank 1's timeout so the socket backend reports a
          // timeout, not a closed connection
          std::this_thread::sleep_for(std::chrono::milliseconds(900));
        }
      },
      opts);
}

// --- Nonblocking point-to-point (isend / irecv handles) ---

TEST_P(TransportSuite, IsendIrecvDelivers) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.isend(1, 7, std::vector<double>{1.5, 2.5});
    } else {
      auto h = c.irecv(0, 7);
      EXPECT_EQ(h->wait(), (std::vector<double>{1.5, 2.5}));
    }
  });
}

TEST_P(TransportSuite, IsendCopiesThePayloadEagerly) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  // The staging contract RingExchanger relies on: the buffer handed to
  // isend may be reused the moment the call returns.
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<double> buf{10.0, 20.0};
      c.isend(1, 1, buf);
      buf.assign({-1.0, -2.0});  // must not retroactively alter message 1
      c.isend(1, 2, buf);
    } else {
      EXPECT_EQ(c.irecv(0, 1)->wait(), (std::vector<double>{10.0, 20.0}));
      EXPECT_EQ(c.irecv(0, 2)->wait(), (std::vector<double>{-1.0, -2.0}));
    }
  });
}

TEST_P(TransportSuite, IrecvHandlesCompleteOutOfPostOrder) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  // Waiting on the later-posted handle first must not deadlock or
  // misdeliver: each handle owns its (src, tag) channel independently.
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.isend(1, 11, std::vector<double>{11.0});
      c.isend(1, 22, std::vector<double>{22.0});
    } else {
      auto first = c.irecv(0, 11);
      auto second = c.irecv(0, 22);
      EXPECT_EQ(second->wait(), std::vector<double>{22.0});
      EXPECT_EQ(first->wait(), std::vector<double>{11.0});
    }
  });
}

TEST_P(TransportSuite, IrecvTestBeforeArrivalIsFalseThenSticky) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  if (GetParam() == Backend::kSerial)
    GTEST_SKIP() << "single rank cannot have a not-yet-sent remote message";
  // Go-message choreography removes the race: rank 0 does not send the
  // payload until rank 1 has already observed test() == false.
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      c.recv(1, 100);  // the go signal
      c.isend(1, 55, std::vector<double>{5.0, 5.0});
    } else {
      auto h = c.irecv(0, 55);
      EXPECT_FALSE(h->test());  // nothing was sent yet
      c.send(0, 100, std::vector<double>{});
      while (!h->test())  // poll until the frame lands
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      EXPECT_TRUE(h->test());  // completion is sticky
      EXPECT_EQ(h->wait(), (std::vector<double>{5.0, 5.0}));
    }
  });
}

TEST_P(TransportSuite, IrecvSameTagPreservesFifo) {
  SLIPFLOW_SKIP_IF_UNSUPPORTED(2);
  run_backend(GetParam(), 2, [](Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 3; ++i)
        c.isend(1, 4, std::vector<double>{static_cast<double>(i)});
    } else {
      EXPECT_EQ(c.irecv(0, 4)->wait(), std::vector<double>{0.0});
      EXPECT_EQ(c.irecv(0, 4)->wait(), std::vector<double>{1.0});
      // mixing with blocking recv keeps the same queue
      EXPECT_EQ(c.recv(0, 4), std::vector<double>{2.0});
    }
  });
}

TEST_P(TransportSuite, IrecvWaitTimeoutNamesPendingSourceAndTag) {
  if (GetParam() == Backend::kSerial)
    GTEST_SKIP() << "SerialComm fails empty recvs eagerly (contract_error)";
  CommOptions opts;
  opts.recv_timeout = 0.4;
  run_backend(
      GetParam(), 2,
      [](Communicator& c) {
        if (c.rank() == 1) {
          auto h = c.irecv(0, 78);
          try {
            h->wait();
            ADD_FAILURE() << "wait() on a never-sent message must time out";
          } catch (const comm_timeout& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("src=0"), std::string::npos) << msg;
            EXPECT_NE(msg.find("tag=78"), std::string::npos) << msg;
          }
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(900));
        }
      },
      opts);
}

TEST(SerialCommNonblocking, SelfIsendIrecvRoundTrip) {
  SerialComm c;
  auto pending = c.irecv(0, 6);
  EXPECT_FALSE(pending->test());
  c.isend(0, 6, std::vector<double>{3.0});
  EXPECT_TRUE(pending->test());
  EXPECT_EQ(pending->wait(), std::vector<double>{3.0});
  // draining an empty mailbox through wait() keeps the eager diagnostic
  EXPECT_THROW(c.irecv(0, 6)->wait(), slipflow::contract_error);
}

// --- Thread-backend-only behaviors (shared-memory state, peer death) ---

TEST(ThreadComm, BarrierSynchronizes) {
  std::atomic<int> before{0}, after{0};
  run_ranks(4, [&](Communicator& c) {
    before.fetch_add(1);
    c.barrier();
    // everyone must have incremented before anyone proceeds
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(ThreadComm, ExceptionInOneRankPropagates) {
  try {
    run_ranks(3, [](Communicator& c) {
      if (c.rank() == 1) throw std::runtime_error("rank 1 died");
      // other ranks block on a message that never comes; rank 1's closed
      // endpoint must wake them instead of deadlocking the join
      c.recv((c.rank() + 1) % 3, 99);
    });
    ADD_FAILURE() << "rank 1's exception must propagate";
  } catch (const std::exception& e) {
    // the root cause wins over the "closed" errors it set off
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
}

TEST(ThreadComm, ReturnedPeerSurfacesAsNamedClosedError) {
  // Rank 1 returns without sending; rank 0's recv must fail at once with
  // the core's named closed-connection error, not wait out the timeout.
  CommOptions opts;
  opts.recv_timeout = 5.0;
  try {
    run_ranks(
        2,
        [](Communicator& c) {
          if (c.rank() == 1) return;
          c.recv(1, 7);
        },
        opts);
    ADD_FAILURE() << "recv from a departed peer must fail";
  } catch (const comm_timeout& e) {
    ADD_FAILURE() << "timed out instead of reporting the close: " << e.what();
  } catch (const comm_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("connection to rank 1 closed"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("(src=1, tag=7)"), std::string::npos) << msg;
  }
}

TEST(GatherTree, ForgedFramesAreNamedPeerErrors) {
  // A gather-tree frame is the sending peer's bytes: an empty frame, a
  // count beyond the frame, a rank out of range or a NaN count must be
  // reported as that peer's comm_error, never read past the frame or
  // fail a contract check.
  const std::vector<std::vector<double>> forged = {
      {},
      {2.0, 0.0},
      {1.0, 7.0, 0.0},
      {std::numeric_limits<double>::quiet_NaN()}};
  run_ranks(2, [&forged](Communicator& c) {
    if (c.rank() == 1) {
      for (const std::vector<double>& f : forged)
        c.send(0, kTagGatherTree, f);
      return;
    }
    const double mine = 0.0;
    for (std::size_t i = 0; i < forged.size(); ++i) {
      try {
        (void)binomial_allgather(c, std::span<const double>(&mine, 1));
        ADD_FAILURE() << "forged frame " << i << " was accepted";
      } catch (const comm_error& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("from rank 1"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(kTagGatherTree)), std::string::npos)
            << msg;
      }
    }
  });
}

TEST(ThreadComm, InvalidDestinationRejected) {
  EXPECT_THROW(run_ranks(2,
                         [](Communicator& c) {
                           c.send(5, 1, std::vector<double>{1.0});
                         }),
               slipflow::contract_error);
}

TEST(ThreadComm, TimeoutDoesNotFireWhenMessagesFlow) {
  CommOptions opts;
  opts.recv_timeout = 5.0;
  run_ranks(
      2,
      [](Communicator& c) {
        for (int i = 0; i < 100; ++i) {
          if (c.rank() == 0)
            c.send(1, 1, std::vector<double>{static_cast<double>(i)});
          else
            EXPECT_EQ(c.recv(0, 1)[0], static_cast<double>(i));
        }
      },
      opts);
}

TEST(SerialComm, SelfMessagingAndCollectives) {
  SerialComm c;
  EXPECT_EQ(c.rank(), 0);
  EXPECT_EQ(c.size(), 1);
  c.send(0, 3, std::vector<double>{4.0, 5.0});
  EXPECT_EQ(c.recv(0, 3), (std::vector<double>{4.0, 5.0}));
  const double v = 2.0;
  EXPECT_EQ(c.allgather(std::span<const double>(&v, 1)),
            std::vector<double>{2.0});
  EXPECT_DOUBLE_EQ(c.allreduce_sum(7.0), 7.0);
  EXPECT_DOUBLE_EQ(c.allreduce_max(7.0), 7.0);
}

TEST(SerialComm, EmptyMailboxRecvThrowsInsteadOfDeadlocking) {
  SerialComm c;
  EXPECT_THROW(c.recv(0, 1), slipflow::contract_error);
}
