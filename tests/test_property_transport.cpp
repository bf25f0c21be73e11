// Transport stress tests: randomized message storms with verifiable
// content, exercising FIFO ordering, tag isolation and collective
// interleaving under concurrency — over the thread, socket and shm
// backends, each with its ranks on threads of the test process.

#include <gtest/gtest.h>

#include <map>

#include "transport_backends.hpp"
#include "util/rng.hpp"

using namespace slipflow::transport;
using namespace slipflow::transport::backend_testing;
using slipflow::util::Rng;

namespace {

struct Send {
  int src, dst, tag;
  double payload;
};

/// Deterministic schedule every rank can reconstruct: who sends what to
/// whom, in per-sender order.
std::vector<Send> make_schedule(std::uint64_t seed, int ranks, int count) {
  Rng rng(seed);
  std::vector<Send> s;
  s.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Send m;
    m.src = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    m.dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(ranks)));
    m.tag = 100 + static_cast<int>(rng.below(4));
    m.payload = rng.uniform(0.0, 1e6);
    s.push_back(m);
  }
  return s;
}

}  // namespace

class TransportStorm : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(ConcurrentBackends, TransportStorm,
                         ::testing::Values(Backend::kThread, Backend::kSocket,
                                           Backend::kShm),
                         [](const auto& pinfo) {
                           return backend_name(pinfo.param);
                         });

TEST_P(TransportStorm, RandomTrafficDeliversInFifoOrderPerChannel) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const int ranks = 5;
    const auto schedule = make_schedule(seed, ranks, 400);
    run_backend(GetParam(), ranks, [&](Communicator& c) {
      // send my messages in schedule order
      for (const Send& m : schedule) {
        if (m.src != c.rank()) continue;
        c.send(m.dst, m.tag, std::vector<double>{m.payload});
      }
      // receive everything addressed to me, matching per (src, tag) FIFO
      for (const Send& m : schedule) {
        if (m.dst != c.rank()) continue;
        const auto got = c.recv(m.src, m.tag);
        ASSERT_EQ(got.size(), 1u);
        ASSERT_DOUBLE_EQ(got[0], m.payload)
            << "src=" << m.src << " tag=" << m.tag;
      }
    });
  }
}

TEST_P(TransportStorm, LargePayloadsSurviveIntact) {
  // 100k doubles = 800 KB per message — far beyond any kernel socket
  // buffer, so the socket backend must buffer and stream.
  run_backend(GetParam(), 3, [](Communicator& c) {
    const int peer = (c.rank() + 1) % 3;
    std::vector<double> big(100000);
    for (std::size_t i = 0; i < big.size(); ++i)
      big[i] = c.rank() * 1e6 + static_cast<double>(i);
    c.send(peer, 1, big);
    const auto got = c.recv((c.rank() + 2) % 3, 1);
    ASSERT_EQ(got.size(), big.size());
    const double base = ((c.rank() + 2) % 3) * 1e6;
    for (std::size_t i = 0; i < got.size(); i += 997)
      ASSERT_DOUBLE_EQ(got[i], base + static_cast<double>(i));
  });
}

TEST_P(TransportStorm, CollectivesInterleavedWithPointToPoint) {
  run_backend(GetParam(), 4, [](Communicator& c) {
    for (int round = 0; round < 25; ++round) {
      const int peer = (c.rank() + 1) % 4;
      c.send(peer, 7, std::vector<double>{static_cast<double>(round)});
      const double mine = c.rank() + 10.0 * round;
      const auto all = c.allgather(std::span<const double>(&mine, 1));
      for (int r = 0; r < 4; ++r)
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(r)], r + 10.0 * round);
      const auto got = c.recv((c.rank() + 3) % 4, 7);
      ASSERT_DOUBLE_EQ(got[0], round);
      ASSERT_DOUBLE_EQ(c.allreduce_sum(1.0), 4.0);
    }
  });
}

TEST_P(TransportStorm, ManyRanksBarrierHammer) {
  run_backend(GetParam(), 8, [](Communicator& c) {
    for (int i = 0; i < 200; ++i) c.barrier();
    const double v = static_cast<double>(c.rank());
    ASSERT_DOUBLE_EQ(c.allreduce_max(v), 7.0);
  });
}

TEST_P(TransportStorm, RepeatedSessionsAreIndependent) {
  const int sessions = GetParam() == Backend::kSocket ? 3 : 10;
  for (int session = 0; session < sessions; ++session) {
    run_backend(GetParam(), 3, [session](Communicator& c) {
      const double v = session * 100.0 + c.rank();
      const auto all = c.allgather(std::span<const double>(&v, 1));
      for (int r = 0; r < 3; ++r)
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(r)],
                         session * 100.0 + r);
    });
  }
}
