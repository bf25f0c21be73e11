// Dynamic remapping in the real parallel runner: plane migration must be
// physics-invariant (fields identical to the sequential reference even
// while planes move between ranks mid-run), and a slowed rank must
// actually shed planes. Every rank times its stages on an injected
// CountingClock, so the balancer's inputs — and hence every migration —
// are a pure function of the call sequence, never of host load.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <mutex>
#include <string>

#include "lbm/observables.hpp"
#include "obs/clock.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;
using slipflow::sim::ParallelLbm;
using slipflow::sim::RunnerConfig;

namespace {

const Extents kGrid{18, 6, 4};

/// `slow_rank` (if any) ticks (1 + slow_factor) times longer than the
/// others: a node left with 1/(1 + slow_factor) of its CPU.
RunnerConfig remap_runner(const std::string& policy, int slow_rank = -1,
                          double slow_factor = 3.0) {
  RunnerConfig cfg;
  cfg.global = kGrid;
  cfg.fluid = FluidParams::microchannel_defaults(0.05, 1.5, 0.03, 1.0, 2e-5);
  cfg.policy = policy;
  cfg.remap_interval = 4;
  cfg.balance.window = 3;
  // one yz-plane of this grid is 24 points
  cfg.balance.min_transfer_points = 24;
  cfg.clock_factory = [slow_rank, slow_factor](int rank) {
    return std::make_shared<obs::CountingClock>(
        rank == slow_rank ? (1.0 + slow_factor) * 1e-3 : 1e-3);
  };
  return cfg;
}

struct Fields {
  std::vector<std::vector<double>> water, air, ux;
};

Fields sequential_fields(int phases, const RunnerConfig& cfg) {
  Simulation sim(kGrid, cfg.fluid);
  sim.initialize_uniform();
  sim.run(phases);
  Fields f;
  for (index_t gx = 0; gx < kGrid.nx; ++gx) {
    f.water.push_back(density_profile_y(sim.slab(), 0, gx, 2));
    f.air.push_back(density_profile_y(sim.slab(), 1, gx, 2));
    f.ux.push_back(velocity_profile_y(sim.slab(), gx, 2));
  }
  return f;
}

struct ParallelOutcome {
  Fields fields;
  std::vector<sim::RankStats> stats;
  long long total_migrated = 0;
};

/// `chunks` > 1 splits the run into that many equal run() calls.
ParallelOutcome run_parallel(int ranks, int phases, const RunnerConfig& cfg,
                             int chunks = 1) {
  ParallelOutcome out;
  out.fields.water.resize(static_cast<std::size_t>(kGrid.nx));
  out.fields.air.resize(static_cast<std::size_t>(kGrid.nx));
  out.fields.ux.resize(static_cast<std::size_t>(kGrid.nx));
  std::mutex mu;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    for (int c = 0; c < chunks; ++c) run.run(phases / chunks);
    auto stats = run.gather_stats();
    for (index_t gx = 0; gx < kGrid.nx; ++gx) {
      auto w = run.gather_density_profile_y(0, gx, 2);
      auto a = run.gather_density_profile_y(1, gx, 2);
      auto u = run.gather_velocity_profile_y(gx, 2);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        const auto i = static_cast<std::size_t>(gx);
        out.fields.water[i] = std::move(w);
        out.fields.air[i] = std::move(a);
        out.fields.ux[i] = std::move(u);
      }
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      out.stats = std::move(stats);
      out.total_migrated = 0;
      for (const auto& s : out.stats) out.total_migrated += s.planes_sent;
    }
  });
  return out;
}

void expect_fields_identical(const Fields& a, const Fields& b) {
  for (std::size_t gx = 0; gx < a.water.size(); ++gx) {
    ASSERT_EQ(a.water[gx].size(), b.water[gx].size());
    for (std::size_t j = 0; j < a.water[gx].size(); ++j) {
      EXPECT_DOUBLE_EQ(a.water[gx][j], b.water[gx][j]) << gx << "," << j;
      EXPECT_DOUBLE_EQ(a.air[gx][j], b.air[gx][j]) << gx << "," << j;
      EXPECT_DOUBLE_EQ(a.ux[gx][j], b.ux[gx][j]) << gx << "," << j;
    }
  }
}

}  // namespace

TEST(ParallelRemap, SlowRankShedsPlanes) {
  const auto cfg = remap_runner("filtered", /*slow_rank=*/1);
  const auto out = run_parallel(3, 60, cfg);
  ASSERT_EQ(out.stats.size(), 3u);
  EXPECT_GT(out.total_migrated, 0);
  // the slowed middle rank ends with fewer planes than the even split (6)
  EXPECT_LT(out.stats[1].planes, 6);
  long long total = 0;
  for (const auto& s : out.stats) total += s.planes;
  EXPECT_EQ(total, kGrid.nx);
}

TEST(ParallelRemap, MigrationIsPhysicsInvariant) {
  // THE key invariant: remapping only moves ownership, never changes the
  // simulated field — parallel-with-migration equals sequential exactly.
  const auto cfg = remap_runner("filtered", /*slow_rank=*/1);
  const auto seq = sequential_fields(60, cfg);
  const auto par = run_parallel(3, 60, cfg);
  EXPECT_GT(par.total_migrated, 0);  // remapping actually happened
  expect_fields_identical(seq, par.fields);
}

TEST(ParallelRemap, ConservativePolicyAlsoInvariant) {
  const auto cfg = remap_runner("conservative", /*slow_rank=*/0);
  const auto seq = sequential_fields(50, cfg);
  const auto par = run_parallel(3, 50, cfg);
  expect_fields_identical(seq, par.fields);
}

TEST(ParallelRemap, GlobalPolicyAlsoInvariant) {
  const auto cfg = remap_runner("global", /*slow_rank=*/2);
  const auto seq = sequential_fields(50, cfg);
  const auto par = run_parallel(3, 50, cfg);
  EXPECT_GT(par.total_migrated, 0);
  expect_fields_identical(seq, par.fields);
}

TEST(ParallelRemap, TwoRanksEndToEnd) {
  const auto cfg = remap_runner("filtered", /*slow_rank=*/0);
  const auto seq = sequential_fields(50, cfg);
  const auto par = run_parallel(2, 50, cfg);
  expect_fields_identical(seq, par.fields);
}

TEST(ParallelRemap, BalancedRunStaysPhysicsInvariant) {
  // equal clocks on every rank: the fields must equal the sequential
  // reference and ownership must stay complete
  const auto cfg = remap_runner("filtered");
  const auto seq = sequential_fields(40, cfg);
  const auto par = run_parallel(3, 40, cfg);
  expect_fields_identical(seq, par.fields);
  long long total = 0;
  for (const auto& s : par.stats) total += s.planes;
  EXPECT_EQ(total, kGrid.nx);
}

TEST(ParallelRemap, MassConservedThroughMigrations) {
  const auto cfg = remap_runner("filtered", /*slow_rank=*/1);
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    const double m0 = run.global_masses()[0];
    const double m1 = run.global_masses()[1];
    run.run(60);
    EXPECT_NEAR(run.global_masses()[0], m0, 1e-9 * m0);
    EXPECT_NEAR(run.global_masses()[1], m1, 1e-9 * m1);
  });
}

TEST(ParallelRemap, EveryRankKeepsAtLeastOnePlane) {
  const auto cfg =
      remap_runner("filtered", /*slow_rank=*/2, /*slow_factor=*/8.0);
  const auto out = run_parallel(4, 80, cfg);
  for (const auto& s : out.stats) EXPECT_GE(s.planes, 1);
}

TEST(ParallelRemap, RemapTimeIsAccounted) {
  const auto cfg = remap_runner("filtered", /*slow_rank=*/1);
  const auto out = run_parallel(3, 60, cfg);
  double remap_total = 0.0;
  for (const auto& s : out.stats) remap_total += s.remap_seconds;
  EXPECT_GT(remap_total, 0.0);
}

TEST(ParallelRemap, FinalPhaseMigrationLeavesRealObservables) {
  // Rank 1's injected clock runs 4x slow, so it sheds planes on a fixed
  // schedule. Take the first run length that ends on a remap check which
  // moved planes (the run one phase shorter migrated strictly less). The
  // migrated slabs' mixture fields must be rebuilt before run() returns:
  // the velocity profiles equal the sequential reference.
  const auto cfg = remap_runner("filtered", /*slow_rank=*/1);
  for (int checks = 1; checks <= 6; ++checks) {
    const int phases = checks * cfg.remap_interval;
    const auto par = run_parallel(3, phases, cfg);
    if (par.total_migrated == run_parallel(3, phases - 1, cfg).total_migrated)
      continue;
    expect_fields_identical(sequential_fields(phases, cfg), par.fields);
    return;
  }
  FAIL() << "no remap check in the first 6 moved planes";
}

TEST(ParallelRemap, ChunkedRunRemapsLikeOneRun) {
  // Remap checks fall on absolute phases, so a run split into 3-phase
  // calls (shorter than the 4-phase interval) checks, migrates and
  // computes exactly as one straight run.
  const auto cfg = remap_runner("filtered", /*slow_rank=*/1);
  const auto straight = run_parallel(3, 24, cfg);
  const auto chunked = run_parallel(3, 24, cfg, /*chunks=*/8);
  EXPECT_GT(straight.total_migrated, 0);
  ASSERT_EQ(chunked.stats.size(), straight.stats.size());
  for (std::size_t r = 0; r < straight.stats.size(); ++r) {
    EXPECT_EQ(chunked.stats[r].planes, straight.stats[r].planes) << r;
    EXPECT_EQ(chunked.stats[r].planes_sent, straight.stats[r].planes_sent)
        << r;
  }
  expect_fields_identical(straight.fields, chunked.fields);
}

namespace {

// The runner's message tags (parallel_lbm.cpp).
constexpr int kTagFRight = 10, kTagFLeft = 11, kTagNRight = 12,
              kTagNLeft = 13, kTagInfo = 20, kTagProposal = 21,
              kTagPlanes = 22;

/// Rank 0 runs one phase with a remap check against rank 1, a scripted
/// peer speaking the runner's wire protocol: it echoes rank 0's halo and
/// load-info frames, then plays `answer` from the proposal exchange on.
/// Returns the comm_error rank 0 raised ("" if none).
std::string scripted_peer_error(
    const std::function<void(transport::Communicator&)>& answer) {
  auto cfg = remap_runner("filtered");
  cfg.remap_interval = 1;
  std::string error;
  transport::CommOptions opts;
  opts.recv_timeout = 30.0;
  transport::run_ranks(
      2,
      [&](transport::Communicator& comm) {
        if (comm.rank() == 0) {
          ParallelLbm run(cfg, comm);
          run.initialize_uniform();
          try {
            run.run(1);
          } catch (const transport::comm_error& e) {
            error = e.what();
          }
          return;
        }
        const auto echo = [&](int tag) {
          comm.send(0, tag, comm.recv(0, tag));
        };
        echo(kTagNRight);  // the priming density halo
        echo(kTagNLeft);
        for (int tag : {kTagFRight, kTagFLeft, kTagNRight, kTagNLeft})
          echo(tag);  // phase 1
        echo(kTagInfo);
        answer(comm);
      },
      opts);
  return error;
}

}  // namespace

TEST(ParallelRemap, EmptyProposalFrameIsRejectedNamingThePeer) {
  const std::string error =
      scripted_peer_error([](transport::Communicator& comm) {
        comm.recv(0, kTagProposal);
        comm.send(0, kTagProposal, std::span<const double>{});
      });
  EXPECT_NE(error.find("peer 1"), std::string::npos) << error;
  EXPECT_NE(error.find("proposal"), std::string::npos) << error;
}

TEST(ParallelRemap, NonIntegralPlaneCountIsRejectedNamingThePeer) {
  // the peer proposes two planes (48 points) toward rank 0, whose window
  // is not full yet, so rank 0 expects them; the header's count is NaN
  const std::string error =
      scripted_peer_error([](transport::Communicator& comm) {
        comm.recv(0, kTagProposal);
        const double two_planes = 48.0;
        comm.send(0, kTagProposal, std::span<const double>(&two_planes, 1));
        const double nan = std::numeric_limits<double>::quiet_NaN();
        comm.send(0, kTagPlanes, std::span<const double>(&nan, 1));
      });
  EXPECT_NE(error.find("peer 1"), std::string::npos) << error;
  EXPECT_NE(error.find("planes"), std::string::npos) << error;
}
