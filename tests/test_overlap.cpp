// Communication/computation overlap: the runner's overlapped,
// multithreaded step schedule must reproduce the sequential oracle
// (lbm::reference_phase on one full-domain slab) — same masses, same velocity/density profiles of every plane — and be
// BYTE-identical across thread counts, rank counts and transports, down
// to the migration history. Determinism rests on the same injected
// CountingClocks as the cross-backend suite; the filtered remapping
// policy is left ON so the comparison covers plane migrations and the
// plan rebuilds they force mid-run.
//
// Naming note: tests that start real worker processes (launch_workers)
// carry "Socket" in their name so the TSan CI job can exclude them (TSan
// cannot follow the worker processes).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "lbm/observables.hpp"
#include "lbm/stepper.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "sim/worker.hpp"
#include "transport/launcher.hpp"
#include "transport/serial_comm.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;

namespace {

constexpr int kPhases = 40;

/// Same lattice/remap/clock setup as the cross-backend determinism test:
/// rank 1's clock runs 4x slower, so the filtered policy migrates planes
/// (and rebuilds streaming plans) mid-run on multi-rank configurations.
sim::RunnerConfig base_config(int threads) {
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{16, 6, 4};
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;
  cfg.threads = threads;
  cfg.clock_factory = [](int rank) -> std::shared_ptr<obs::Clock> {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  return cfg;
}

std::string run_threads(int ranks, int threads,
                        obs::MetricsRegistry* metrics = nullptr) {
  sim::RunnerConfig cfg = base_config(threads);
  cfg.metrics = metrics;
  std::string observables;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(kPhases);
    const std::string obs = sim::collect_observables(run, comm, cfg.global);
    if (comm.rank() == 0) observables = obs;
  });
  return observables;
}

std::string run_serial(int threads) {
  const sim::RunnerConfig cfg = base_config(threads);
  transport::SerialComm comm;
  sim::ParallelLbm run(cfg, comm);
  run.initialize_uniform();
  run.run(kPhases);
  return sim::collect_observables(run, comm, cfg.global);
}

/// A run's physics as numbers: the component masses and, flattened in
/// (plane, y) order, the mid-channel velocity and water-density
/// y-profiles of every plane.
struct Physics {
  std::vector<double> mass, ux, rho0;
};

/// Parse collect_observables' "mass", "ux" and "rho0" lines (hex floats;
/// the value is each line's last field).
Physics parse_physics(const std::string& observables) {
  Physics p;
  std::istringstream in(observables);
  std::string line;
  while (std::getline(in, line)) {
    const std::string tag = line.substr(0, line.find(' '));
    const double v = std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    if (tag == "mass") p.mass.push_back(v);
    if (tag == "ux") p.ux.push_back(v);
    if (tag == "rho0") p.rho0.push_back(v);
  }
  return p;
}

/// The oracle: the reference kernels stepped on one full-domain slab of
/// the same lattice for the same number of phases, observed the same way
/// (masses folded in global plane order, as the runner folds them). Not
/// sim::Simulation: that is the runner itself on one rank.
Physics sequential_physics() {
  const sim::RunnerConfig cfg = base_config(1);
  lbm::Slab seq(sim::make_geometry(cfg), cfg.fluid, 0, cfg.global.nx);
  seq.initialize_uniform();
  lbm::PeriodicSelfExchanger halo;
  lbm::prime(seq, halo);
  for (int p = 0; p < kPhases; ++p) lbm::reference_phase(seq, halo);
  Physics p;
  for (std::size_t c = 0; c < seq.num_components(); ++c) {
    double m = 0.0;
    for (lbm::index_t gx = 0; gx < cfg.global.nx; ++gx)
      m += lbm::plane_mass(seq, c, gx) *
           cfg.fluid.components[c].molecular_mass;
    p.mass.push_back(m);
  }
  const lbm::index_t z = cfg.global.nz / 2;
  for (lbm::index_t gx = 0; gx < cfg.global.nx; ++gx) {
    for (double v : lbm::velocity_profile_y(seq, gx, z)) p.ux.push_back(v);
    for (double v : lbm::density_profile_y(seq, 0, gx, z)) p.rho0.push_back(v);
  }
  return p;
}

void expect_physics_equal(const Physics& got, const Physics& want) {
  const auto expect_equal = [](const std::vector<double>& a,
                               const std::vector<double>& b,
                               const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
      EXPECT_DOUBLE_EQ(a[i], b[i]) << what << " #" << i;
  };
  expect_equal(got.mass, want.mass, "mass");
  expect_equal(got.ux, want.ux, "ux");
  expect_equal(got.rho0, want.rho0, "rho0");
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "slipflow_" + name + "." +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Launch real worker processes over the given transport ("socket", "shm"
/// or "auto") and return rank 0's observables.
std::string run_workers(int ranks, int threads, const std::string& transport) {
  const std::string out = temp_path("obs_overlap_" + transport);
  transport::LaunchConfig lc;
  lc.ranks = ranks;
  lc.transport = transport;
  lc.worker_command = {SLIPFLOW_WORKER_EXE,
                       "--nx=16",
                       "--ny=6",
                       "--nz=4",
                       "--phases=" + std::to_string(kPhases),
                       "--policy=filtered",
                       "--remap-interval=5",
                       "--window=3",
                       "--min-transfer=24",
                       "--clock=counting",
                       "--clock-step=1e-3",
                       "--slow-clock-rank=1",
                       "--slow-clock-factor=4",
                       "--recv-timeout=20",
                       "--threads=" + std::to_string(threads),
                       "--observables-out=" + out};
  lc.heartbeat_interval = 0.1;
  lc.heartbeat_grace = 10.0;
  lc.wall_clock_timeout = 90.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  const std::string obs = read_file(out);
  std::remove(out.c_str());
  return obs;
}

std::string run_sockets(int ranks, int threads) {
  return run_workers(ranks, threads, "socket");
}

}  // namespace

// --- single rank: overlap touches only the kernel split, no halos fly ---

TEST(Overlap, SerialRankMatchesSequentialForEveryThreadCount) {
  const Physics want = sequential_physics();
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string got = run_serial(threads);
    ASSERT_FALSE(got.empty());
    expect_physics_equal(parse_physics(got), want);
  }
}

// --- thread backend: ranks x threads sweep, migrations included ---

class OverlapThreadRanks : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, OverlapThreadRanks, ::testing::Values(2, 4),
                         [](const auto& pinfo) {
                           return "Ranks" + std::to_string(pinfo.param);
                         });

TEST_P(OverlapThreadRanks, EveryThreadCountMatchesOneThreadByByte) {
  const int ranks = GetParam();
  const std::string one = run_threads(ranks, 1);
  ASSERT_FALSE(one.empty());
  // the slowed rank must actually migrate planes, or this test would not
  // cover the mid-run plan rebuild path
  if (ranks == 4) {
    EXPECT_EQ(one.find("rank 1 planes 4 sent 0"), std::string::npos)
        << "expected rank 1 to shed planes:\n"
        << one.substr(0, 300);
  }
  // migrations move ownership, never the physics
  expect_physics_equal(parse_physics(one), sequential_physics());
  for (int threads : {2, 4})
    EXPECT_EQ(run_threads(ranks, threads), one)
        << threads << " threads diverged from 1 thread at " << ranks
        << " ranks";
}

// --- overlap metrics: the new counters are published and consistent ---

TEST(Overlap, PublishesInteriorHaloWaitAndPerLaneCounters) {
  constexpr int kRanks = 2, kThreads = 2;
  obs::MetricsRegistry reg(kRanks);
  run_threads(kRanks, kThreads, &reg);
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_GT(reg.counter(r, "time/interior"), 0.0);
    EXPECT_GT(reg.counter(r, "time/halo_wait"), 0.0);
    ASSERT_TRUE(reg.has_gauge(r, "overlap_efficiency"));
    const double eff = reg.gauge(r, "overlap_efficiency");
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 1.0);
    // every fluid cell's collide+stream belongs to exactly one lane, so
    // the per-lane counters partition the rank's cells_updated total
    double lane_sum = 0.0;
    for (int t = 0; t < kThreads; ++t)
      lane_sum += reg.counter(r, "thread/" + std::to_string(t) +
                                     "/cells_updated");
    EXPECT_DOUBLE_EQ(lane_sum, reg.counter(r, "cells_updated"));
  }
}

// --- real processes (named "Socket" so the TSan job can skip them) ---

TEST(OverlapSocket, WorkersMatchThreadBackendByByte) {
  const std::string socket_obs = run_sockets(4, 2);
  ASSERT_FALSE(socket_obs.empty());
  EXPECT_EQ(socket_obs, run_threads(4, 2))
      << "overlapped worker processes diverged from in-process reference";
}

// --- differential transport matrix (launches workers, hence "Socket") ---

TEST(OverlapSocket, ShmWorkersMatchThreadAndSocketByByte) {
  // The tightest cross-transport guarantee in the suite: a 4-rank
  // overlapped run with live plane migrations and mid-run plan rebuilds
  // must produce byte-identical observables whether halos ride threads,
  // Unix-domain sockets, or shared-memory rings.
  const std::string thread_obs = run_threads(4, 2);
  ASSERT_FALSE(thread_obs.empty());
  EXPECT_EQ(run_workers(4, 2, "shm"), thread_obs)
      << "shm workers diverged from the thread backend";
  EXPECT_EQ(run_workers(4, 2, "socket"), thread_obs)
      << "socket workers diverged from the thread backend";
}

TEST(OverlapSocket, AutoTransportResolvesAndMatches) {
  // "auto" must pick shm here (the socket dir is mmap-able tmpfs/disk)
  // and still land on the same bytes.
  const std::string auto_obs = run_workers(2, 2, "auto");
  ASSERT_FALSE(auto_obs.empty());
  EXPECT_EQ(auto_obs, run_threads(2, 2));
}
