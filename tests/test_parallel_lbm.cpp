// Parallel runner vs sequential reference: with static decomposition the
// parallel multicomponent LBM must reproduce the sequential fields
// exactly (same per-cell arithmetic, just distributed). The sequential
// side is the oracle (lbm::reference_phase on one full-domain slab), not
// sim::Simulation, which is this runner on one rank.

#include <gtest/gtest.h>

#include <memory>
#include <mutex>

#include "lbm/observables.hpp"
#include "lbm/stepper.hpp"
#include "obs/clock.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::ParallelLbm;
using slipflow::sim::RunnerConfig;
using slipflow::sim::Simulation;

namespace {

const Extents kGrid{16, 6, 4};

RunnerConfig base_runner() {
  RunnerConfig cfg;
  cfg.global = kGrid;
  cfg.fluid = FluidParams::microchannel_defaults(0.05, 1.5, 0.03, 1.0, 2e-5);
  cfg.policy = "none";
  return cfg;
}

/// Sequential reference fields after `phases` phases.
struct Reference {
  std::vector<std::vector<double>> water;  // per gx: density profile
  std::vector<std::vector<double>> ux;     // per gx: velocity profile
  double mass0, mass1;
};

/// A component's mass folded plane by plane in global x order, the fold
/// ParallelLbm::global_masses() uses.
double plane_ordered_mass(const Slab& slab, std::size_t c) {
  double m = 0.0;
  for (index_t gx = slab.x_begin(); gx < slab.x_end(); ++gx)
    m += plane_mass(slab, c, gx) * slab.params().components[c].molecular_mass;
  return m;
}

Reference reference_of(const Slab& slab) {
  Reference ref;
  for (index_t gx = 0; gx < kGrid.nx; ++gx) {
    ref.water.push_back(density_profile_y(slab, 0, gx, 2));
    ref.ux.push_back(velocity_profile_y(slab, gx, 2));
  }
  ref.mass0 = plane_ordered_mass(slab, 0);
  ref.mass1 = plane_ordered_mass(slab, 1);
  return ref;
}

/// The oracle after `phases` phases: the reference kernels stepped on one
/// full-domain slab of `cfg`'s lattice.
Reference sequential_reference(int phases,
                               const RunnerConfig& cfg = base_runner()) {
  Slab slab(sim::make_geometry(cfg), cfg.fluid, 0, cfg.global.nx);
  slab.initialize_uniform();
  PeriodicSelfExchanger halo;
  prime(slab, halo);
  for (int p = 0; p < phases; ++p) reference_phase(slab, halo);
  return reference_of(slab);
}

/// Run the parallel code on `ranks` ranks and collect the same profiles.
Reference parallel_reference(int ranks, int phases, RunnerConfig cfg) {
  Reference out;
  out.water.resize(static_cast<std::size_t>(kGrid.nx));
  out.ux.resize(static_cast<std::size_t>(kGrid.nx));
  std::mutex mu;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);
    const std::vector<double> masses = run.global_masses();
    for (index_t gx = 0; gx < kGrid.nx; ++gx) {
      auto w = run.gather_density_profile_y(0, gx, 2);
      auto u = run.gather_velocity_profile_y(gx, 2);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        out.water[static_cast<std::size_t>(gx)] = std::move(w);
        out.ux[static_cast<std::size_t>(gx)] = std::move(u);
        out.mass0 = masses[0];
        out.mass1 = masses[1];
      }
    }
  });
  return out;
}

void expect_identical(const Reference& a, const Reference& b) {
  for (index_t gx = 0; gx < kGrid.nx; ++gx) {
    const auto ux = static_cast<std::size_t>(gx);
    ASSERT_EQ(a.water[ux].size(), b.water[ux].size());
    for (std::size_t j = 0; j < a.water[ux].size(); ++j) {
      EXPECT_DOUBLE_EQ(a.water[ux][j], b.water[ux][j])
          << "density gx=" << gx << " y=" << j;
      EXPECT_DOUBLE_EQ(a.ux[ux][j], b.ux[ux][j])
          << "velocity gx=" << gx << " y=" << j;
    }
  }
}

}  // namespace

TEST(InitialExtent, CoversDomainWithoutGaps) {
  for (int size = 1; size <= 7; ++size) {
    index_t expect_begin = 0;
    index_t total = 0;
    for (int r = 0; r < size; ++r) {
      const auto [begin, mine] = sim::initial_extent(16, size, r);
      EXPECT_EQ(begin, expect_begin);
      EXPECT_GE(mine, 1);
      expect_begin += mine;
      total += mine;
    }
    EXPECT_EQ(total, 16);
  }
}

TEST(InitialExtent, RemainderGoesToLowRanks) {
  const auto [b0, n0] = sim::initial_extent(10, 4, 0);
  const auto [b3, n3] = sim::initial_extent(10, 4, 3);
  EXPECT_EQ(n0, 3);
  EXPECT_EQ(n3, 2);
  EXPECT_EQ(b0, 0);
  EXPECT_EQ(b3, 8);
}

TEST(ParallelLbm, SingleRankMatchesSequential) {
  const auto seq = sequential_reference(30);
  const auto par = parallel_reference(1, 30, base_runner());
  expect_identical(seq, par);
}

TEST(ParallelLbm, TwoRanksMatchSequentialExactly) {
  const auto seq = sequential_reference(30);
  const auto par = parallel_reference(2, 30, base_runner());
  expect_identical(seq, par);
  // masses are folded in global plane order whatever the decomposition
  EXPECT_EQ(par.mass0, seq.mass0);
  EXPECT_EQ(par.mass1, seq.mass1);
}

TEST(ParallelLbm, FourRanksMatchSequentialExactly) {
  const auto seq = sequential_reference(25);
  const auto par = parallel_reference(4, 25, base_runner());
  expect_identical(seq, par);
}

TEST(ParallelLbm, UnevenDecompositionMatches) {
  // 16 planes over 3 ranks: 6/5/5
  const auto seq = sequential_reference(20);
  const auto par = parallel_reference(3, 20, base_runner());
  expect_identical(seq, par);
}

TEST(ParallelLbm, MassConservedAcrossRanks) {
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    ParallelLbm run(base_runner(), comm);
    run.initialize_uniform();
    const double m0 = run.global_masses()[0];
    run.run(40);
    EXPECT_NEAR(run.global_masses()[0], m0, 1e-9 * m0);
  });
}

TEST(ParallelLbm, StatsAccountAllPlanes) {
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    ParallelLbm run(base_runner(), comm);
    run.initialize_uniform();
    run.run(10);
    const auto stats = run.gather_stats();
    long long planes = 0;
    for (const auto& s : stats) planes += s.planes;
    EXPECT_EQ(planes, kGrid.nx);
    for (const auto& s : stats) {
      EXPECT_GT(s.compute_seconds, 0.0);
      EXPECT_EQ(s.planes_sent, 0);  // no remapping configured
    }
  });
}

TEST(ParallelLbm, RequiresInitialization) {
  transport::run_ranks(2, [&](transport::Communicator& comm) {
    ParallelLbm run(base_runner(), comm);
    EXPECT_THROW(run.run(1), slipflow::contract_error);
    run.initialize_uniform();  // leave ranks consistent before exit
  });
}

TEST(ParallelLbm, MovingWallsMatchSequential) {
  // moving-wall bounce-back must be decomposition-invariant too
  RunnerConfig cfg = base_runner();
  cfg.wall_velocity[1] = lbm::Vec3{0.03, 0.0, 0.0};  // y_high wall

  const auto seq = sequential_reference(25, cfg);
  const auto par = parallel_reference(3, 25, cfg);
  expect_identical(seq, par);
}

TEST(ParallelLbm, WallPatternMatchesSequential) {
  RunnerConfig cfg = base_runner();
  cfg.fluid.wall_pattern = [](index_t gx, index_t, index_t) {
    return gx % 8 < 4 ? 1.0 : 0.2;
  };
  const auto seq = sequential_reference(25, cfg);
  const auto par = parallel_reference(3, 25, cfg);
  expect_identical(seq, par);
}

TEST(ParallelLbm, MrtComponentsMatchSequential) {
  RunnerConfig cfg = base_runner();
  for (auto& c : cfg.fluid.components) c.collision = CollisionModel::mrt;
  const auto par = parallel_reference(3, 20, cfg);
  const auto seq = sequential_reference(20, cfg);
  expect_identical(seq, par);
}

TEST(ParallelLbm, ObstacleMatchesSequential) {
  // A solid block straddling the rank-0/rank-1 boundary (planes 0-5 | 6-10
  // | 11-15 on three ranks). Rank 1's injected clock ticks 4x longer, so
  // the filtered policy drains it and planes holding solid cells migrate
  // mid-run; the result must still be byte-identical to Simulation.
  RunnerConfig cfg = base_runner();
  cfg.obstacle = [](index_t gx, index_t gy, index_t gz) {
    return gx >= 4 && gx < 8 && gy >= 2 && gy < 4 && gz >= 1 && gz < 3;
  };
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;  // one yz-plane of this grid
  cfg.clock_factory = [](int rank) {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  const int phases = 40;

  Simulation seq(cfg);
  seq.initialize_uniform();
  seq.run(phases);
  const Reference want = reference_of(seq.slab());

  Reference got;
  got.water.resize(static_cast<std::size_t>(kGrid.nx));
  got.ux.resize(static_cast<std::size_t>(kGrid.nx));
  std::vector<int> owners;
  std::mutex mu;
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);
    const std::vector<double> masses = run.global_masses();
    const std::vector<int> own = run.gather_plane_owners();
    for (index_t gx = 0; gx < kGrid.nx; ++gx) {
      auto w = run.gather_density_profile_y(0, gx, 2, own);
      auto u = run.gather_velocity_profile_y(gx, 2, own);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        got.water[static_cast<std::size_t>(gx)] = std::move(w);
        got.ux[static_cast<std::size_t>(gx)] = std::move(u);
      }
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      got.mass0 = masses[0];
      got.mass1 = masses[1];
      owners = own;
    }
  });

  // planes 6 and 7 (solid cells inside) left the slowed rank
  ASSERT_EQ(owners.size(), static_cast<std::size_t>(kGrid.nx));
  EXPECT_NE(owners[6], 1);
  EXPECT_NE(owners[7], 1);
  for (index_t gx = 0; gx < kGrid.nx; ++gx) {
    const auto i = static_cast<std::size_t>(gx);
    ASSERT_EQ(got.water[i].size(), want.water[i].size());
    for (std::size_t j = 0; j < want.water[i].size(); ++j) {
      EXPECT_EQ(got.water[i][j], want.water[i][j]) << gx << "," << j;
      EXPECT_EQ(got.ux[i][j], want.ux[i][j]) << gx << "," << j;
    }
  }
  EXPECT_EQ(got.mass0, want.mass0);
  EXPECT_EQ(got.mass1, want.mass1);
}
