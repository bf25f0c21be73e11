// Checkpoint/restart COMBINED with mid-run plane migration — the
// interaction the per-plane checkpoint format exists for, previously
// only tested separately: a ThreadComm run whose ranks have already
// migrated planes is checkpointed, restarted across *different* rank
// counts (which migrate again), and must stay bit-identical to an
// uninterrupted run and to the sequential reference.
//
// Rank slowness is injected through the observability clock
// (obs::CountingClock via RunnerConfig::clock_factory), so the load
// predictor sees a deterministic 4x-slow rank and migration is
// guaranteed — no sleeps, no wall-time dependence.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include "lbm/observables.hpp"
#include "obs/clock.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

const Extents kGrid{18, 6, 4};

struct PathGuard {
  std::string path;
  explicit PathGuard(const char* name)
      : path((std::filesystem::temp_directory_path() / name).string()) {}
  ~PathGuard() { std::remove(path.c_str()); }
};

sim::RunnerConfig migrating_runner() {
  sim::RunnerConfig cfg;
  cfg.global = kGrid;
  cfg.fluid = FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 4;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;  // one yz-plane of this grid
  // rank 1 is virtually 4x slower: deterministic migration pressure
  cfg.clock_factory = [](int rank) -> std::shared_ptr<obs::Clock> {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  return cfg;
}

struct Fields {
  std::vector<std::vector<double>> water, air, ux;
};

Fields sequential_fields(int phases) {
  Simulation sim(kGrid, FluidParams::microchannel_defaults());
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

struct LegResult {
  Fields fields;
  long long planes_migrated = 0;
  long long phase_at_load = -1;
};

/// Run `phases` phases on `ranks` ranks, loading/saving checkpoints as
/// requested, and gather the full fields on rank 0.
LegResult run_leg(int ranks, int phases, const std::string& load_path,
                  const std::string& save_path, long long save_phase = 0) {
  const sim::RunnerConfig cfg = migrating_runner();
  LegResult out;
  out.fields.water.resize(static_cast<std::size_t>(kGrid.nx));
  out.fields.air.resize(static_cast<std::size_t>(kGrid.nx));
  out.fields.ux.resize(static_cast<std::size_t>(kGrid.nx));
  std::mutex mu;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    long long loaded = -1;
    if (load_path.empty())
      run.initialize_uniform();
    else
      loaded = run.load_checkpoint(load_path);
    run.run(phases);
    if (!save_path.empty()) run.save_checkpoint(save_path, save_phase);
    const auto stats = run.gather_stats();
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
      out.phase_at_load = loaded;
      out.planes_migrated = 0;
      for (const auto& s : stats) out.planes_migrated += s.planes_sent;
    }
  });
  return out;
}

void expect_fields_identical(const Fields& a, const Fields& b) {
  ASSERT_EQ(a.water.size(), b.water.size());
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

TEST(CheckpointMigration, RestartAcrossRankCountsAfterMigration) {
  PathGuard g("ckpt_migrated.bin");

  // leg 1: 3 ranks, 30 phases — planes MUST have migrated by the save
  const LegResult first = run_leg(3, 30, "", g.path, /*save_phase=*/30);
  ASSERT_GT(first.planes_migrated, 0)
      << "test premise broken: no migration before the checkpoint";

  // uninterrupted references: sequential and same-config 3-rank run
  const Fields seq = sequential_fields(60);
  const LegResult uninterrupted = run_leg(3, 60, "", "");

  // restart the migrated checkpoint on 2 and on 4 ranks
  const LegResult on2 = run_leg(2, 30, g.path, "");
  const LegResult on4 = run_leg(4, 30, g.path, "");
  EXPECT_EQ(on2.phase_at_load, 30);
  EXPECT_EQ(on4.phase_at_load, 30);

  expect_fields_identical(seq, uninterrupted.fields);
  expect_fields_identical(uninterrupted.fields, on2.fields);
  expect_fields_identical(uninterrupted.fields, on4.fields);
}

TEST(CheckpointMigration, RestartLegsKeepMigratingAndConserveMass) {
  PathGuard g("ckpt_migrated2.bin");
  (void)run_leg(3, 30, "", g.path, 30);

  const sim::RunnerConfig cfg = migrating_runner();
  transport::run_ranks(4, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.load_checkpoint(g.path);
    const double m0 = run.global_masses()[0];
    const double m1 = run.global_masses()[1];
    run.run(40);
    const auto stats = run.gather_stats();
    long long migrated = 0, planes = 0;
    for (const auto& s : stats) {
      migrated += s.planes_sent;
      planes += s.planes;
    }
    // the restarted decomposition rebalances again, ownership stays
    // complete, and migration keeps mass bit-stable
    EXPECT_GT(migrated, 0);
    EXPECT_EQ(planes, kGrid.nx);
    EXPECT_NEAR(run.global_masses()[0], m0, 1e-9 * m0);
    EXPECT_NEAR(run.global_masses()[1], m1, 1e-9 * m1);
  });
}

TEST(CheckpointMigration, MigratedCheckpointMatchesSequentialState) {
  // the checkpoint itself (not just the continued run) must hold the
  // exact sequential state: restore it into a sequential Simulation
  PathGuard g("ckpt_migrated3.bin");
  const LegResult first = run_leg(3, 30, "", g.path, 30);
  ASSERT_GT(first.planes_migrated, 0);

  Simulation seq(kGrid, FluidParams::microchannel_defaults());
  seq.restore_checkpoint(g.path);
  EXPECT_EQ(seq.phase_count(), 30);

  Simulation ref(kGrid, FluidParams::microchannel_defaults());
  ref.initialize_uniform();
  ref.run(30);

  // the checkpoint stores phase-boundary state (distributions and
  // densities; velocity is derived next phase) — compare the densities
  for (index_t gx = 0; gx < kGrid.nx; ++gx) {
    for (std::size_t c = 0; c < 2; ++c) {
      const auto a = density_profile_y(seq.slab(), c, gx, 2);
      const auto b = density_profile_y(ref.slab(), c, gx, 2);
      for (std::size_t j = 0; j < a.size(); ++j)
        EXPECT_DOUBLE_EQ(a[j], b[j]) << c << "," << gx << "," << j;
    }
  }
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_DOUBLE_EQ(owned_mass(seq.slab(), c), owned_mass(ref.slab(), c));
}
