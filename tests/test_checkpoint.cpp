// Checkpoint / restart: bit-exact continuation, header validation, and
// restart across *different* decompositions (the per-plane format's
// whole point).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <filesystem>
#include <mutex>

#include "lbm/checkpoint.hpp"
#include "lbm/observables.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

const Extents kGrid{12, 6, 4};

FluidParams fluid() { return FluidParams::microchannel_defaults(); }

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct PathGuard {
  std::string path;
  explicit PathGuard(std::string p) : path(std::move(p)) {}
  ~PathGuard() { std::remove(path.c_str()); }
};

std::vector<double> final_profile(Simulation& sim) {
  return velocity_profile_y(sim.slab(), kGrid.nx / 2, 2);
}

}  // namespace

TEST(Checkpoint, HeaderRoundTrip) {
  PathGuard g(temp_path("ckpt_header.bin"));
  Simulation sim(kGrid, fluid());
  sim.initialize_uniform();
  sim.run(7);
  sim.save_checkpoint(g.path);
  const auto info = read_checkpoint_info(g.path);
  EXPECT_EQ(info.global, kGrid);
  EXPECT_EQ(info.components, 2u);
  EXPECT_EQ(info.phase, 7);
}

TEST(Checkpoint, ContinuationIsBitExact) {
  PathGuard g(temp_path("ckpt_cont.bin"));
  // reference: run 60 phases straight through
  Simulation ref(kGrid, fluid());
  ref.initialize_uniform();
  ref.run(60);

  // checkpointed: run 25, save, restore into a fresh simulation, run 35
  Simulation first(kGrid, fluid());
  first.initialize_uniform();
  first.run(25);
  first.save_checkpoint(g.path);

  Simulation second(kGrid, fluid());
  second.restore_checkpoint(g.path);
  EXPECT_EQ(second.phase_count(), 25);
  second.run(35);

  const auto ur = final_profile(ref);
  const auto uc = final_profile(second);
  for (std::size_t j = 0; j < ur.size(); ++j)
    EXPECT_DOUBLE_EQ(uc[j], ur[j]) << j;
  for (std::size_t c = 0; c < 2; ++c)
    EXPECT_DOUBLE_EQ(owned_mass(second.slab(), c),
                     owned_mass(ref.slab(), c));
}

TEST(Checkpoint, RestoreRebuildsObservables) {
  // A restored run reports the saved run's mixture observables before it
  // steps again: the restore rebuilds velocity and total density from
  // the restored populations instead of leaving them zeroed.
  PathGuard g(temp_path("ckpt_observables.bin"));
  const Extents grid{8, 6, 4};
  Simulation saved(grid, fluid());
  saved.initialize_uniform();
  saved.run(25);
  saved.save_checkpoint(g.path);

  Simulation restored(grid, fluid());
  restored.restore_checkpoint(g.path);
  for (index_t gx = 0; gx < grid.nx; ++gx) {
    const auto u_want = velocity_profile_y(saved.slab(), gx, 2);
    const auto u_got = velocity_profile_y(restored.slab(), gx, 2);
    for (std::size_t c = 0; c < 2; ++c) {
      const auto n_want = density_profile_y(saved.slab(), c, gx, 2);
      const auto n_got = density_profile_y(restored.slab(), c, gx, 2);
      for (std::size_t j = 0; j < n_want.size(); ++j)
        EXPECT_DOUBLE_EQ(n_got[j], n_want[j]) << c << "," << gx << "," << j;
    }
    for (std::size_t j = 0; j < u_want.size(); ++j) {
      EXPECT_NE(u_want[j], 0.0);
      EXPECT_DOUBLE_EQ(u_got[j], u_want[j]) << gx << "," << j;
      const index_t cell = saved.slab().storage().idx(
          saved.slab().local_x(gx), static_cast<index_t>(j), 2);
      EXPECT_DOUBLE_EQ(restored.slab().total_density()[cell],
                       saved.slab().total_density()[cell])
          << "total density " << gx << "," << j;
    }
  }
}

TEST(Checkpoint, MismatchedDomainRejected) {
  PathGuard g(temp_path("ckpt_dom.bin"));
  Simulation sim(kGrid, fluid());
  sim.initialize_uniform();
  sim.save_checkpoint(g.path);
  Simulation other(Extents{10, 6, 4}, fluid());
  EXPECT_THROW(other.restore_checkpoint(g.path), slipflow::contract_error);
}

TEST(Checkpoint, MismatchedComponentsRejected) {
  PathGuard g(temp_path("ckpt_comp.bin"));
  Simulation sim(kGrid, fluid());
  sim.initialize_uniform();
  sim.save_checkpoint(g.path);
  Simulation other(kGrid, FluidParams::single_component());
  EXPECT_THROW(other.restore_checkpoint(g.path), slipflow::contract_error);
}

TEST(Checkpoint, GarbageFileRejected) {
  PathGuard g(temp_path("ckpt_garbage.bin"));
  {
    std::ofstream out(g.path, std::ios::binary);
    out << "this is not a checkpoint at all, not even close......";
  }
  Simulation sim(kGrid, fluid());
  EXPECT_THROW(sim.restore_checkpoint(g.path), slipflow::contract_error);

  // A well-formed file of format version 1 (plane records without the
  // mixture fields) is refused, and the error names its version.
  PathGuard v1(temp_path("ckpt_v1.bin"));
  Simulation saved(kGrid, fluid());
  saved.initialize_uniform();
  saved.save_checkpoint(v1.path);
  {
    std::fstream f(v1.path, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t version = 1;
    f.seekp(sizeof(std::uint64_t));  // the field after the magic
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  try {
    sim.restore_checkpoint(v1.path);
    ADD_FAILURE() << "a version 1 checkpoint was restored";
  } catch (const slipflow::contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, MissingFileRejected) {
  Simulation sim(kGrid, fluid());
  EXPECT_THROW(sim.restore_checkpoint(temp_path("ckpt_nope.bin")),
               slipflow::contract_error);
}

TEST(Checkpoint, UncheckpointedSimulationRejected) {
  Simulation sim(kGrid, fluid());
  EXPECT_THROW(sim.save_checkpoint(temp_path("ckpt_uninit.bin")),
               slipflow::contract_error);
}

namespace {

/// Run `ranks` ranks for `phases` phases starting from a checkpoint (or
/// uniform init when path empty), optionally saving at the end; returns
/// the rank-0 velocity profile.
std::vector<double> parallel_leg(int ranks, int phases,
                                 const std::string& load_path,
                                 const std::string& save_path) {
  sim::RunnerConfig cfg;
  cfg.global = kGrid;
  cfg.fluid = fluid();
  std::vector<double> profile;
  std::mutex mu;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    if (load_path.empty())
      run.initialize_uniform();
    else
      run.load_checkpoint(load_path);
    run.run(phases);
    if (!save_path.empty()) run.save_checkpoint(save_path, phases);
    auto u = run.gather_velocity_profile_y(kGrid.nx / 2, 2);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      profile = std::move(u);
    }
  });
  return profile;
}

}  // namespace

TEST(Checkpoint, ParallelRestartAcrossRankCounts) {
  // save from 3 ranks, restart on 2 and on 4 — all must match the
  // straight-through sequential run exactly
  PathGuard g(temp_path("ckpt_ranks.bin"));
  Simulation ref(kGrid, fluid());
  ref.initialize_uniform();
  ref.run(40);
  const auto ur = final_profile(ref);

  (void)parallel_leg(3, 15, "", g.path);  // first 15 phases on 3 ranks
  const auto u2 = parallel_leg(2, 25, g.path, "");
  const auto u4 = parallel_leg(4, 25, g.path, "");
  ASSERT_EQ(u2.size(), ur.size());
  for (std::size_t j = 0; j < ur.size(); ++j) {
    EXPECT_DOUBLE_EQ(u2[j], ur[j]) << j;
    EXPECT_DOUBLE_EQ(u4[j], ur[j]) << j;
  }
}

TEST(Checkpoint, SequentialToParallelHandoff) {
  PathGuard g(temp_path("ckpt_handoff.bin"));
  Simulation ref(kGrid, fluid());
  ref.initialize_uniform();
  ref.run(30);
  const auto ur = final_profile(ref);

  Simulation first(kGrid, fluid());
  first.initialize_uniform();
  first.run(10);
  first.save_checkpoint(g.path);

  const auto up = parallel_leg(3, 20, g.path, "");
  for (std::size_t j = 0; j < ur.size(); ++j)
    EXPECT_DOUBLE_EQ(up[j], ur[j]) << j;
}
