// Output: the runner's one inline output path. Periodic checkpoints and
// VTK snapshots are on disk when run() returns, writing them perturbs
// neither the physics nor the load balancer's injected-clock sequence,
// and every checkpoint is published by rename — a final checkpoint name
// never holds a torn or partly rewritten file.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "lbm/checkpoint.hpp"
#include "lbm/vtk.hpp"
#include "obs/clock.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/tempdir.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;

namespace {

const lbm::Extents kGrid{12, 6, 4};

struct DirGuard {
  std::string dir;
  DirGuard() : dir(transport::make_socket_temp_dir()) {}
  ~DirGuard() { std::filesystem::remove_all(dir); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

sim::RunnerConfig output_config(const sim::OutputOptions& out) {
  sim::RunnerConfig cfg;
  cfg.global = kGrid;
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "conservative";
  cfg.remap_interval = 5;
  cfg.clock_factory = [](int) {
    return std::make_shared<obs::CountingClock>();
  };
  cfg.output = out;
  return cfg;
}

/// Run `ranks` ranks for `phases` phases with the given output options,
/// deterministic injected clocks, and the conservative remap policy (so
/// the balancer's clock sequence is live and would notice a perturbed
/// schedule). Returns the rank-0 velocity profile.
std::vector<double> output_leg(int ranks, int phases,
                               const sim::OutputOptions& out) {
  const sim::RunnerConfig cfg = output_config(out);
  std::vector<double> profile;
  std::mutex mu;
  transport::run_ranks(ranks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);
    auto u = run.gather_velocity_profile_y(kGrid.nx / 2, 2);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      profile = std::move(u);
    }
  });
  return profile;
}

/// A complete checkpoint of kGrid taken at `phase`.
void expect_complete_checkpoint(const std::string& path, long long phase) {
  const lbm::CheckpointInfo info = lbm::read_checkpoint_info(path);
  EXPECT_EQ(info.global, kGrid) << path;
  EXPECT_EQ(info.phase, phase) << path;
  EXPECT_EQ(std::filesystem::file_size(path),
            lbm::expected_checkpoint_bytes(info))
      << path;
}

constexpr const char* kStale = "stale checkpoint bytes";

/// Occupy `path` with stale bytes and hard-link `witness` to the same
/// inode: a writer that truncates `path` in place changes the witness
/// too, one that publishes a new file by rename leaves it alone.
void plant_stale_file(const std::string& path, const std::string& witness) {
  std::ofstream(path, std::ios::binary) << kStale;
  std::filesystem::create_hard_link(path, witness);
}

/// One rank's VTK tile: its global x offset and width, and the text of
/// its density_total and velocity columns, one entry per cell in VTK
/// order (x fastest, then y, then z).
struct VtkTile {
  lbm::index_t x0 = 0, nx = 0;
  std::vector<std::string> density_total, velocity;
};

VtkTile read_vtk_tile(const std::string& path) {
  std::istringstream in(read_file(path));
  VtkTile t;
  std::string line, word;
  lbm::index_t ny = 0, nz = 0;
  const auto column = [&](std::vector<std::string>& out) {
    for (lbm::index_t i = 0; i < t.nx * ny * nz && std::getline(in, line);
         ++i)
      out.push_back(line);
  };
  while (std::getline(in, line)) {
    std::istringstream words(line);
    words >> word;
    if (word == "DIMENSIONS") words >> t.nx >> ny >> nz;
    if (word == "ORIGIN") words >> t.x0;
    if (line == "SCALARS density_total double 1") {
      std::getline(in, line);  // LOOKUP_TABLE default
      column(t.density_total);
    }
    if (line == "VECTORS velocity double") column(t.velocity);
  }
  EXPECT_EQ(t.velocity.size(), static_cast<std::size_t>(t.nx * ny * nz))
      << path;
  return t;
}

}  // namespace

TEST(Output, VtkAtMigratingCheckHoldsMixtureFields) {
  // Rank 1's injected clock runs 4x slow, so the filtered policy sheds its
  // planes on a fixed schedule. The snapshot written at the first remap
  // check that moved planes must hold every rank's mixture fields: total
  // density non-zero in every fluid cell, velocity byte-equal to the
  // sequential reference.
  DirGuard g;
  const lbm::Extents grid{18, 6, 4};
  sim::RunnerConfig cfg;
  cfg.global = grid;
  cfg.fluid =
      lbm::FluidParams::microchannel_defaults(0.05, 1.5, 0.03, 1.0, 2e-5);
  cfg.policy = "filtered";
  cfg.remap_interval = 4;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;  // one yz-plane of this grid
  cfg.clock_factory = [](int rank) {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  cfg.output.vtk_every = cfg.remap_interval;
  cfg.output.vtk_prefix = g.dir + "/m";

  long long check = 0;
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    long long moved = 0;  // the same on every rank: gather_stats is global
    while (moved == 0 && run.phase_count() < 10 * cfg.remap_interval) {
      run.run(cfg.remap_interval);
      for (const sim::RankStats& st : run.gather_stats())
        moved += st.planes_sent;
    }
    if (comm.rank() == 0 && moved > 0) check = run.phase_count();
  });
  ASSERT_GT(check, 0) << "none of the first 10 remap checks moved a plane";

  sim::Simulation ref(grid, cfg.fluid);
  ref.initialize_uniform();
  ref.run(static_cast<int>(check));
  lbm::write_vtk(ref.slab(), g.dir + "/ref.vtk");
  const VtkTile want = read_vtk_tile(g.dir + "/ref.vtk");

  lbm::index_t covered = 0;
  for (int rank = 0; rank < 3; ++rank) {
    const VtkTile got =
        read_vtk_tile(cfg.output.vtk_prefix + "." + std::to_string(check) +
                      ".r" + std::to_string(rank) + ".vtk");
    covered += got.nx;
    for (lbm::index_t z = 0; z < grid.nz; ++z)
      for (lbm::index_t y = 0; y < grid.ny; ++y)
        for (lbm::index_t lx = 0; lx < got.nx; ++lx) {
          const lbm::index_t gx = got.x0 + lx;
          const auto i =
              static_cast<std::size_t>(lx + got.nx * (y + grid.ny * z));
          const auto j =
              static_cast<std::size_t>(gx + grid.nx * (y + grid.ny * z));
          if (!ref.geometry().solid(gx, y, z)) {
            EXPECT_NE(std::stod(got.density_total[i]), 0.0)
                << "rank " << rank << " cell " << gx << "," << y << "," << z;
          }
          EXPECT_EQ(got.velocity[i], want.velocity[j])
              << "rank " << rank << " cell " << gx << "," << y << "," << z;
        }
  }
  EXPECT_EQ(covered, grid.nx);
}

TEST(Output, OutputDoesNotPerturbObservables) {
  // Same injected clocks, same live balancer; the only difference is
  // whether checkpoints and VTK snapshots are written, which must be
  // invisible to the physics AND to the balancer's clock sequence.
  DirGuard g;
  sim::OutputOptions none;
  sim::OutputOptions out;
  out.checkpoint_every = 3;
  out.checkpoint_prefix = g.dir + "/o";
  out.vtk_every = 4;
  out.vtk_prefix = g.dir + "/o";

  const auto u_none = output_leg(3, 20, none);
  const auto u_out = output_leg(3, 20, out);
  ASSERT_EQ(u_out.size(), u_none.size());
  for (std::size_t j = 0; j < u_none.size(); ++j)
    EXPECT_DOUBLE_EQ(u_out[j], u_none[j]) << j;
}

TEST(Output, RunWritesPeriodicOutputsByItsEnd) {
  DirGuard g;
  sim::OutputOptions out;
  out.checkpoint_every = 4;
  out.checkpoint_prefix = g.dir + "/run";
  out.vtk_every = 4;
  out.vtk_prefix = g.dir + "/run";
  (void)output_leg(2, 8, out);
  // run() returned on every rank, so every output is complete on disk
  // and no checkpoint is left behind under its temporary name.
  for (int phase : {4, 8}) {
    const std::string tag = std::to_string(phase);
    expect_complete_checkpoint(g.dir + "/run." + tag + ".ckpt", phase);
    EXPECT_FALSE(
        std::filesystem::exists(g.dir + "/run." + tag + ".ckpt.tmp"));
    EXPECT_TRUE(std::filesystem::exists(g.dir + "/run." + tag + ".r0.vtk"));
    EXPECT_TRUE(std::filesystem::exists(g.dir + "/run." + tag + ".r1.vtk"));
  }
}

TEST(Output, CheckpointReplacesNotRewrites) {
  DirGuard g;
  // A periodic checkpoint lands on a name that already holds a file.
  const std::string periodic = g.dir + "/ck.5.ckpt";
  plant_stale_file(periodic, g.dir + "/periodic.witness");
  sim::OutputOptions out;
  out.checkpoint_every = 5;
  out.checkpoint_prefix = g.dir + "/ck";
  (void)output_leg(2, 5, out);
  EXPECT_TRUE(read_file(g.dir + "/periodic.witness") == kStale)
      << "the old file was rewritten in place";
  expect_complete_checkpoint(periodic, 5);
  EXPECT_FALSE(std::filesystem::exists(periodic + ".tmp"));

  // So does an explicit collective save_checkpoint, which on return has
  // published a complete file that every rank can read back.
  const std::string api = g.dir + "/api.ckpt";
  plant_stale_file(api, g.dir + "/api.witness");
  const sim::RunnerConfig cfg = output_config(sim::OutputOptions{});
  transport::run_ranks(2, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(3);
    run.save_checkpoint(api, 3);
    expect_complete_checkpoint(api, 3);
    comm.barrier();  // no rank leaves while a peer still reads the file
  });
  EXPECT_TRUE(read_file(g.dir + "/api.witness") == kStale)
      << "the old file was rewritten in place";
  EXPECT_FALSE(std::filesystem::exists(api + ".tmp"));
}

TEST(Output, IntervalWithoutPrefixIsRejected) {
  // An interval with no prefix would write hidden files (".<P>.ckpt")
  // into the working directory; the runner refuses the configuration.
  sim::OutputOptions ckpt;
  ckpt.checkpoint_every = 5;
  sim::OutputOptions vtk;
  vtk.vtk_every = 5;
  transport::run_ranks(1, [&](transport::Communicator& comm) {
    EXPECT_THROW(sim::ParallelLbm(output_config(ckpt), comm),
                 contract_error);
    EXPECT_THROW(sim::ParallelLbm(output_config(vtk), comm), contract_error);
  });
}
