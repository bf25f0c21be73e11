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
#include "obs/clock.hpp"
#include "sim/parallel_lbm.hpp"
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

}  // namespace

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
