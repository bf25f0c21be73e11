// End-to-end multi-process runs: the launcher spawns real
// slipflow_worker binaries (SLIPFLOW_WORKER_EXE, injected by CMake) over
// Unix-domain sockets, and the physics they produce must be byte-
// identical to the same configuration over in-process ThreadComm.
//
// Determinism rests on injected CountingClocks (obs/clock.hpp): every
// "measured" stage time is a pure function of the call sequence, so the
// remapping decisions — and therefore plane migrations, masses and
// profiles — cannot depend on which transport carried the messages.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.hpp"
#include "sim/worker.hpp"
#include "transport/frame.hpp"
#include "transport/launcher.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;

namespace {

constexpr int kRanks = 4;
constexpr int kPhases = 40;

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

/// The reference configuration, identical to the worker flags below.
sim::RunnerConfig reference_config() {
  sim::RunnerConfig cfg;
  cfg.global = lbm::Extents{16, 6, 4};
  cfg.fluid = lbm::FluidParams::microchannel_defaults();
  cfg.policy = "filtered";
  cfg.remap_interval = 5;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;
  // rank 1 is virtually 4x slower — the remapper must move planes off it
  cfg.clock_factory = [](int rank) -> std::shared_ptr<obs::Clock> {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  return cfg;
}

std::string run_over_threads() {
  const sim::RunnerConfig cfg = reference_config();
  std::string observables;
  transport::run_ranks(kRanks, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(kPhases);
    const std::string obs = sim::collect_observables(run, comm, cfg.global);
    if (comm.rank() == 0) observables = obs;
  });
  return observables;
}

transport::LaunchConfig worker_launch(const std::string& observables_out,
                                      const std::string& transport = "") {
  transport::LaunchConfig lc;
  lc.ranks = kRanks;
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
                       "--observables-out=" + observables_out};
  lc.heartbeat_interval = 0.1;
  lc.heartbeat_grace = 10.0;
  lc.wall_clock_timeout = 90.0;
  return lc;
}

/// SIGKILLs rank 2 at phase 40 of a long run and checks that the launcher
/// blames rank 2 by its signal and ends the run inside the wall clock.
void expect_killed_rank_named(const std::string& transport) {
  transport::LaunchConfig lc =
      worker_launch(temp_path("obs_killed_" + transport), transport);
  lc.worker_command.back() = "--phases=5000";  // replace observables-out
  lc.wall_clock_timeout = 60.0;
  lc.extra_args[2] = {"--fault-kill-phase=40"};
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed_rank, 2) << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("rank 2 killed by signal 9"),
            std::string::npos)
      << res.diagnostic;
  EXPECT_LT(res.elapsed_seconds, 60.0);
}

}  // namespace

TEST(MultiProcess, SocketObservablesAreByteIdenticalToThreads) {
  const std::string out = temp_path("obs_socket");
  const transport::LaunchResult res =
      transport::launch_workers(worker_launch(out));
  ASSERT_TRUE(res.ok) << res.diagnostic;

  const std::string socket_obs = read_file(out);
  std::remove(out.c_str());
  const std::string thread_obs = run_over_threads();

  ASSERT_FALSE(socket_obs.empty());
  EXPECT_EQ(socket_obs, thread_obs)
      << "real-process physics diverged from the in-process reference";
  // sanity: the virtually slow rank actually shed planes, so the
  // comparison covers migrated state, not just an untouched lattice
  EXPECT_NE(socket_obs.find("rank 1 planes"), std::string::npos);
  EXPECT_EQ(socket_obs.find("rank 1 planes 4 sent 0"), std::string::npos)
      << "expected rank 1 to migrate planes away:\n"
      << socket_obs.substr(0, 400);
}

TEST(MultiProcess, ShmObservablesAreByteIdenticalToSocketAndThreads) {
  // Same launch, halos over shared-memory rings instead of sockets: the
  // observables must not move by a single byte.
  const std::string out_shm = temp_path("obs_shm");
  const transport::LaunchResult rs =
      transport::launch_workers(worker_launch(out_shm, "shm"));
  ASSERT_TRUE(rs.ok) << rs.diagnostic;
  const std::string shm_obs = read_file(out_shm);
  std::remove(out_shm.c_str());

  const std::string out_sock = temp_path("obs_sock_ref");
  const transport::LaunchResult rk =
      transport::launch_workers(worker_launch(out_sock, "socket"));
  ASSERT_TRUE(rk.ok) << rk.diagnostic;
  const std::string socket_obs = read_file(out_sock);
  std::remove(out_sock.c_str());

  ASSERT_FALSE(shm_obs.empty());
  EXPECT_EQ(shm_obs, socket_obs)
      << "shm workers diverged from socket workers";
  EXPECT_EQ(shm_obs, run_over_threads())
      << "shm workers diverged from the in-process reference";
  // migrations really happened over the rings
  EXPECT_EQ(shm_obs.find("rank 1 planes 4 sent 0"), std::string::npos)
      << "expected rank 1 to migrate planes away:\n"
      << shm_obs.substr(0, 400);
}

TEST(MultiProcess, ShmKilledRankIsNamedWithinTimeout) {
  // The supervision story must not regress on the shm transport: a rank
  // SIGKILLed mid-run is still named, and the run still ends promptly.
  expect_killed_rank_named("shm");
}

TEST(MultiProcess, RepeatedSocketRunsAreByteIdentical) {
  const std::string out_a = temp_path("obs_a");
  const std::string out_b = temp_path("obs_b");
  const transport::LaunchResult ra =
      transport::launch_workers(worker_launch(out_a));
  ASSERT_TRUE(ra.ok) << ra.diagnostic;
  const transport::LaunchResult rb =
      transport::launch_workers(worker_launch(out_b));
  ASSERT_TRUE(rb.ok) << rb.diagnostic;
  const std::string a = read_file(out_a);
  const std::string b = read_file(out_b);
  std::remove(out_a.c_str());
  std::remove(out_b.c_str());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(MultiProcess, KilledRankIsNamedWithinTimeout) {
  // The supervisor reaps each exit as it happens, so the SIGKILLed rank
  // and the peers that then fail on the closed connection are seen in
  // either order; the blame must still land on the signalled rank, on
  // both process transports, every time.
  for (const std::string transport : {"socket", "shm"}) {
    for (int rep = 0; rep < 5; ++rep) {
      SCOPED_TRACE(transport + " repeat " + std::to_string(rep));
      expect_killed_rank_named(transport);
    }
  }
}

TEST(MultiProcess, LaunchReturnsAsSoonAsWorkersExit) {
  // Worker exits wake the supervisor instead of waiting out its 50 ms
  // tick: four ranks that exit at once (/bin/true ignores the appended
  // flags) are reaped well inside one tick.
  transport::LaunchConfig lc;
  lc.ranks = 4;
  lc.worker_command = {"/bin/true"};
  lc.wall_clock_timeout = 20.0;
  std::vector<double> elapsed;
  for (int rep = 0; rep < 5; ++rep) {
    const transport::LaunchResult res = transport::launch_workers(lc);
    ASSERT_TRUE(res.ok) << res.diagnostic;
    elapsed.push_back(res.elapsed_seconds);
  }
  std::sort(elapsed.begin(), elapsed.end());
  EXPECT_LT(elapsed[elapsed.size() / 2], 0.045);
}

TEST(MultiProcess, FrozenRankIsCaughtByHeartbeatSilence) {
  transport::LaunchConfig lc = worker_launch(temp_path("obs_frozen"));
  lc.worker_command.back() = "--phases=5000";
  lc.heartbeat_interval = 0.1;
  lc.heartbeat_grace = 1.5;
  lc.wall_clock_timeout = 60.0;
  lc.extra_args[1] = {"--fault-stop-phase=40"};  // SIGSTOP: silent freeze
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.failed_rank, 1) << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("heartbeat silent"), std::string::npos)
      << res.diagnostic;
  EXPECT_LT(res.elapsed_seconds, 30.0);
}

TEST(MultiProcess, HeartbeatChannelVouchesOnlyForItsRank) {
  // Rank 0 keeps writing well-formed heartbeats that claim to come from
  // rank 1 (phase 7) onto its own channel, fd 3; rank 1 stays silent.
  // The forged beats must neither keep rank 1 alive nor report progress
  // for it.
  transport::FrameHeader h;
  h.kind = transport::FrameKind::kHeartbeat;
  h.src = 1;
  h.count = 2;
  const double payload[2] = {7.0, 0.0};
  std::vector<std::byte> frame(transport::kFrameHeaderBytes + sizeof(payload));
  const auto hdr = transport::encode_frame_header(h);
  std::memcpy(frame.data(), hdr.data(), hdr.size());
  std::memcpy(frame.data() + hdr.size(), payload, sizeof(payload));
  std::string octal;
  for (const std::byte b : frame) {
    char esc[8];
    std::snprintf(esc, sizeof(esc), "\\%03o", static_cast<unsigned>(b));
    octal += esc;
  }
  // SIGPIPE is ignored so rank 0 outlives the launcher closing its
  // channel; `exec sleep` leaves no orphan when rank 1 is killed.
  const std::string script =
      "trap '' PIPE; if [ \"$1\" = --rank=0 ]; then while :; do printf '" +
      octal + "' >&3 2>/dev/null; sleep 0.05; done; else exec sleep 30; fi";
  transport::LaunchConfig lc;
  lc.ranks = 2;
  lc.worker_command = {"/bin/sh", "-c", script, "sh"};
  lc.heartbeat_grace = 1.0;
  lc.wall_clock_timeout = 20.0;
  bool rank1_progress = false;
  lc.on_progress = [&](int rank, long long) {
    if (rank == 1) rank1_progress = true;
  };
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.diagnostic.find("heartbeat silent"), std::string::npos)
      << res.diagnostic;
  EXPECT_LT(res.elapsed_seconds, lc.heartbeat_grace + 2.0);
  ASSERT_EQ(res.last_phase.size(), 2u);
  EXPECT_EQ(res.last_phase[1], -1);
  EXPECT_FALSE(rank1_progress);
}

TEST(MultiProcess, MissingWorkerBinaryFailsFast) {
  transport::LaunchConfig lc;
  lc.ranks = 2;
  lc.worker_command = {"/nonexistent/slipflow_worker"};
  lc.wall_clock_timeout = 20.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.diagnostic.find("exited with code 127"), std::string::npos)
      << res.diagnostic;
}

TEST(MultiProcess, WorkerRejectsUnknownFlags) {
  transport::LaunchConfig lc;
  lc.ranks = 1;
  lc.worker_command = {SLIPFLOW_WORKER_EXE, "--phases=1", "--no-such-flag=1"};
  lc.wall_clock_timeout = 20.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.diagnostic.find("exited with code 2"), std::string::npos)
      << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("no-such-flag"), std::string::npos)
      << res.diagnostic;
  // The diagnostic must teach, not just scold: it lists the worker's
  // actual flag surface so sweep-script typos are one edit from fixed.
  EXPECT_NE(res.diagnostic.find("valid flags"), std::string::npos)
      << res.diagnostic;
  EXPECT_NE(res.diagnostic.find("--phases"), std::string::npos)
      << res.diagnostic;
}

// An output interval without its prefix would write hidden files into
// the working directory; the worker names the missing flag instead.
TEST(MultiProcess, WorkerRejectsOutputIntervalWithoutPrefix) {
  for (const auto& [interval, needed] :
       {std::pair<std::string, std::string>{"--checkpoint-every=5",
                                            "--checkpoint-out"},
        {"--vtk-every=5", "--vtk-out"}}) {
    transport::LaunchConfig lc;
    lc.ranks = 1;
    lc.worker_command = {SLIPFLOW_WORKER_EXE, "--phases=10", interval};
    lc.wall_clock_timeout = 20.0;
    const transport::LaunchResult res = transport::launch_workers(lc);
    EXPECT_FALSE(res.ok) << interval;
    EXPECT_NE(res.diagnostic.find("exited with code 2"), std::string::npos)
        << res.diagnostic;
    EXPECT_NE(res.diagnostic.find(needed), std::string::npos)
        << res.diagnostic;
  }
}

// The same flag hygiene holds for the launcher-side binaries: every
// example rejects a typo'd flag with exit code 2 and the valid-flag list.
TEST(MultiProcess, ExampleRejectsUnknownFlags) {
  const std::string cmd = std::string(SLIPFLOW_EXAMPLE_EXE) +
                          " --ranks=1 --no-such-flag=1 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find("no-such-flag"), std::string::npos) << output;
  EXPECT_NE(output.find("valid flags"), std::string::npos) << output;
  EXPECT_NE(output.find("--ranks"), std::string::npos) << output;
}
