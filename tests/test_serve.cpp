// The campaign server (src/serve): spec parsing + admission, fair-share
// scheduling, the warm-state cache, and — end to end, over the real
// control socket with real launched workers — the service guarantees the
// design doc promises:
//
//   * concurrent tenant jobs produce observables byte-identical to a
//     direct standalone launch of the same spec (make_launch_config is
//     the shared argv builder, and the physics is decomposition-
//     invariant, so this is structural — the test pins it anyway);
//   * a killed rank is named in the diagnostic and the job recovers
//     from its newest complete checkpoint, converging to the same bytes
//     as a clean run;
//   * a warm-cache hit provably skips the equilibration prefix
//     (phases_executed == phases - warm_phases) across rank counts.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "lbm/checkpoint.hpp"
#include "serve/client.hpp"
#include "serve/job_spec.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/warm_cache.hpp"
#include "sim/worker.hpp"
#include "transport/launcher.hpp"
#include "util/json.hpp"

#ifndef SLIPFLOW_WORKER_EXE
#error "SLIPFLOW_WORKER_EXE must point at the slipflow_worker binary"
#endif
#ifndef SLIPFLOW_SUBMIT_EXE
#error "SLIPFLOW_SUBMIT_EXE must point at the slipflow_submit binary"
#endif

using namespace slipflow;
using serve::JobSpec;
using util::JsonValue;

namespace {

std::string temp_dir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "slipflow_serve_" + name + "." +
                        std::to_string(::getpid());
  std::filesystem::create_directories(d);
  return d;
}

/// Short socket path (sun_path is 108 bytes; TempDir may be deep).
std::string socket_path(const std::string& name) {
  return "/tmp/sf_" + name + "." + std::to_string(::getpid()) + ".sock";
}

JobSpec small_spec() {
  JobSpec s;
  s.nx = 16;
  s.ny = 6;
  s.nz = 4;
  s.phases = 20;
  s.ranks = 2;
  s.wall_clock_budget = 60.0;
  return s;
}

/// Run the spec standalone — the same argv builder the server uses —
/// and return the observables bytes.
std::string run_direct(const JobSpec& spec, const std::string& dir) {
  serve::JobPaths paths;
  paths.observables_out = dir + "/obs_direct.txt";
  const transport::LaunchConfig lc =
      serve::make_launch_config(spec, SLIPFLOW_WORKER_EXE, paths);
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  std::ifstream f(paths.observables_out, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing " << paths.observables_out;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------- spec --

TEST(Serve, JobSpecDefaultsAndRoundTrip) {
  const JobSpec defaults = JobSpec::from_json(util::json_parse("{}"));
  EXPECT_EQ(defaults.nx, 16);
  EXPECT_EQ(defaults.components, 2);
  EXPECT_EQ(defaults.transport, "socket");
  EXPECT_EQ(defaults.observables, "physics");

  JobSpec s = small_spec();
  s.wall_accel = 0.3;
  s.gravity = 1e-5;
  s.warm_phases = 8;
  s.stream_every = 5;
  s.fault_kill_rank = 1;
  s.fault_kill_phase = 7;
  const JobSpec back = JobSpec::from_json(s.to_json());
  EXPECT_EQ(back.to_json().dump(), s.to_json().dump());
}

TEST(Serve, JobSpecRejectsUnknownKeys) {
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"phasez":10})")),
               serve::serve_error);
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"geometry":{"nx":16,"nw":2}})")),
      serve::serve_error);
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"params":{"gravty":1e-5}})")),
      serve::serve_error);
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"fault":{"kill_node":1}})")),
      serve::serve_error);
}

TEST(Serve, JobSpecValidatesValues) {
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"components":3})")),
               serve::serve_error);
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"transport":"tcp"})")),
               serve::serve_error);
  // The step schedule is not a spec field: there is only one.
  EXPECT_THROW(JobSpec::from_json(util::json_parse(R"({"step":"overlap"})")),
               serve::serve_error);
  // One plane per rank minimum: nx must cover the rank count.
  EXPECT_THROW(
      JobSpec::from_json(util::json_parse(R"({"geometry":{"nx":4},"ranks":8})")),
      serve::serve_error);
  // Warm prefix cannot exceed the run itself.
  EXPECT_THROW(JobSpec::from_json(
                   util::json_parse(R"({"phases":10,"warm_phases":11})")),
               serve::serve_error);
  // Integers beyond their field's type are refused by name before any
  // narrowing: 4294967298 ranks once ran as a 2-rank job, and 1e300
  // phases was an undefined double-to-integer cast.
  const std::pair<const char*, const char*> hostile[] = {
      {R"({"ranks":4294967298})", "ranks"},
      {R"({"remap_interval":4294967301})", "remap_interval"},
      {R"({"window":-4294967295})", "window"},
      {R"({"threads":4294967297})", "threads"},
      {R"({"fault":{"kill_rank":4294967296}})", "kill_rank"},
      {R"({"phases":1e300})", "\"phases\" is out of integer range"},
      // phases reaches ParallelLbm::run(int) and checkpoint_every an int
      // interval: 4294967301 phases once ran as 5.
      {R"({"phases":4294967301})", "phases"},
      {R"({"phases":2147483648})", "phases"},
      {R"({"checkpoint_every":4294967297})", "checkpoint_every"},
      // A ring below the shm minimum killed every rank; a negative one
      // silently ran the default.
      {R"({"transport":"shm","shm_ring_bytes":100})", "shm_ring_bytes"},
      {R"({"shm_ring_bytes":-5})", "shm_ring_bytes"}};
  for (const auto& [spec, field] : hostile) {
    try {
      JobSpec::from_json(util::json_parse(spec));
      ADD_FAILURE() << spec << " was admitted";
    } catch (const std::runtime_error& e) {  // serve_error or json_error
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  EXPECT_NO_THROW(JobSpec::from_json(util::json_parse(
      R"({"phases":2147483647,"transport":"shm","shm_ring_bytes":4096})")));
}

// The worker reads its job flags through the same table and rules as
// admission, so a value admission refuses never reaches a running rank.
TEST(Serve, WorkerRejectsWhatAdmissionRejects) {
  const std::string dir = temp_dir("worker_flags");
  const std::string vtk_out = "--vtk-out=" + dir + "/v";
  const std::pair<std::vector<std::string>, const char*> cases[] = {
      {{"--phases=4294967301"}, "--phases"},
      {{"--checkpoint-every=4294967296"}, "--checkpoint-every"},
      {{"--policy=bogus"}, "--policy"},
      // Narrowed to int this is 1: a snapshot every phase.
      {{"--phases=3", "--vtk-every=4294967297", vtk_out}, "--vtk-every"},
      // Malformed numbers: Options::get throws, which must not escape.
      {{"--recv-timeout=abc"}, "--recv-timeout"},
      {{"--rank=x"}, "--rank"}};
  for (const auto& [flags, name] : cases) {
    std::vector<const char*> argv = {"slipflow_worker"};
    for (const std::string& f : flags) argv.push_back(f.c_str());
    ::testing::internal::CaptureStderr();
    const int rc = sim::worker_main(static_cast<int>(argv.size()), argv.data());
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(rc, 2) << flags.front() << ": " << err;
    EXPECT_NE(err.find(name), std::string::npos)
        << flags.front() << ": " << err;
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(Serve, JobSpecRejectsBadBalancerKnobs) {
  // Each of these once passed admission and then killed every rank on
  // an anonymous contract error; the rejection must name the field.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"window":0})", "window"},
      {R"({"policy":"bogus"})", "policy"},
      {R"({"min_transfer":-5})", "min_transfer"},
      {R"({"min_transfer":0})", "min_transfer"}};
  for (const auto& [spec, field] : cases) {
    try {
      JobSpec::from_json(util::json_parse(spec));
      ADD_FAILURE() << spec << " was admitted";
    } catch (const serve::serve_error& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << spec << ": " << e.what();
    }
  }
  EXPECT_NO_THROW(JobSpec::from_json(util::json_parse(
      R"({"policy":"global","window":1,"min_transfer":1})")));
}

TEST(Serve, WarmKeyIgnoresSchedulingFields) {
  JobSpec a = small_spec();
  a.warm_phases = 10;
  JobSpec b = a;
  // Everything the equilibrated state is invariant to: decomposition,
  // transport, threading, policy — and the total phase count.
  b.ranks = 4;
  b.transport = "shm";
  b.threads = 2;
  b.policy = "greedy";
  b.phases = 200;
  b.stream_every = 5;
  b.checkpoint_every = 5;
  EXPECT_EQ(a.warm_key(), b.warm_key());

  JobSpec c = a;
  c.wall_accel += 0.1;  // different physics → different entry
  EXPECT_NE(a.warm_key(), c.warm_key());
  JobSpec d = a;
  d.nx = 32;
  EXPECT_NE(a.warm_key(), d.warm_key());
  JobSpec e = a;
  e.warm_phases = 12;  // same physics, different equilibration depth
  EXPECT_NE(a.warm_key(), e.warm_key());
}

// ------------------------------------------------------------- lowering --

TEST(Serve, MakeLaunchConfigLowersSpec) {
  JobSpec s = small_spec();
  s.checkpoint_every = 5;
  s.fault_kill_rank = 1;
  s.fault_kill_phase = 12;
  serve::JobPaths paths;
  paths.observables_out = "/tmp/o.txt";
  paths.checkpoint_prefix = "/tmp/ck";
  const transport::LaunchConfig lc =
      serve::make_launch_config(s, "worker", paths);
  EXPECT_EQ(lc.ranks, 2);
  const auto has = [&](const std::string& arg) {
    for (const std::string& a : lc.worker_command)
      if (a == arg) return true;
    return false;
  };
  EXPECT_TRUE(has("--nx=16"));
  EXPECT_TRUE(has("--wall-accel=0.2"));
  EXPECT_TRUE(has("--gravity=2e-05"));
  EXPECT_TRUE(has("--observables=physics"));
  // Checkpointing adds exactly its interval and prefix to the argv: no
  // output-path flag rides along, because the runner publishes every
  // checkpoint by rename (pinned by Output.CheckpointReplacesNotRewrites).
  JobSpec plain = s;
  plain.checkpoint_every = 0;
  std::vector<std::string> expected =
      serve::make_launch_config(plain, "worker", paths).worker_command;
  expected.push_back("--checkpoint-every=5");
  expected.push_back("--checkpoint-out=/tmp/ck");
  EXPECT_EQ(lc.worker_command, expected);
  // The injected fault reaches only the guilty rank's argv.
  ASSERT_EQ(lc.extra_args.count(1), 1u);
  EXPECT_EQ(lc.extra_args.at(1).front(), "--fault-kill-phase=12");
  EXPECT_EQ(lc.extra_args.count(0), 0u);
}

// The README quickstart spec, lowered with the paths CampaignServer::run_job
// passes, keeps its exact worker argv (order included) and its exact
// warm-cache key: a changed key would orphan every warm checkpoint already
// on disk.
TEST(Serve, ReadmeSpecLowersToPinnedArgvAndWarmKey) {
  const JobSpec spec = JobSpec::from_json(util::json_parse(
      R"({"geometry": {"nx": 64, "ny": 16, "nz": 8}, "phases": 400,
          "ranks": 4, "warm_phases": 100, "stream_every": 50,
          "checkpoint_every": 50})"));
  serve::JobPaths miss;  // a warm-cache miss: this job produces the entry
  miss.observables_out = "/work/job_1/observables.txt";
  miss.checkpoint_prefix = "/work/job_1/ck";
  miss.stream_dir = "/work/job_1/stream";
  miss.warm_checkpoint_out = "/work/job_1/warm.ckpt";
  const transport::LaunchConfig lc =
      serve::make_launch_config(spec, "worker", miss);
  const std::vector<std::string> head = {
      "worker", "--nx=64", "--ny=16", "--nz=8", "--phases=400",
      "--wall-accel=0.2", "--wall-decay=2.5", "--air-fraction=0.03",
      "--coupling-g=1", "--gravity=2e-05", "--policy=filtered",
      "--remap-interval=5", "--window=3", "--min-transfer=24", "--threads=1",
      "--observables=physics",
      "--observables-out=/work/job_1/observables.txt"};
  const std::vector<std::string> tail = {"--stream-every=50",
                                         "--stream-dir=/work/job_1/stream",
                                         "--checkpoint-every=50",
                                         "--checkpoint-out=/work/job_1/ck"};
  std::vector<std::string> expected = head;
  expected.push_back("--warm-phases=100");
  expected.push_back("--warm-checkpoint-out=/work/job_1/warm.ckpt");
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(lc.worker_command, expected);
  EXPECT_EQ(lc.ranks, 4);
  EXPECT_EQ(lc.transport, "socket");
  EXPECT_EQ(lc.shm_ring_bytes, 0);
  EXPECT_EQ(lc.heartbeat_interval, 0.25);
  EXPECT_EQ(lc.heartbeat_grace, 5.0);
  EXPECT_EQ(lc.wall_clock_timeout, 120.0);
  EXPECT_TRUE(lc.extra_args.empty());

  // A warm-cache hit seeds from the cached state and publishes none.
  serve::JobPaths hit = miss;
  hit.warm_checkpoint_out.clear();
  hit.load_checkpoint = "/work/warm_cache/entry.ckpt";
  expected = head;
  expected.push_back("--load-checkpoint=/work/warm_cache/entry.ckpt");
  expected.insert(expected.end(), tail.begin(), tail.end());
  EXPECT_EQ(serve::make_launch_config(spec, "worker", hit).worker_command,
            expected);

  EXPECT_EQ(spec.warm_key(),
            R"({"components":2,"geometry":{"nx":64,"ny":16,"nz":8},)"
            R"("params":{"air_fraction":0.03,"coupling_g":1,"gravity":2e-05,)"
            R"("wall_accel":0.2,"wall_decay":2.5},"warm_phases":100})");
}

// ------------------------------------------------------------ fair share --

TEST(Serve, PickNextJobFairShare) {
  using serve::QueuedJob;
  const std::map<std::string, int> none;
  EXPECT_EQ(serve::pick_next_job({}, none, 8), -1);

  // Nothing fits the gap.
  EXPECT_EQ(serve::pick_next_job({{1, "a", 4}}, none, 2), -1);

  // A wide job never blocks a narrower one behind it.
  EXPECT_EQ(serve::pick_next_job({{1, "a", 8}, {2, "b", 2}}, none, 4), 1);

  // Fair share: the tenant holding fewer running slots wins even when
  // queued later.
  const std::map<std::string, int> loads{{"a", 4}, {"b", 0}};
  EXPECT_EQ(serve::pick_next_job({{1, "a", 2}, {2, "b", 2}}, loads, 4), 1);

  // Equal load → submission order.
  EXPECT_EQ(serve::pick_next_job({{1, "a", 2}, {2, "b", 2}}, none, 4), 0);
}

// ------------------------------------------------------------ warm cache --

TEST(Serve, WarmCacheHashAndRejection) {
  EXPECT_EQ(serve::WarmCache::hash_key("abc"),
            serve::WarmCache::hash_key("abc"));
  EXPECT_NE(serve::WarmCache::hash_key("abc"),
            serve::WarmCache::hash_key("abd"));

  const std::string dir = temp_dir("cache");
  serve::WarmCache cache(dir + "/warm");
  EXPECT_EQ(cache.lookup("no-such-key", 10), "");

  // A torn / foreign file must never become a cache entry.
  const std::string junk = dir + "/junk.ckpt";
  std::ofstream(junk, std::ios::binary) << "not a checkpoint";
  EXPECT_FALSE(cache.promote("some-key", 10, junk));
  EXPECT_EQ(cache.lookup("some-key", 10), "");

  // Nor does a complete entry of checkpoint format version 1: the same
  // file hits until its version field says 1.
  const std::string entry =
      dir + "/warm/warm_" + serve::WarmCache::hash_key("v1-key") + ".ckpt";
  // two components: (23 x 2 + 4) doubles per cell, 6 cells per plane
  lbm::begin_checkpoint(lbm::Extents{4, 3, 2}, 2, 10, 50 * 6, entry);
  EXPECT_EQ(cache.lookup("v1-key", 10), entry);
  {
    std::fstream f(entry, std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t version = 1;
    f.seekp(sizeof(std::uint64_t));  // the field after the magic
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }
  EXPECT_EQ(cache.lookup("v1-key", 10), "");
}

// ------------------------------------------------------------- admission --

TEST(Serve, AdmissionRejects) {
  serve::CampaignServer::Config cfg;
  cfg.work_dir = temp_dir("admission");
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  cfg.policy.total_slots = 4;
  cfg.policy.max_ranks_per_job = 2;
  cfg.policy.max_queued = 0;  // every queued job is one too many
  serve::CampaignServer server(cfg);
  server.start();

  JobSpec wide = small_spec();
  wide.ranks = 3;  // > max_ranks_per_job
  EXPECT_THROW(server.submit("t", wide), serve::serve_error);

  // Fits the per-job cap but the queue is full.
  EXPECT_THROW(server.submit("t", small_spec()), serve::serve_error);
  server.stop();

  serve::CampaignServer::Config cfg2;
  cfg2.work_dir = temp_dir("admission2");
  cfg2.worker_exe = SLIPFLOW_WORKER_EXE;
  cfg2.policy.total_slots = 2;
  cfg2.policy.max_ranks_per_job = 8;
  serve::CampaignServer server2(cfg2);
  server2.start();
  JobSpec pool = small_spec();
  pool.ranks = 4;  // wider than the whole pool
  EXPECT_THROW(server2.submit("t", pool), serve::serve_error);
  server2.stop();
}

TEST(Serve, StopUnlinksControlSocket) {
  // A stopped server leaves no control socket behind in the directory.
  serve::CampaignServer::Config cfg;
  cfg.socket_path = socket_path("stop");
  cfg.work_dir = temp_dir("stop");
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();
  EXPECT_TRUE(std::filesystem::exists(cfg.socket_path));
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(cfg.socket_path)) << cfg.socket_path;
}

TEST(Serve, AdmissionCapsThreadsAtHardwareConcurrency) {
  serve::CampaignServer::Config cfg;
  cfg.work_dir = temp_dir("admission_threads");
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();
  const int limit =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  JobSpec greedy = small_spec();
  greedy.threads = limit + 1;
  try {
    server.submit("t", greedy);
    ADD_FAILURE() << "threads=" << greedy.threads << " was admitted";
  } catch (const serve::serve_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("threads=" + std::to_string(limit + 1)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("at most " + std::to_string(limit)),
              std::string::npos)
        << what;
  }

  JobSpec fits = small_spec();
  fits.threads = limit;
  const long long id = server.submit("t", fits);
  EXPECT_EQ(server.wait(id).string_or("state", ""), "done");
  server.stop();
}

// ---------------------------------------------------------------- e2e ---

// Three tenants, three concurrent jobs over the real control socket,
// each byte-identical to a direct standalone run of the same spec.
TEST(ServeE2E, ConcurrentJobsMatchDirectRuns) {
  const std::string dir = temp_dir("e2e_concurrent");
  serve::CampaignServer::Config cfg;
  cfg.socket_path = socket_path("conc");
  cfg.work_dir = dir;
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  cfg.policy.total_slots = 6;  // all three 2-rank jobs run at once
  serve::CampaignServer server(cfg);
  server.start();

  std::vector<JobSpec> specs;
  for (int i = 0; i < 3; ++i) {
    JobSpec s = small_spec();
    s.gravity = 2e-5 * (i + 1);  // three distinct physics
    specs.push_back(s);
  }

  serve::Client client(cfg.socket_path);
  std::vector<long long> ids;
  for (int i = 0; i < 3; ++i)
    ids.push_back(client.submit("tenant" + std::to_string(i), specs[i]));

  for (int i = 0; i < 3; ++i) {
    const JsonValue rec = client.wait(ids[i]);
    ASSERT_EQ(rec.string_or("state", ""), "done")
        << rec.string_or("diagnostic", "");
    const std::string direct =
        run_direct(specs[i], temp_dir("e2e_direct" + std::to_string(i)));
    EXPECT_EQ(rec.string_or("observables", ""), direct)
        << "served job " << ids[i] << " diverged from its direct run";
  }

  const JsonValue st = client.stats();
  EXPECT_EQ(st.int_or("done", -1), 3);
  EXPECT_EQ(st.int_or("failed", -1), 0);
  server.stop();
}

// The README's byte-identity reference (`slipflow_submit --direct
// --out-dir=ref`) must work as written, with no mkdir first.
TEST(ServeE2E, SubmitDirectCreatesMissingOutDir) {
  const std::string dir = temp_dir("e2e_outdir");
  const std::string spec_path = dir + "/job.json";
  std::ofstream(spec_path) << small_spec().to_json().dump();
  const std::string out = dir + "/not/yet/there";
  ASSERT_FALSE(std::filesystem::exists(out));
  const std::string cmd = std::string(SLIPFLOW_SUBMIT_EXE) +
                          " --direct --spec=" + spec_path +
                          " --out-dir=" + out + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (fgets(buf, sizeof buf, pipe) != nullptr) output += buf;
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << output;
  std::ifstream f(out + "/obs_direct1.txt", std::ios::binary);
  ASSERT_TRUE(f.good()) << output;
  std::ostringstream got;
  got << f.rdbuf();
  EXPECT_EQ(got.str(), run_direct(small_spec(), dir));
}

// A rank killed mid-run is named in the preserved diagnostic; the job
// recovers from its newest complete checkpoint on attempt 2 and still
// converges to the clean run's bytes.
TEST(ServeE2E, KilledRankRecoversFromCheckpoint) {
  const std::string dir = temp_dir("e2e_recovery");
  serve::CampaignServer::Config cfg;
  cfg.work_dir = dir;
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();

  JobSpec s = small_spec();
  s.checkpoint_every = 5;
  s.fault_kill_rank = 1;
  s.fault_kill_phase = 12;

  const long long id = server.submit("chaos", s);
  const JsonValue rec = server.wait(id);
  ASSERT_EQ(rec.string_or("state", ""), "done")
      << rec.string_or("diagnostic", "");
  EXPECT_EQ(rec.int_or("attempts", -1), 2);
  EXPECT_EQ(rec.int_or("failed_rank", -1), 1);
  EXPECT_NE(rec.string_or("diagnostic", "").find("rank 1"), std::string::npos)
      << rec.string_or("diagnostic", "");

  JobSpec clean = s;
  clean.fault_kill_rank = -1;
  clean.fault_kill_phase = -1;
  clean.checkpoint_every = 0;
  const std::string direct = run_direct(clean, temp_dir("e2e_recovery_ref"));
  EXPECT_EQ(rec.string_or("observables", ""), direct);
  server.stop();
}

// The second job with the same physics seeds from the warm cache and
// executes only the post-equilibration remainder — on a different rank
// count, with byte-identical observables.
TEST(ServeE2E, WarmCacheHitSkipsEquilibration) {
  const std::string dir = temp_dir("e2e_warm");
  serve::CampaignServer::Config cfg;
  cfg.work_dir = dir;
  cfg.worker_exe = SLIPFLOW_WORKER_EXE;
  serve::CampaignServer server(cfg);
  server.start();

  JobSpec producer = small_spec();
  producer.warm_phases = 10;
  const JsonValue first = server.wait(server.submit("sweep", producer));
  ASSERT_EQ(first.string_or("state", ""), "done")
      << first.string_or("diagnostic", "");
  EXPECT_FALSE(first.bool_or("warm_hit", true));
  EXPECT_EQ(first.int_or("phases_executed", -1), producer.phases);

  JobSpec consumer = producer;
  consumer.ranks = 1;  // the warm state is decomposition-invariant
  const JsonValue second = server.wait(server.submit("sweep", consumer));
  ASSERT_EQ(second.string_or("state", ""), "done")
      << second.string_or("diagnostic", "");
  EXPECT_TRUE(second.bool_or("warm_hit", false));
  EXPECT_EQ(second.int_or("phases_executed", -1),
            producer.phases - producer.warm_phases);
  EXPECT_EQ(second.string_or("observables", "x"),
            first.string_or("observables", "y"));

  const JsonValue st = server.stats();
  EXPECT_EQ(st.int_or("cache_hits", -1), 1);
  EXPECT_EQ(st.int_or("cache_misses", -1), 1);
  server.stop();
}
