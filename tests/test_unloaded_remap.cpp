// The default balancer on an idle host: the README job shape (64x16x8,
// 4 ranks, 400 phases) launched as real slipflow_worker processes with
// every balancer flag at its default and the wall clock. Per-phase
// timing noise on sub-millisecond phases must never pay for a
// migration, so the job keeps its even split instead of churning planes.
//
// The premise is an otherwise idle machine running optimized code, so
// CTest runs this binary alone (RUN_SERIAL in tests/CMakeLists.txt) and
// sanitizer builds skip it: instrumentation slows the kernels ~20x but
// a plan rebuild only ~5x, so there a migration is cheap next to a phase
// and persistent per-rank speed differences of ~20% rightly pay for one.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "transport/launcher.hpp"

using namespace slipflow;

namespace {

constexpr int kRanks = 4;

/// Planes all ranks sent in one launch, summed from each rank's
/// --metrics-out CSV (kind,rank,name,value,...).
double planes_moved(const std::string& transport) {
  transport::LaunchConfig lc;
  lc.ranks = kRanks;
  lc.transport = transport;
  lc.worker_command = {SLIPFLOW_WORKER_EXE, "--nx=64", "--ny=16", "--nz=8",
                       "--phases=400"};
  std::vector<std::string> metrics;
  for (int r = 0; r < kRanks; ++r) {
    metrics.push_back(::testing::TempDir() + "slipflow_unloaded_" +
                      transport + std::to_string(r) + "." +
                      std::to_string(::getpid()) + ".csv");
    lc.extra_args[r] = {"--metrics-out=" + metrics.back()};
  }
  lc.wall_clock_timeout = 90.0;
  const transport::LaunchResult res = transport::launch_workers(lc);
  EXPECT_TRUE(res.ok) << res.diagnostic;
  double sent = 0.0;
  for (const std::string& path : metrics) {
    std::ifstream f(path);
    EXPECT_TRUE(f.good()) << "missing " << path;
    for (std::string line; std::getline(f, line);) {
      std::istringstream row(line);
      std::string kind, rank, name, value;
      std::getline(row, kind, ',');
      std::getline(row, rank, ',');
      std::getline(row, name, ',');
      std::getline(row, value, ',');
      if (kind == "counter" && name == "planes_sent") sent += std::stod(value);
    }
    std::remove(path.c_str());
  }
  return sent;
}

class UnloadedRemap : public ::testing::Test {
 protected:
  void SetUp() override {
    if (SLIPFLOW_INSTRUMENTED)
      GTEST_SKIP() << "timing premise does not hold under sanitizers";
  }
};

}  // namespace

TEST_F(UnloadedRemap, ReadmeRunBarelyMigratesOverSocket) {
  EXPECT_LE(planes_moved("socket"), 2.0);
}

TEST_F(UnloadedRemap, ReadmeRunBarelyMigratesOverShm) {
  EXPECT_LE(planes_moved("shm"), 2.0);
}
