/// Launch-latency microbench (google-benchmark): the wall time of one
/// served job's process layer — spawn the ranks, connect the mesh, run,
/// tear down, reap — with the compute cut to the bone, so what is timed
/// is the launch itself. The argv comes from serve::make_launch_config,
/// the same lowering the daemon and `slipflow_submit --direct` use.
///
///   LaunchWorkers/socket_4ranks  the README spec (64x16x8, 4 ranks)
///                                for 1 phase over the socket transport
///   LaunchWorkers/shm_4ranks     the same over the shm rings
///   LaunchWorkers/probe_1rank    the JobSpec defaults at 1 rank for 10
///                                phases: the probe job of a daemon's
///                                cold start
///
/// Each reports the median over its repetitions in ms. There is no
/// gate: the numbers are a layer of the benchmark ledger, recorded in
/// EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <string>

#include "serve/job_spec.hpp"
#include "transport/launcher.hpp"
#include "util/json.hpp"

namespace {

using namespace slipflow;

void BM_LaunchWorkers(benchmark::State& state, const char* spec_json) {
  const serve::JobSpec spec =
      serve::JobSpec::from_json(util::json_parse(spec_json));
  const transport::LaunchConfig lc =
      serve::make_launch_config(spec, SLIPFLOW_WORKER_EXE, {});
  for (auto _ : state) {
    const transport::LaunchResult res = transport::launch_workers(lc);
    if (!res.ok) {
      state.SkipWithError(res.diagnostic.c_str());
      break;
    }
  }
}

constexpr const char* kReadmeSocket =
    R"({"geometry":{"nx":64,"ny":16,"nz":8},"phases":1,"ranks":4,)"
    R"("transport":"socket"})";
constexpr const char* kReadmeShm =
    R"({"geometry":{"nx":64,"ny":16,"nz":8},"phases":1,"ranks":4,)"
    R"("transport":"shm"})";
constexpr const char* kProbe = R"({"phases":10,"ranks":1})";

/// Wall time per launch, in ms; the aggregates carry the median.
void launch_settings(benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond)
      ->UseRealTime()
      ->Iterations(20)
      ->Repetitions(5)
      ->ReportAggregatesOnly(true);
}

}  // namespace

BENCHMARK_CAPTURE(BM_LaunchWorkers, socket_4ranks, kReadmeSocket)
    ->Apply(launch_settings);
BENCHMARK_CAPTURE(BM_LaunchWorkers, shm_4ranks, kReadmeShm)
    ->Apply(launch_settings);
BENCHMARK_CAPTURE(BM_LaunchWorkers, probe_1rank, kProbe)
    ->Apply(launch_settings);

BENCHMARK_MAIN();
