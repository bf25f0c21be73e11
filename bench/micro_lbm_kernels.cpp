/// Kernel microbenchmarks (google-benchmark): per-kernel throughput in
/// lattice-site updates, for the single- and two-component systems.
/// These numbers also calibrate the virtual cluster's per-point cost
/// split across the three compute stages (ClusterConfig::stage_fraction).
///
/// The legacy reference kernels and the StreamingPlan fast path (the row
/// kernels) run side by side; the full-phase pair on an
/// interior-dominated channel is the repo's MLUPS claim for the plan
/// refactor. Beyond the standard google-benchmark flags the harness
/// takes:
///
///   --json=<path>            summary json (default
///                            BENCH_micro_lbm_kernels.json, none = off)
///   --require-speedup=<x>    exit nonzero unless plan MLUPS (portable
///                            rows) >= x times legacy MLUPS on the
///                            full-phase pair (the CI perf guard; 0 =
///                            report only)
///   --require-tile-speedup=<x>
///                            exit nonzero unless the best row backend
///                            reaches x times the legacy kernels' MLUPS
///                            on the full-phase bench (0 = report only).
///                            Works on one core — the gain is vector
///                            width, not threads.
///
/// The whole run pins the scalar backend (an alias of the portable
/// autovec rows, so the plan bench measures them); the per-backend full-phase
/// benches (BM_FullPhase_TwoComponent_Backend_* on the perf box and
/// BM_RankSlabPhase_* on one rank's slab of the README job, plus that
/// slab's per-stage split BM_RankSlabStages_*, registered for every
/// backend this build/CPU supports) and the 4-rank runner
/// benches (BM_ParallelPhase_*, on the default backend) switch it for
/// their own loop only.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lbm/kernels.hpp"
#include "lbm/stepper.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/shm_comm.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;

namespace {

struct Box {
  std::shared_ptr<const ChannelGeometry> geom;
  std::unique_ptr<Slab> slab;
  PeriodicSelfExchanger halo;

  explicit Box(FluidParams p, Extents e = {24, 24, 12}) {
    geom = std::make_shared<const ChannelGeometry>(e);
    slab = std::make_unique<Slab>(geom, std::move(p), 0, e.nx);
    slab->initialize_uniform();
    prime(*slab, halo);
  }
};

/// The MLUPS-claim box: wide enough in y/z that ~88% of cells touch no
/// wall, the regime the fused kernel is built for.
const Extents kPerfBox{32, 48, 24};

/// The two-component channel over `e` as the runner steps it, on the
/// active kernel backend. One warm-up phase runs here, outside the timed
/// loop, so the streaming plan is built before timing starts, as the
/// runners do.
sim::Simulation warm_simulation(Extents e) {
  sim::Simulation s(e, FluidParams::microchannel_defaults());
  s.initialize_uniform();
  s.run(1);
  return s;
}

void set_cells_rate(benchmark::State& state, const Slab& slab) {
  state.SetItemsProcessed(state.iterations() * slab.owned_cells());
  state.counters["MLUPS"] = benchmark::Counter(
      static_cast<double>(state.iterations() * slab.owned_cells()) / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_Collide_SingleComponent(benchmark::State& state) {
  Box b(FluidParams::single_component());
  for (auto _ : state) collide(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_Collide_SingleComponent);

void BM_Collide_TwoComponent(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  for (auto _ : state) collide(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_Collide_TwoComponent);

void BM_Stream_TwoComponent(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  collide(*b.slab);
  b.halo.exchange_f(*b.slab);
  for (auto _ : state) stream(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_Stream_TwoComponent);

void BM_FusedCollideStream_TwoComponent(benchmark::State& state) {
  // the plan path's replacement for collide + stream: boundary planes are
  // collided and exchanged once (as the runner does each phase), then
  // the fused kernel runs collide+stream over the whole slab
  Box b(FluidParams::microchannel_defaults());
  collide_boundary_planes(*b.slab);
  b.halo.exchange_f(*b.slab);
  for (auto _ : state) fused_collide_stream(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_FusedCollideStream_TwoComponent);

void BM_Density_TwoComponent(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  for (auto _ : state) compute_density(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_Density_TwoComponent);

void BM_ForcesVelocity_TwoComponent(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  for (auto _ : state) compute_forces_and_velocity(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_ForcesVelocity_TwoComponent);

void BM_ForcesVelocityPlan_TwoComponent(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  for (auto _ : state) compute_forces_and_velocity_plan(*b.slab);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_ForcesVelocityPlan_TwoComponent);

void BM_FullPhase_TwoComponent_Legacy(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults(), kPerfBox);
  for (auto _ : state)
    reference_phase(*b.slab, b.halo);
  set_cells_rate(state, *b.slab);
}
BENCHMARK(BM_FullPhase_TwoComponent_Legacy);

void BM_FullPhase_TwoComponent_Plan(benchmark::State& state) {
  sim::Simulation s = warm_simulation(kPerfBox);
  for (auto _ : state) s.run(1);
  set_cells_rate(state, s.slab());
}
BENCHMARK(BM_FullPhase_TwoComponent_Plan);

// Full plan-path phase on each kernel backend this build/CPU supports —
// registered dynamically in main(). The scalar entry is the autovec rows
// again (the alias stays only for the mlups_backend_scalar key); the
// SIMD entries are the row-kernel claim, guarded by
// --require-tile-speedup against BM_FullPhase_TwoComponent_Legacy.
void BM_FullPhase_TwoComponent_Backend(benchmark::State& state,
                                       KernelBackend backend) {
  set_kernel_backend(backend);
  sim::Simulation s = warm_simulation(kPerfBox);
  for (auto _ : state) s.run(1);
  set_cells_rate(state, s.slab());
  set_kernel_backend(KernelBackend::scalar);
}

/// One rank's slab of the README job spec (64x16x8 over 4 ranks): 16
/// planes of 16x8 with walls in y and z, so 43% of the fluid cells touch
/// a wall and 2 of 16 planes face the exchange — the thin-channel regime
/// the row masks exist for. A full-domain 16x16x8 box runs exactly the
/// per-rank kernel work (the 1-rank runner's x-periodic self exchange
/// stands in for the neighbours).
const Extents kRankSlab{16, 16, 8};

void BM_RankSlabPhase(benchmark::State& state, KernelBackend backend) {
  set_kernel_backend(backend);
  sim::Simulation s = warm_simulation(kRankSlab);
  for (auto _ : state) s.run(1);
  set_cells_rate(state, s.slab());
  set_kernel_backend(KernelBackend::scalar);
}

/// The rank slab's phase split by kernel stage on `backend`, through the
/// dispatching row entry points the runner calls (the exchanges are the
/// 1-rank periodic self copy): counters stream_us
/// (edge-plane pre-collide + fused collide+stream), density_us and
/// forces_us (force/velocity pass), per phase.
void BM_RankSlabStages(benchmark::State& state, KernelBackend backend) {
  using Clock = std::chrono::steady_clock;
  set_kernel_backend(backend);
  sim::Simulation s = warm_simulation(kRankSlab);
  Slab& slab = s.slab();
  PeriodicSelfExchanger halo;
  double stream = 0.0, density = 0.0, forces = 0.0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    collide_boundary_planes(slab);
    halo.exchange_f(slab);
    fused_collide_stream(slab);
    const auto t1 = Clock::now();
    compute_density_planes(slab, 1, slab.nx_local() + 1);
    halo.exchange_density(slab);
    const auto t2 = Clock::now();
    compute_forces_and_velocity_plan(slab);
    const auto t3 = Clock::now();
    benchmark::ClobberMemory();
    stream += std::chrono::duration<double, std::micro>(t1 - t0).count();
    density += std::chrono::duration<double, std::micro>(t2 - t1).count();
    forces += std::chrono::duration<double, std::micro>(t3 - t2).count();
  }
  const auto n = static_cast<double>(state.iterations());
  state.counters["stream_us"] = stream / n;
  state.counters["density_us"] = density / n;
  state.counters["forces_us"] = forces / n;
  set_cells_rate(state, slab);
  set_kernel_backend(KernelBackend::scalar);
}

/// Analytic doubles-touched-per-cell of one two-component plan phase on
/// the perf box — the roofline denominator for the MLUPS numbers
/// (bytes/s = MLUPS * 1e6 * bytes_per_cell). Counted for an interior
/// cell, per component: fused collide+stream reads 19 f + 1 n + 3 ueq
/// and writes 19 f_post (42); density reads 19 f and writes n (20); the
/// force pass reads 18 psi + 18 f + n twice and writes 3 ueq (40); plus
/// 4 mixture writes (rho_tot, u) per cell. The perf box's fields (~28 MB)
/// fit a large shared L3, so on such a host these bytes are mostly cache
/// traffic: 12 MLUPS x 1664 B/cell = 20 GB/s exceeds what one core
/// streams from DRAM (~12.5-13 GB/s triad on the 4-vCPU AVX-512 dev VM).
/// Read MLUPS x bytes_per_cell as traffic, not as a fraction of DRAM
/// bandwidth.
double bytes_per_cell(int components) {
  return 8.0 * (static_cast<double>(components) * (42 + 20 + 40) + 4);
}

void BM_FHaloPackUnpack(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  collide(*b.slab);
  std::vector<double> buf(static_cast<std::size_t>(b.slab->f_halo_doubles()));
  for (auto _ : state) {
    b.slab->extract_f_halo(Side::right, buf);
    b.slab->insert_f_halo(Side::left, buf);
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<long long>(buf.size()) * 8);
}
BENCHMARK(BM_FHaloPackUnpack);

void BM_PlaneMigration(benchmark::State& state) {
  Box b(FluidParams::microchannel_defaults());
  std::vector<double> buf(
      static_cast<std::size_t>(b.slab->migration_doubles(1)));
  for (auto _ : state) {
    b.slab->detach_planes(Side::right, 1, buf);
    b.slab->attach_planes(Side::right, 1, buf);
  }
  state.SetBytesProcessed(state.iterations() * 2 *
                          static_cast<long long>(buf.size()) * 8);
}
BENCHMARK(BM_PlaneMigration);

// --- hybrid runner: the overlapped phase over two transports ---------
// The perf box split across 4 rank-threads, stepping the real
// ParallelLbm on the default kernel backend — the one workers run — for
// the bench's own loop. Only run() is timed (manual time, max over ranks
// via the closing barrier); setup, the streaming plan build (one untimed
// warm-up phase, as warm_simulation does) and teardown stay
// outside. The Overlap_T* variants ride ThreadComm's in-process mailboxes
// with 1, 2 and 4 interior-sweep threads per rank; Shm rides ShmComm's
// shared-memory rings at one thread — the cost of the real wire format
// (frames, rings, spin-then-yield waits) with zero process-launch
// overhead in the timed region.

using RankBody = std::function<void(transport::Communicator&)>;
using RankHarness = void (*)(int, const RankBody&);

void thread_ranks(int n, const RankBody& body) {
  transport::run_ranks(n, body);
}
void shm_ranks(int n, const RankBody& body) {
  transport::run_ranks_shm(n, body);
}

void BM_ParallelPhase(benchmark::State& state, RankHarness harness,
                      int threads) {
  constexpr int kRanks = 4;
  constexpr int kPhasesPerIter = 10;
  sim::RunnerConfig cfg;
  cfg.global = kPerfBox;
  cfg.fluid = FluidParams::microchannel_defaults();
  cfg.policy = "none";
  cfg.threads = threads;
  set_kernel_backend(default_kernel_backend());
  for (auto _ : state) {
    double seconds = 0.0;
    harness(kRanks, [&](transport::Communicator& c) {
      sim::ParallelLbm run(cfg, c);
      run.initialize_uniform();
      run.run(1);  // builds the plan outside the timed region
      c.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      run.run(kPhasesPerIter);
      c.barrier();  // closes when the slowest rank finished
      if (c.rank() == 0)
        seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    });
    state.SetIterationTime(seconds);
  }
  set_kernel_backend(KernelBackend::scalar);
  const auto cells = static_cast<long long>(kPerfBox.cells()) *
                     kPhasesPerIter * state.iterations();
  state.SetItemsProcessed(cells);
  state.counters["MLUPS"] = benchmark::Counter(
      static_cast<double>(cells) / 1e6, benchmark::Counter::kIsRate);
}

void BM_ParallelPhase_Overlap_T1(benchmark::State& state) {
  BM_ParallelPhase(state, thread_ranks, 1);
}
BENCHMARK(BM_ParallelPhase_Overlap_T1)->UseManualTime();

void BM_ParallelPhase_Overlap_T2(benchmark::State& state) {
  BM_ParallelPhase(state, thread_ranks, 2);
}
BENCHMARK(BM_ParallelPhase_Overlap_T2)->UseManualTime();

void BM_ParallelPhase_Overlap_T4(benchmark::State& state) {
  BM_ParallelPhase(state, thread_ranks, 4);
}
BENCHMARK(BM_ParallelPhase_Overlap_T4)->UseManualTime();

void BM_ParallelPhase_Shm(benchmark::State& state) {
  BM_ParallelPhase(state, shm_ranks, 1);
}
BENCHMARK(BM_ParallelPhase_Shm)->UseManualTime();

void BM_PlanBuild(benchmark::State& state) {
  // the cost a migration adds outside the remap span: the one
  // O(owned cells) classification pass over the perf box that emits the
  // row tiles and the per-cell tables
  const auto geom = std::make_shared<const ChannelGeometry>(kPerfBox);
  for (auto _ : state) {
    const StreamingPlan plan(*geom, 0, kPerfBox.nx);
    benchmark::DoNotOptimize(plan.rows().data());
  }
  state.SetItemsProcessed(state.iterations() * kPerfBox.cells());
}
BENCHMARK(BM_PlanBuild);

/// Console reporter that also captures each run's MLUPS counter, so the
/// summary json and the CI speedup guard read real measured numbers.
class MlupsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& run : report) {
      const auto it = run.counters.find("MLUPS");
      if (it != run.counters.end())
        mlups_[run.benchmark_name()] = it->second.value;
    }
    ConsoleReporter::ReportRuns(report);
  }

  double get(const std::string& name) const {
    // prefer the median under --benchmark_repetitions, then the
    // manual-time suffix, then the bare name
    for (const char* suffix :
         {"/manual_time_median", "_median", "/manual_time", ""}) {
      const auto it = mlups_.find(name + suffix);
      if (it != mlups_.end()) return it->second;
    }
    return 0.0;
  }
  const std::map<std::string, double>& all() const { return mlups_; }

 private:
  std::map<std::string, double> mlups_;
};

}  // namespace

int main(int argc, char** argv) {
  // split our flags from google-benchmark's
  std::string json_flag;
  double require_speedup = 0.0;
  double require_tile_speedup = 0.0;
  std::vector<char*> bargs{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0)
      json_flag = a;
    else if (a.rfind("--require-speedup=", 0) == 0)
      require_speedup = std::stod(a.substr(18));
    else if (a.rfind("--require-tile-speedup=", 0) == 0)
      require_tile_speedup = std::stod(a.substr(23));
    else
      bargs.push_back(argv[i]);
  }

  // Pin scalar (the portable autovec rows) so the plan/legacy comparison
  // measures the same rows on every host; only the per-backend benches
  // below and the 4-rank runner benches switch backends, inside their
  // own bodies.
  const KernelBackend default_backend = default_kernel_backend();
  set_kernel_backend(KernelBackend::scalar);
  const std::vector<KernelBackend> backends = supported_kernel_backends();
  for (KernelBackend b : backends) {
    const std::string name =
        std::string("BM_FullPhase_TwoComponent_Backend_") + to_string(b);
    benchmark::RegisterBenchmark(name.c_str(), [b](benchmark::State& s) {
      BM_FullPhase_TwoComponent_Backend(s, b);
    });
  }
  for (KernelBackend b : backends) {
    const std::string name = std::string("BM_RankSlabPhase_") + to_string(b);
    benchmark::RegisterBenchmark(name.c_str(), [b](benchmark::State& s) {
      BM_RankSlabPhase(s, b);
    });
  }
  for (KernelBackend b : backends) {
    const std::string name = std::string("BM_RankSlabStages_") + to_string(b);
    benchmark::RegisterBenchmark(name.c_str(), [b](benchmark::State& s) {
      BM_RankSlabStages(s, b);
    });
  }

  int bargc = static_cast<int>(bargs.size());
  benchmark::Initialize(&bargc, bargs.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, bargs.data())) return 1;

  MlupsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const double legacy = reporter.get("BM_FullPhase_TwoComponent_Legacy");
  const double plan = reporter.get("BM_FullPhase_TwoComponent_Plan");
  const double speedup = legacy > 0.0 ? plan / legacy : 0.0;

  // best row backend vs the legacy kernels (the row-kernel claim). Not vs
  // the plan bench: that pins the portable rows, which a -march=native
  // build lowers to the host ISA, so the ratio would measure the
  // compiler's lowering rather than the backends.
  double best_tile = 0.0;
  std::string best_tile_name = "none";
  for (KernelBackend b : backends) {
    if (b == KernelBackend::scalar) continue;
    const double m = reporter.get(
        std::string("BM_FullPhase_TwoComponent_Backend_") + to_string(b));
    if (m > best_tile) {
      best_tile = m;
      best_tile_name = to_string(b);
    }
  }
  const double tile_speedup = legacy > 0.0 ? best_tile / legacy : 0.0;

  const char* summary_argv[] = {argv[0], json_flag.c_str()};
  const auto opts = util::Options::parse(json_flag.empty() ? 1 : 2,
                                         summary_argv);
  bench::Summary summary("micro_lbm_kernels");
  for (const auto& [name, v] : reporter.all()) summary.add("mlups/" + name, v);
  summary.add("mlups_legacy", legacy);
  summary.add("mlups_plan", plan);
  summary.add("plan_speedup", speedup);
  summary.add("require_speedup", require_speedup);
  summary.add("mlups_overlap_4ranks",
              reporter.get("BM_ParallelPhase_Overlap_T1"));
  summary.add("mlups_shm_4ranks", reporter.get("BM_ParallelPhase_Shm"));
  for (KernelBackend b : backends)
    summary.add(std::string("mlups_backend_") + to_string(b),
                reporter.get(std::string("BM_FullPhase_TwoComponent_Backend_") +
                             to_string(b)));
  for (KernelBackend b : backends)
    summary.add(std::string("mlups_rank_slab_") + to_string(b),
                reporter.get(std::string("BM_RankSlabPhase_") + to_string(b)));
  summary.add("tile_speedup", tile_speedup);
  summary.add("require_tile_speedup", require_tile_speedup);
  summary.add("bytes_per_cell_two_component", bytes_per_cell(2));
  std::fprintf(stdout, "kernel backend default: %s; best tile backend: %s\n",
               to_string(default_backend), best_tile_name.c_str());
  summary.write(opts);

  if (require_speedup > 0.0) {
    if (legacy <= 0.0 || plan <= 0.0) {
      std::fprintf(stderr,
                   "perf guard: full-phase pair missing from the run "
                   "(check --benchmark_filter)\n");
      return 1;
    }
    std::printf("perf guard: plan %.1f MLUPS vs legacy %.1f MLUPS "
                "(%.2fx, required %.2fx)\n",
                plan, legacy, speedup, require_speedup);
    if (speedup < require_speedup) {
      std::fprintf(stderr, "perf guard FAILED: %.2fx < %.2fx\n", speedup,
                   require_speedup);
      return 1;
    }
  }
  if (require_tile_speedup > 0.0) {
    if (legacy <= 0.0 || best_tile <= 0.0) {
      std::fprintf(stderr,
                   "tile guard: legacy/backend benches missing from the run "
                   "(check --benchmark_filter)\n");
      return 1;
    }
    std::printf("tile guard: %s %.1f MLUPS vs legacy %.1f MLUPS "
                "(%.2fx, required %.2fx)\n",
                best_tile_name.c_str(), best_tile, legacy, tile_speedup,
                require_tile_speedup);
    if (tile_speedup < require_tile_speedup) {
      std::fprintf(stderr, "tile guard FAILED: %.2fx < %.2fx\n", tile_speedup,
                   require_tile_speedup);
      return 1;
    }
  }
  return 0;
}
