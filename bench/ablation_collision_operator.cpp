/// Ablation: BGK (the paper's operator) vs MRT collision for the trace
/// gas — stability across the air relaxation time, plus runtime cost.
///
/// Sweeps tau_air downward (stiffer, less viscous gas — physically more
/// faithful) and reports whether the 3-D walled channel stays bounded
/// over a fixed run, and the most negative air density seen (the
/// instability precursor).
///
///   usage: ablation_collision_operator [--steps=500] [--csv=path]

#include <cmath>

#include "bench_common.hpp"
#include "lbm/observables.hpp"
#include "sim/simulation.hpp"
#include "util/stopwatch.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

struct Outcome {
  bool bounded;
  double min_air;
  double seconds;
};

Outcome run_channel(double tau_air, CollisionModel model, int steps) {
  FluidParams p = FluidParams::microchannel_defaults();
  p.components[1].tau = tau_air;
  p.components[1].collision = model;
  Simulation sim(Extents{6, 20, 10}, std::move(p));
  sim.initialize_uniform();
  util::Stopwatch w;
  sim.run(steps);
  const double secs = w.seconds();
  double mn = 1e300;
  bool ok = true;
  const Extents& st = sim.slab().storage();
  for (index_t x = 1; x <= 6; ++x)
    for (index_t y = 0; y < st.ny; ++y)
      for (index_t z = 0; z < st.nz; ++z) {
        const double v = sim.slab().density(1)[st.idx(x, y, z)];
        if (!std::isfinite(v) || std::abs(v) > 10.0) ok = false;
        if (std::isfinite(v)) mn = std::min(mn, v);
      }
  return {ok, mn, secs};
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const int steps = static_cast<int>(opts.get("steps", 500LL));
  const std::string csv = opts.get("csv", std::string{});
  (void)csv;
  bench::check_options(opts);

  util::Table table("Ablation — collision operator for the trace gas "
                    "(3-D channel, " + std::to_string(steps) + " steps)");
  table.header({"tau_air", "bgk_bounded", "bgk_min_air", "mrt_bounded",
                "mrt_min_air", "bgk_time_s", "mrt_time_s"});

  for (double tau : {1.0, 0.8, 0.7, 0.6, 0.55, 0.52}) {
    const Outcome b = run_channel(tau, CollisionModel::bgk, steps);
    const Outcome m = run_channel(tau, CollisionModel::mrt, steps);
    table.row({tau, std::string(b.bounded ? "yes" : "NO"), b.min_air,
               std::string(m.bounded ? "yes" : "NO"), m.min_air, b.seconds,
               m.seconds});
  }
  bench::emit(table, opts);
  bench::Summary summary("ablation_collision_operator");
  summary.add_table("results", table);
  summary.write(opts);

  std::cout << "MRT costs ~2-3x per collision but relaxes ghost modes at "
               "tuned rates; compare the boundedness columns as tau_air "
               "approaches the 1/2 stability limit.\n";
  return 0;
}
