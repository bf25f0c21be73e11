// Kernel-equivalence matrix for the StreamingPlan fast path: the fused
// collide+stream and plan-based force kernels must reproduce the legacy
// reference kernels (lbm::reference_phase, the oracle) to within 1e-13
// per population (empirically they are bit-exact — shared collision
// expressions keep FP contraction identical) across every
// boundary-condition class the geometry supports, for both collision
// operators and both component counts. Plus: the plan's write coverage
// is structurally verified (every fluid slot written exactly once), and
// a plan rebuilt after a mid-run plane migration in the thread runner
// still matches the sequential legacy reference.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "lbm/observables.hpp"
#include "lbm/plan.hpp"
#include "lbm/stepper.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "sim/parallel_lbm.hpp"
#include "sim/simulation.hpp"
#include "transport/thread_comm.hpp"

using namespace slipflow;
using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

constexpr double kTol = 1e-13;

// -- the boundary-condition axis of the matrix -------------------------

struct GeoCase {
  const char* name;
  bool walls_y = false;
  bool walls_z = false;
  bool obstacle = false;
  bool moving = false;
  bool patterned = false;
};

const GeoCase kGeoCases[] = {
    {"periodic", false, false},
    {"walls_y", true, false},
    {"walls_z", false, true},
    {"channel", true, true},
    {"obstacles", true, true, /*obstacle=*/true},
    {"moving_walls", true, true, false, /*moving=*/true},
    {"patterned", true, true, false, false, /*patterned=*/true},
};

const Extents kGrid{8, 6, 5};

/// The runner configuration of a geometry case on kGrid.
sim::RunnerConfig make_config(const GeoCase& gc, FluidParams params = {}) {
  sim::RunnerConfig cfg;
  cfg.global = kGrid;
  cfg.fluid = std::move(params);
  cfg.walls_y = gc.walls_y;
  cfg.walls_z = gc.walls_z;
  if (gc.obstacle) {
    cfg.obstacle = [](index_t gx, index_t gy, index_t gz) {
      return gx >= 3 && gx < 5 && gy >= 2 && gy < 4 && gz >= 1 && gz < 3;
    };
  }
  if (gc.moving) {
    // tangential components only (normal must be zero); two walls move so
    // corner cells accumulate both corrections
    using Wall = ChannelGeometry::Wall;
    cfg.wall_velocity[static_cast<std::size_t>(Wall::z_low)] = {0.02, 0.01,
                                                                 0.0};
    cfg.wall_velocity[static_cast<std::size_t>(Wall::y_high)] = {-0.01, 0.0,
                                                                  0.005};
  }
  return cfg;
}

std::shared_ptr<const ChannelGeometry> make_geom(const GeoCase& gc) {
  return sim::make_geometry(make_config(gc));
}

FluidParams make_params(int ncomp, CollisionModel cm, const GeoCase& gc) {
  FluidParams p = ncomp == 1
                      ? FluidParams::single_component(/*tau=*/0.8, 1e-5)
                      : FluidParams::microchannel_defaults(0.1, 1.5, 0.05,
                                                           1.0, 2e-5);
  if (ncomp == 1 && (gc.walls_y || gc.walls_z))
    p.components[0].wall_accel = 0.15;  // wall force active in 1-comp runs
  if (gc.patterned) {
    p.wall_pattern = [](index_t gx, index_t gy, index_t gz) {
      return 1.0 + 0.5 * static_cast<double>((gx + gy + gz) % 2);
    };
  }
  for (auto& c : p.components) c.collision = cm;
  return p;
}

// deterministic non-uniform initial density, decomposition-invariant
double init_density(const FluidParams& p, std::size_t c, index_t gx,
                    index_t gy, index_t gz) {
  const double base = p.components[c].init_density;
  const auto h = static_cast<double>((3 * gx + 5 * gy + 7 * gz) % 11);
  return base * (1.0 + 0.05 * h / 11.0);
}

void expect_slabs_match(const Slab& plan_s, const Slab& legacy_s) {
  const Extents& e = plan_s.storage();
  for (index_t lx = 1; lx <= plan_s.nx_local(); ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        for (std::size_t c = 0; c < plan_s.num_components(); ++c) {
          for (int d = 0; d < kQ; ++d)
            ASSERT_NEAR(plan_s.f(c).at(d, cell), legacy_s.f(c).at(d, cell),
                        kTol)
                << "f c=" << c << " d=" << d << " @(" << lx << "," << y << ","
                << z << ")";
          ASSERT_NEAR(plan_s.density(c)[cell], legacy_s.density(c)[cell], kTol)
              << "n c=" << c << " @(" << lx << "," << y << "," << z << ")";
          const Vec3 ua = plan_s.ueq(c).at(cell);
          const Vec3 ub = legacy_s.ueq(c).at(cell);
          ASSERT_NEAR(ua.x, ub.x, kTol) << "ueq.x c=" << c;
          ASSERT_NEAR(ua.y, ub.y, kTol) << "ueq.y c=" << c;
          ASSERT_NEAR(ua.z, ub.z, kTol) << "ueq.z c=" << c;
        }
        const Vec3 va = plan_s.velocity().at(cell);
        const Vec3 vb = legacy_s.velocity().at(cell);
        ASSERT_NEAR(va.x, vb.x, kTol) << "u.x";
        ASSERT_NEAR(va.y, vb.y, kTol) << "u.y";
        ASSERT_NEAR(va.z, vb.z, kTol) << "u.z";
        ASSERT_NEAR(plan_s.total_density()[cell], legacy_s.total_density()[cell],
                    kTol)
            << "rho";
      }
}

/// The oracle: prime an initialized full-domain slab, then step `phases`
/// reference phases on the legacy kernels.
void run_reference(Slab& slab, int phases) {
  PeriodicSelfExchanger halo;
  prime(slab, halo);
  for (int p = 0; p < phases; ++p) reference_phase(slab, halo);
}

/// `phases` phases of the plan path (a Simulation) against the oracle,
/// both from init_density.
void plan_vs_reference(const sim::RunnerConfig& cfg, int phases) {
  const FluidParams& params = cfg.fluid;
  const auto init = [&params](std::size_t c, index_t gx, index_t gy,
                              index_t gz) {
    return init_density(params, c, gx, gy, gz);
  };
  Simulation plan_sim(cfg);
  plan_sim.initialize(init);
  plan_sim.run(phases);
  Slab legacy(sim::make_geometry(cfg), params, 0, cfg.global.nx);
  legacy.initialize(init);
  run_reference(legacy, phases);
  expect_slabs_match(plan_sim.slab(), legacy);
}

void run_and_compare(const GeoCase& gc, int ncomp, CollisionModel cm,
                     int phases = 16) {
  plan_vs_reference(make_config(gc, make_params(ncomp, cm, gc)), phases);
}

}  // namespace

// -- the matrix: {7 geometries} x {BGK, MRT} x {1, 2 components} --------

TEST(PlanKernels, MatchesLegacyAcrossMatrix) {
  for (const auto& gc : kGeoCases)
    for (int ncomp : {1, 2})
      for (CollisionModel cm : {CollisionModel::bgk, CollisionModel::mrt}) {
        SCOPED_TRACE(std::string(gc.name) + " ncomp=" +
                     std::to_string(ncomp) + " " +
                     (cm == CollisionModel::bgk ? "bgk" : "mrt"));
        run_and_compare(gc, ncomp, cm);
      }
}

TEST(PlanKernels, ShanChenPsiFormMatchesLegacy) {
  // the liquid-vapor pseudopotential psi = 1 - exp(-n) exercises the
  // plan force kernel's per-step psi scratch cache (the density form
  // aliases n directly)
  const GeoCase& periodic = kGeoCases[0];
  plan_vs_reference(
      make_config(periodic, FluidParams::liquid_vapor(-5.0, 1.0)), 20);
}

// -- structural coverage of the streaming plan --------------------------

namespace {

// Replay the fused kernel's write pattern symbolically and count how many
// times each (direction, cell) slot of f would be written.
void expect_full_coverage(const ChannelGeometry& geom, index_t x_begin,
                          index_t nx_local) {
  const StreamingPlan plan(geom, x_begin, nx_local);
  const Extents& e = plan.storage();
  std::vector<int> writes(static_cast<std::size_t>(kQ) *
                              static_cast<std::size_t>(e.cells()),
                          0);
  const auto slot = [&](int d, index_t cell) -> int& {
    return writes[static_cast<std::size_t>(d) *
                      static_cast<std::size_t>(e.cells()) +
                  static_cast<std::size_t>(cell)];
  };
  for (const auto& run : plan.stream_interior())
    for (index_t i = 0; i < run.count; ++i)
      for (int d = 0; d < kQ; ++d)
        slot(d, run.cell + i + plan.dir_offset(d)) += 1;
  for (const auto& b : plan.stream_boundary()) {
    slot(0, b.cell) += 1;  // the rest population stays home
    for (std::uint32_t l = b.link_begin; l < b.link_end; ++l) {
      const StreamLink& lk = plan.links()[l];
      slot(lk.dest_dir, lk.dest) += 1;
    }
  }
  for (const auto& h : plan.halo_pulls()) slot(h.dir, h.dest) += 1;

  std::vector<char> solid(static_cast<std::size_t>(e.cells()), 0);
  for (index_t s : plan.solids()) solid[static_cast<std::size_t>(s)] = 1;

  for (index_t lx = 0; lx < e.nx; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        const bool owned = lx >= 1 && lx <= nx_local;
        for (int d = 0; d < kQ; ++d) {
          const int expected =
              owned && !solid[static_cast<std::size_t>(cell)] ? 1 : 0;
          ASSERT_EQ(slot(d, cell), expected)
              << "d=" << d << " @(" << lx << "," << y << "," << z
              << ") owned=" << owned;
        }
      }
}

// The force plan must cover every owned cell exactly once (the legacy
// kernel sweeps solids too — they come out with zero density).
void expect_force_coverage(const ChannelGeometry& geom, index_t x_begin,
                           index_t nx_local) {
  const StreamingPlan plan(geom, x_begin, nx_local);
  const Extents& e = plan.storage();
  std::vector<int> visits(static_cast<std::size_t>(e.cells()), 0);
  for (const auto& run : plan.force_interior())
    for (index_t i = 0; i < run.count; ++i)
      visits[static_cast<std::size_t>(run.cell + i)] += 1;
  for (const auto& b : plan.force_boundary())
    visits[static_cast<std::size_t>(b.cell)] += 1;
  for (index_t lx = 0; lx < e.nx; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        const int expected = lx >= 1 && lx <= nx_local ? 1 : 0;
        ASSERT_EQ(visits[static_cast<std::size_t>(cell)], expected)
            << "@(" << lx << "," << y << "," << z << ")";
      }
}

}  // namespace

TEST(PlanStructure, EveryFluidSlotWrittenExactlyOnce) {
  for (const auto& gc : kGeoCases) {
    SCOPED_TRACE(gc.name);
    const auto geom = make_geom(gc);
    expect_full_coverage(*geom, 0, kGrid.nx);  // full domain
    expect_full_coverage(*geom, 3, 3);         // mid slab (obstacle inside)
    expect_full_coverage(*geom, 0, 2);         // left-edge slab
    expect_full_coverage(*geom, 5, 1);         // single-plane slab
  }
}

TEST(PlanStructure, ForcePlanCoversAllOwnedCellsOnce) {
  for (const auto& gc : kGeoCases) {
    SCOPED_TRACE(gc.name);
    const auto geom = make_geom(gc);
    expect_force_coverage(*geom, 0, kGrid.nx);
    expect_force_coverage(*geom, 3, 3);
    expect_force_coverage(*geom, 5, 1);
  }
}

// -- plan rebuild after migration in the thread runner ------------------

namespace {

const Extents kRemapGrid{18, 6, 4};

struct Profiles {
  std::vector<std::vector<double>> water, air, ux;
};

void expect_profiles_near(const Profiles& a, const Profiles& b) {
  for (std::size_t gx = 0; gx < a.water.size(); ++gx) {
    ASSERT_EQ(a.water[gx].size(), b.water[gx].size());
    for (std::size_t j = 0; j < a.water[gx].size(); ++j) {
      EXPECT_NEAR(a.water[gx][j], b.water[gx][j], kTol) << gx << "," << j;
      EXPECT_NEAR(a.air[gx][j], b.air[gx][j], kTol) << gx << "," << j;
      EXPECT_NEAR(a.ux[gx][j], b.ux[gx][j], kTol) << gx << "," << j;
    }
  }
}

}  // namespace

TEST(PlanKernels, RebuildAfterMigrationMatchesSequentialLegacy) {
  // a slowed middle rank forces plane migrations; every migration drops
  // the donor's and receiver's plans, so the run crosses several plan
  // rebuilds — and must still match the sequential *legacy* reference,
  // tying the two kernel paths together across a remap. The slowdown is
  // an injected clock (rank 1's ticks are 4x longer), so the migration
  // schedule never depends on host load.
  sim::RunnerConfig cfg;
  cfg.global = kRemapGrid;
  cfg.fluid = FluidParams::microchannel_defaults(0.05, 1.5, 0.03, 1.0, 2e-5);
  cfg.policy = "filtered";
  cfg.remap_interval = 4;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;  // one yz-plane of this grid
  cfg.clock_factory = [](int rank) {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  obs::MetricsRegistry reg(3);
  cfg.metrics = &reg;
  const int phases = 60;

  Slab seq(std::make_shared<const ChannelGeometry>(kRemapGrid), cfg.fluid, 0,
           kRemapGrid.nx);
  seq.initialize_uniform();
  run_reference(seq, phases);
  Profiles ref;
  for (index_t gx = 0; gx < kRemapGrid.nx; ++gx) {
    ref.water.push_back(density_profile_y(seq, 0, gx, 2));
    ref.air.push_back(density_profile_y(seq, 1, gx, 2));
    ref.ux.push_back(velocity_profile_y(seq, gx, 2));
  }

  Profiles par;
  par.water.resize(static_cast<std::size_t>(kRemapGrid.nx));
  par.air.resize(static_cast<std::size_t>(kRemapGrid.nx));
  par.ux.resize(static_cast<std::size_t>(kRemapGrid.nx));
  long long migrated = 0;
  std::mutex mu;
  transport::run_ranks(3, [&](transport::Communicator& comm) {
    sim::ParallelLbm run(cfg, comm);
    run.initialize_uniform();
    run.run(phases);
    auto stats = run.gather_stats();
    for (index_t gx = 0; gx < kRemapGrid.nx; ++gx) {
      auto w = run.gather_density_profile_y(0, gx, 2);
      auto a = run.gather_density_profile_y(1, gx, 2);
      auto u = run.gather_velocity_profile_y(gx, 2);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        const auto i = static_cast<std::size_t>(gx);
        par.water[i] = std::move(w);
        par.air[i] = std::move(a);
        par.ux[i] = std::move(u);
      }
    }
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      for (const auto& s : stats) migrated += s.planes_sent;
    }
  });

  EXPECT_GT(migrated, 0);  // the run really crossed a migration
  expect_profiles_near(ref, par);
  // the plan path reports its bookkeeping: plan builds are timed (outside
  // "remap") and the MLUPS gauge is derived from the fluid-cell count
  EXPECT_GT(reg.counter_total("time/plan"), 0.0);
  EXPECT_GT(reg.counter_total("cells_updated"), 0.0);
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(reg.has_gauge(r, "mlups"));
    EXPECT_GT(reg.gauge(r, "mlups"), 0.0);
  }
}
