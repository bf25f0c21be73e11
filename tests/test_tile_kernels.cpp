// Equivalence and structural tests for the row-tile kernel path.
//
// Every KernelBackend this build/CPU supports must reproduce the legacy
// reference kernels (lbm::reference_phase, the oracle) across a sweep of
// odd/prime grid extents (chosen so rows leave every possible short-row
// length), geometries, component counts and collision operators: byte
// for byte on one pass of each kernel — also from a crafted state full
// of signed zeros — and to within 1e-13 per population over runs; the
// density pass and the oracle itself must give the same bytes on every
// backend. Structurally, the plan's row tiles plus its per-cell lists
// must cover every owned cell exactly once, in plane order with the
// inner-plane markers on the plane boundaries, and the row masks, link
// tables and halo pulls replayed as writes and gathers must reproduce
// the legacy pull and psi-gather rules slot for slot. Finally a
// migrating multi-rank run on every backend must match the sequential
// reference, pinning partition invariance.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lbm/kernels.hpp"
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

/// Pin the process-global backend for a scope; restores the default on
/// exit so test order cannot leak a pinned backend.
struct BackendGuard {
  explicit BackendGuard(KernelBackend b) { set_kernel_backend(b); }
  ~BackendGuard() { set_kernel_backend(default_kernel_backend()); }
};

/// Every distinct row backend this build/CPU runs (`scalar` is an alias
/// of autovec, so sweeping it would only repeat autovec).
std::vector<KernelBackend> row_backends() {
  std::vector<KernelBackend> out;
  for (KernelBackend b : supported_kernel_backends())
    if (b != KernelBackend::scalar) out.push_back(b);
  return out;
}

// Odd/prime extents: nz in {3, 5, 7, 11} leaves rows of every short
// length, so every backend exercises every masked-lane width; {6,5,16}
// gives two full rows per (x, y); {4,6,8} is the README shape — one
// full-width row per (x, y) whose first and last lanes touch a wall.
const Extents kGrids[] = {
    {7, 5, 3}, {5, 3, 7}, {3, 4, 5}, {6, 5, 16}, {4, 7, 11}, {4, 6, 8},
};

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
    {"channel", true, true},
    {"obstacles", true, true, /*obstacle=*/true},
    {"moving_walls", true, true, false, /*moving=*/true},
    {"patterned", true, true, false, false, /*patterned=*/true},
};

/// The runner configuration of a geometry case on grid `e`.
sim::RunnerConfig make_config(const GeoCase& gc, const Extents& e,
                              FluidParams params = {}) {
  sim::RunnerConfig cfg;
  cfg.global = e;
  cfg.fluid = std::move(params);
  cfg.walls_y = gc.walls_y;
  cfg.walls_z = gc.walls_z;
  if (gc.obstacle) {
    // one solid cell near the middle — enough to split runs on any grid
    const index_t ox = e.nx / 2, oy = e.ny / 2, oz = e.nz / 2;
    cfg.obstacle = [ox, oy, oz](index_t gx, index_t gy, index_t gz) {
      return gx == ox && gy == oy && gz == oz;
    };
  }
  if (gc.moving) {
    using Wall = ChannelGeometry::Wall;
    cfg.wall_velocity[static_cast<std::size_t>(Wall::z_low)] = {0.02, 0.01,
                                                                 0.0};
    cfg.wall_velocity[static_cast<std::size_t>(Wall::y_high)] = {-0.01, 0.0,
                                                                  0.005};
  }
  return cfg;
}

std::shared_ptr<const ChannelGeometry> make_geom(const GeoCase& gc,
                                                 const Extents& e) {
  return sim::make_geometry(make_config(gc, e));
}

FluidParams make_params(int ncomp, CollisionModel cm, const GeoCase& gc) {
  FluidParams p = ncomp == 1
                      ? FluidParams::single_component(/*tau=*/0.8, 1e-5)
                      : FluidParams::microchannel_defaults(0.1, 1.5, 0.05,
                                                           1.0, 2e-5);
  if (ncomp == 1 && (gc.walls_y || gc.walls_z))
    p.components[0].wall_accel = 0.15;
  if (gc.patterned) {
    p.wall_pattern = [](index_t gx, index_t gy, index_t gz) {
      return 1.0 + 0.5 * static_cast<double>((gx + gy + gz) % 2);
    };
  }
  for (auto& c : p.components) c.collision = cm;
  return p;
}

double init_density(const FluidParams& p, std::size_t c, index_t gx,
                    index_t gy, index_t gz) {
  const double base = p.components[c].init_density;
  const auto h = static_cast<double>((3 * gx + 5 * gy + 7 * gz) % 11);
  return base * (1.0 + 0.05 * h / 11.0);
}

void expect_slabs_match(const Slab& tile_s, const Slab& ref_s) {
  const Extents& e = tile_s.storage();
  for (index_t lx = 1; lx <= tile_s.nx_local(); ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        for (std::size_t c = 0; c < tile_s.num_components(); ++c) {
          for (int d = 0; d < kQ; ++d)
            ASSERT_NEAR(tile_s.f(c).at(d, cell), ref_s.f(c).at(d, cell), kTol)
                << "f c=" << c << " d=" << d << " @(" << lx << "," << y << ","
                << z << ")";
          ASSERT_NEAR(tile_s.density(c)[cell], ref_s.density(c)[cell], kTol)
              << "n c=" << c;
          const Vec3 ua = tile_s.ueq(c).at(cell);
          const Vec3 ub = ref_s.ueq(c).at(cell);
          ASSERT_NEAR(ua.x, ub.x, kTol) << "ueq.x c=" << c;
          ASSERT_NEAR(ua.y, ub.y, kTol) << "ueq.y c=" << c;
          ASSERT_NEAR(ua.z, ub.z, kTol) << "ueq.z c=" << c;
        }
        const Vec3 va = tile_s.velocity().at(cell);
        const Vec3 vb = ref_s.velocity().at(cell);
        ASSERT_NEAR(va.x, vb.x, kTol) << "u.x";
        ASSERT_NEAR(va.y, vb.y, kTol) << "u.y";
        ASSERT_NEAR(va.z, vb.z, kTol) << "u.z";
      }
}

void run_sim(Simulation& sim, const FluidParams& params, int phases) {
  const auto init = [&params](std::size_t c, index_t gx, index_t gy,
                              index_t gz) {
    return init_density(params, c, gx, gy, gz);
  };
  sim.initialize(init);
  sim.run(phases);
}

/// The oracle: a full-domain slab initialized like run_sim, primed and
/// stepped `phases` reference phases on the legacy kernels.
std::unique_ptr<Slab> reference_slab(const sim::RunnerConfig& cfg,
                                     int phases) {
  auto slab = std::make_unique<Slab>(sim::make_geometry(cfg), cfg.fluid, 0,
                                     cfg.global.nx);
  const FluidParams& params = cfg.fluid;
  slab->initialize([&params](std::size_t c, index_t gx, index_t gy,
                             index_t gz) {
    return init_density(params, c, gx, gy, gz);
  });
  PeriodicSelfExchanger halo;
  prime(*slab, halo);
  for (int p = 0; p < phases; ++p) reference_phase(*slab, halo);
  return slab;
}

template <class Field>
bool same_bytes(const Field& a, const Field& b) {
  const auto da = a.data(), db = b.data();
  return da.size() == db.size() &&
         std::memcmp(da.data(), db.data(), da.size() * sizeof(double)) == 0;
}

bool same_vec(const VectorField& a, const VectorField& b) {
  return same_bytes(a.x(), b.x()) && same_bytes(a.y(), b.y()) &&
         same_bytes(a.z(), b.z());
}

/// Byte equality of every direction over the local planes
/// [plane_begin, plane_end).
bool same_planes(const DistField& a, const DistField& b, index_t plane_begin,
                 index_t plane_end) {
  for (int d = 0; d < kQ; ++d)
    for (index_t lx = plane_begin; lx < plane_end; ++lx) {
      const auto pa = a.dir_plane(d, lx), pb = b.dir_plane(d, lx);
      if (std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(double)) != 0)
        return false;
    }
  return true;
}

std::string case_name(const GeoCase& gc, const Extents& e, int ncomp,
                      CollisionModel cm) {
  return std::string(gc.name) + " " + std::to_string(e.nx) + "x" +
         std::to_string(e.ny) + "x" + std::to_string(e.nz) +
         " ncomp=" + std::to_string(ncomp) + " " +
         (cm == CollisionModel::bgk ? "bgk" : "mrt");
}

}  // namespace

// -- backend equivalence: {6 grids} x {5 geometries} x {1,2 comp} x
//    {BGK, MRT} x every row backend vs the oracle -----------------------

TEST(TileKernels, BackendsMatchScalarAcrossMatrix) {
  const auto backends = row_backends();
  ASSERT_FALSE(backends.empty());
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases)
      for (int ncomp : {1, 2})
        for (CollisionModel cm : {CollisionModel::bgk, CollisionModel::mrt}) {
          const FluidParams params = make_params(ncomp, cm, gc);
          const sim::RunnerConfig cfg = make_config(gc, e, params);
          const auto ref = reference_slab(cfg, 10);
          for (KernelBackend b : backends) {
            SCOPED_TRACE(case_name(gc, e, ncomp, cm) + " " + to_string(b));
            Simulation tile_sim(cfg);
            BackendGuard g(b);
            run_sim(tile_sim, params, 10);
            expect_slabs_match(tile_sim.slab(), *ref);
          }
        }
}

TEST(TileKernels, DensityBitIdenticalAcrossBackends) {
  // the density pass is pure additions in a fixed order: from the same
  // populations, every backend must write the oracle's exact bytes
  const Extents e{6, 5, 11};
  const FluidParams params = make_params(2, CollisionModel::bgk, kGeoCases[1]);
  Simulation probe(make_config(kGeoCases[1], e, params));
  run_sim(probe, params, 6);
  Slab& ps = probe.slab();
  compute_density(ps);
  std::vector<ScalarField> ref_n;
  for (std::size_t c = 0; c < ps.num_components(); ++c)
    ref_n.push_back(ps.density(c));
  for (KernelBackend b : row_backends()) {
    SCOPED_TRACE(to_string(b));
    BackendGuard gb(b);
    compute_density_planes(ps, 1, ps.nx_local() + 1);
    for (std::size_t c = 0; c < ps.num_components(); ++c)
      EXPECT_TRUE(same_bytes(ps.density(c), ref_n[c]))
          << "density not bit-identical, c=" << c;
  }
}

TEST(TileKernels, ReferencePhaseSameBytesOnEveryBackend) {
  // The oracle never dispatches: stepping reference_phase with any
  // backend active (scalar included) gives the same bytes.
  const Extents e{5, 7, 11};
  for (const GeoCase& gc : {kGeoCases[0], kGeoCases[2]}) {
    SCOPED_TRACE(gc.name);
    const FluidParams params = make_params(2, CollisionModel::bgk, gc);
    const sim::RunnerConfig cfg = make_config(gc, e, params);
    std::unique_ptr<Slab> first;
    for (KernelBackend b : supported_kernel_backends()) {
      SCOPED_TRACE(to_string(b));
      BackendGuard g(b);
      auto slab = reference_slab(cfg, 4);
      if (!first) {
        first = std::move(slab);
        continue;
      }
      const Extents& st = slab->storage();
      for (std::size_t c = 0; c < slab->num_components(); ++c) {
        EXPECT_TRUE(same_planes(slab->f(c), first->f(c), 0, st.nx))
            << "f, c=" << c;
        EXPECT_TRUE(same_bytes(slab->density(c), first->density(c)))
            << "n, c=" << c;
        EXPECT_TRUE(same_vec(slab->ueq(c), first->ueq(c))) << "ueq, c=" << c;
      }
      EXPECT_TRUE(same_bytes(slab->total_density(), first->total_density()))
          << "rho_tot";
      EXPECT_TRUE(same_vec(slab->velocity(), first->velocity())) << "u";
    }
  }
}

// -- one pass, bit for bit ---------------------------------------------

namespace {

/// One collide+stream and one density+forces pass, either on the fused
/// kernels of the active backend or on the legacy oracle kernels. The
/// stream slab keeps the pre-collided f_post of the exchange-facing
/// planes (the f-halo payload) in `precollide`.
struct OnePass {
  std::vector<DistField> precollide;
};

OnePass stream_pass(Slab& s, bool legacy) {
  PeriodicSelfExchanger halo;
  OnePass out;
  if (legacy)
    collide(s);
  else
    collide_boundary_planes(s);
  for (std::size_t c = 0; c < s.num_components(); ++c)
    out.precollide.push_back(s.f_post(c));
  halo.exchange_f(s);
  if (legacy)
    stream(s);
  else
    fused_collide_stream(s);
  return out;
}

void force_pass(Slab& s, bool legacy) {
  PeriodicSelfExchanger halo;
  if (legacy)
    compute_density(s);
  else
    compute_density_planes(s, 1, s.nx_local() + 1);
  halo.exchange_density(s);
  if (legacy)
    compute_forces_and_velocity(s);
  else
    compute_forces_and_velocity_plan(s);
}

/// Byte equality of what one pass writes: the pre-collided edge planes
/// (the fused path collides only those), the streamed populations of
/// the owned planes, and the densities, ueq, total density and velocity.
void expect_pass_matches(const Slab& ts, const OnePass& tp, const Slab& rs,
                         const OnePass& rp, const Slab& tf, const Slab& rf) {
  const index_t nxl = ts.nx_local();
  for (std::size_t c = 0; c < ts.num_components(); ++c) {
    EXPECT_TRUE(same_planes(tp.precollide[c], rp.precollide[c], 1, 2) &&
                same_planes(tp.precollide[c], rp.precollide[c], nxl, nxl + 1))
        << "pre-collided f_post, c=" << c;
    EXPECT_TRUE(same_planes(ts.f(c), rs.f(c), 1, nxl + 1))
        << "streamed f, c=" << c;
    EXPECT_TRUE(same_bytes(tf.density(c), rf.density(c))) << "n, c=" << c;
    EXPECT_TRUE(same_vec(tf.ueq(c), rf.ueq(c))) << "ueq, c=" << c;
  }
  EXPECT_TRUE(same_bytes(tf.total_density(), rf.total_density()))
      << "rho_tot";
  EXPECT_TRUE(same_vec(tf.velocity(), rf.velocity())) << "u";
}

}  // namespace

TEST(TileKernels, OnePassBitIdenticalToScalar) {
  // From one evolved state, each kernel of a phase on every backend must
  // write exactly the legacy kernels' bytes: the pre-collided edge
  // planes, the streamed populations, and the force pass's ueq, total
  // density and velocity.
  const auto backends = row_backends();
  ASSERT_FALSE(backends.empty());
  for (const Extents& e : kGrids)
    for (const GeoCase& gc : {kGeoCases[1], kGeoCases[2]})
      for (int ncomp : {1, 2})
        for (CollisionModel cm : {CollisionModel::bgk, CollisionModel::mrt}) {
          const FluidParams params = make_params(ncomp, cm, gc);
          const sim::RunnerConfig cfg = make_config(gc, e, params);
          // Two copies of the state after 6 phases, one pass each.
          const auto evolved = [&] {
            auto sim = std::make_unique<Simulation>(cfg);
            run_sim(*sim, params, 6);
            return sim;
          };
          const auto ref = evolved();
          Slab& rs = ref->slab();
          const OnePass rp = stream_pass(rs, /*legacy=*/true);
          force_pass(rs, /*legacy=*/true);
          for (KernelBackend b : backends) {
            SCOPED_TRACE(case_name(gc, e, ncomp, cm) + " " + to_string(b));
            const auto got = evolved();
            Slab& ts = got->slab();
            BackendGuard g(b);
            const OnePass tp = stream_pass(ts, /*legacy=*/false);
            force_pass(ts, /*legacy=*/false);
            expect_pass_matches(ts, tp, rs, rp, ts, rs);
          }
        }
}

namespace {

/// A deterministic per-(cell, salt) hash for crafted inputs.
unsigned craft_hash(index_t cell, unsigned salt) {
  return static_cast<unsigned>(cell) * 2654435761u + salt * 40503u + 17u;
}

/// Overwrite every storage cell's f, n and ueq with inputs that stress
/// the lattice fold: ueq components of +0.0, -0.0 and either sign per
/// axis, f / n spanning six decades with +0.0 and -0.0 populations mixed
/// in, and vacuum cells whose populations are all signed zeros.
void craft_state(Slab& s) {
  static constexpr double kU[] = {0.0, -0.0, 1e-9, -1e-9, 0.07, -0.07, -3e-4};
  const index_t cells = s.storage().cells();
  for (std::size_t c = 0; c < s.num_components(); ++c) {
    const auto cu = static_cast<unsigned>(c);
    for (index_t cell = 0; cell < cells; ++cell) {
      const auto u = [&](unsigned axis) {
        return kU[(craft_hash(cell, axis + 7u * cu) >> 8) % 7];
      };
      s.ueq(c).set(cell, Vec3{u(1), u(2), u(3)});
      const unsigned hn = craft_hash(cell, 50u + cu);
      const bool vacuum = (hn >> 12) % 9 == 0;
      s.density(c)[cell] =
          vacuum ? 0.0
                 : std::pow(10.0, static_cast<double>((hn >> 8) % 7) - 3.0) *
                       (1.0 + static_cast<double>((hn >> 4) % 13) / 13.0);
      for (int d = 0; d < kQ; ++d) {
        const unsigned h =
            craft_hash(cell, 100u + 19u * cu + static_cast<unsigned>(d)) >> 8;
        double v = std::pow(10.0, static_cast<double>(h % 7) - 3.0) *
                   (1.0 + static_cast<double>(h % 97) / 97.0);
        if (h % 11 == 0 || (vacuum && h % 2 == 0)) v = 0.0;
        if (h % 11 == 1 || (vacuum && h % 2 == 1)) v = -0.0;
        s.f(c).at(d, cell) = v;
      }
    }
  }
}

}  // namespace

TEST(TileKernels, CraftedSignedZerosBitIdenticalToScalar) {
  // The row kernels fold the D3Q19 velocities in at compile time (no
  // multiply by 0 or ±1). From a crafted state, each kernel on every
  // backend must still write exactly the legacy kernels' bytes — memcmp,
  // so a -0.0 / +0.0 flip counts — including on masked tail vectors
  // (nz = 11 and 7 leave a short vector on every backend).
  const auto backends = row_backends();
  ASSERT_FALSE(backends.empty());
  for (const Extents& e : {Extents{4, 7, 11}, Extents{5, 3, 7}})
    for (const GeoCase& gc : {kGeoCases[1], kGeoCases[2]})
      for (int ncomp : {1, 2}) {
        const FluidParams params = make_params(ncomp, CollisionModel::bgk, gc);
        const sim::RunnerConfig cfg = make_config(gc, e, params);
        // collide+stream and density+forces, each from the crafted state
        struct Pass {
          std::unique_ptr<Simulation> stream, force;
          OnePass one;
        };
        const auto run_pass = [&](bool legacy) {
          Pass out;
          out.stream = std::make_unique<Simulation>(cfg);
          out.force = std::make_unique<Simulation>(cfg);
          out.stream->initialize_uniform();
          out.force->initialize_uniform();
          Slab& ss = out.stream->slab();
          craft_state(ss);
          out.one = stream_pass(ss, legacy);
          Slab& fs = out.force->slab();
          craft_state(fs);
          force_pass(fs, legacy);
          return out;
        };
        const Pass ref = run_pass(/*legacy=*/true);
        for (KernelBackend b : backends) {
          SCOPED_TRACE(case_name(gc, e, ncomp, CollisionModel::bgk) + " " +
                       to_string(b));
          BackendGuard g(b);
          const Pass got = run_pass(/*legacy=*/false);
          expect_pass_matches(got.stream->slab(), got.one, ref.stream->slab(),
                              ref.one, got.force->slab(), ref.force->slab());
        }
      }
}

// -- structural invariants of the plan's rows and per-cell lists --------

namespace {

/// Slab widths every structural test sweeps: 1- and 2-plane slabs (no
/// inner planes), 3 (one inner plane) and the full domain.
std::vector<index_t> slab_widths(const Extents& e) {
  std::vector<index_t> out{1, 2, 3, e.nx};
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](index_t n) { return n > e.nx; }),
            out.end());
  return out;
}

void expect_rows_partition_cells(const StreamingPlan& plan) {
  const Extents& e = plan.storage();
  const index_t nxl = plan.nx_local();
  std::vector<int> row_hits(static_cast<std::size_t>(e.cells()), 0);
  std::vector<int> stream_hits(row_hits.size(), 0);
  std::vector<int> force_hits(row_hits.size(), 0);
  std::vector<char> solid(row_hits.size(), 0);
  for (index_t s : plan.solids()) solid[static_cast<std::size_t>(s)] = 1;

  index_t last_lx = 1;
  for (std::size_t ri = 0; ri < plan.rows().size(); ++ri) {
    const RowTile& row = plan.rows()[ri];
    ASSERT_GE(row.count, 1);
    ASSERT_LE(row.count, kTileWidth);
    const index_t lx = row.cell / e.plane_cells();
    const index_t yz = row.cell % e.plane_cells();
    ASSERT_EQ(row.yz, yz);
    ASSERT_EQ(row.gx, plan.x_begin() + lx - 1);
    ASSERT_LE(yz % e.nz + row.count, e.nz) << "row spans two (x, y) rows";
    ASSERT_GE(lx, last_lx) << "rows out of plane order";
    last_lx = lx;
    const bool inner = ri >= plan.inner_begin() && ri < plan.inner_end();
    EXPECT_EQ(inner, lx >= 2 && lx <= nxl - 1) << "row " << ri;

    const auto live = static_cast<LaneMask>((1u << row.count) - 1u);
    EXPECT_EQ(row.push[0], live);
    EXPECT_EQ(row.bounce[0] | row.drop[0] | row.psi[0], 0);
    for (int d = 1; d < kQ; ++d) {
      EXPECT_EQ(row.push[d] | row.bounce[d] | row.drop[d], live) << d;
      EXPECT_EQ(row.push[d] & row.bounce[d], 0) << d;
      EXPECT_EQ(row.push[d] & row.drop[d], 0) << d;
      EXPECT_EQ(row.bounce[d] & row.drop[d], 0) << d;
      EXPECT_EQ(row.psi[d] & ~live, 0) << d;
      // only populations bound for a halo plane are dropped
      const bool leaves = lx + kCx[d] < 1 || lx + kCx[d] > nxl;
      if (!leaves) {
        EXPECT_EQ(row.drop[d], 0) << d;
      }
    }
    for (index_t i = 0; i < row.count; ++i) {
      ASSERT_FALSE(solid[static_cast<std::size_t>(row.cell + i)]);
      row_hits[static_cast<std::size_t>(row.cell + i)] += 1;
      // every address a live mask bit lets a kernel touch is in storage
      for (int d = 0; d < kQ; ++d) {
        const index_t nb = row.cell + i + plan.dir_offset(d);
        if (((row.push[d] | row.psi[d]) >> i) & 1u) {
          EXPECT_GE(nb, 0) << "d=" << d << " lane " << i;
          EXPECT_LT(nb, e.cells()) << "d=" << d << " lane " << i;
        }
      }
    }
  }

  // per-cell lists: plane ordered, link slices back to back, inner
  // markers on the plane boundaries
  std::uint32_t next_link = 0;
  index_t last_cell = -1;
  for (const StreamBoundaryCell& b : plan.stream_cells()) {
    EXPECT_GT(b.cell, last_cell) << "stream cells out of storage order";
    last_cell = b.cell;
    EXPECT_EQ(b.link_begin, next_link);
    EXPECT_LE(b.link_begin, b.link_end);
    next_link = b.link_end;
    stream_hits[static_cast<std::size_t>(b.cell)] += 1;
  }
  EXPECT_EQ(next_link, plan.links().size());
  last_cell = -1;
  for (std::size_t i = 0; i < plan.force_cells().size(); ++i) {
    const ForceBoundaryCell& b = plan.force_cells()[i];
    EXPECT_GT(b.cell, last_cell) << "force cells out of storage order";
    last_cell = b.cell;
    EXPECT_EQ(b.nbr_begin, i * (kQ - 1));
    const index_t lx = b.cell / e.plane_cells();
    EXPECT_EQ(b.yz, b.cell % e.plane_cells());
    EXPECT_EQ(b.gx, plan.x_begin() + lx - 1);
    const bool inner = i >= plan.force_cells_inner_begin() &&
                       i < plan.force_cells_inner_end();
    EXPECT_EQ(inner, lx >= 2 && lx <= nxl - 1) << "force cell " << i;
    force_hits[static_cast<std::size_t>(b.cell)] += 1;
  }
  EXPECT_EQ(plan.force_neighbors().size(),
            plan.force_cells().size() * (kQ - 1));

  // every owned fluid cell in exactly one row lane or the stream list;
  // every owned cell (solids too) in one row lane or the force list
  for (index_t lx = 0; lx < e.nx; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const auto cell = static_cast<std::size_t>(e.idx(lx, y, z));
        const bool owned = lx >= 1 && lx <= nxl;
        ASSERT_EQ(row_hits[cell] + stream_hits[cell],
                  owned && !solid[cell] ? 1 : 0)
            << "stream @(" << lx << "," << y << "," << z << ")";
        ASSERT_EQ(row_hits[cell] + force_hits[cell], owned ? 1 : 0)
            << "force @(" << lx << "," << y << "," << z << ")";
      }
}

// Replay the fused kernel's writes from the plan (row masks, per-cell
// link tables, halo pulls) and record which (cell, direction) source
// fills each (direction, cell) slot; replay the legacy pull rule from
// the geometry alone; the two must agree slot for slot, and every owned
// fluid slot must be written exactly once. The force gathers are
// checked the same way against the legacy psi-gather rule.
void expect_full_coverage_tiles(const ChannelGeometry& geom, index_t x_begin,
                                index_t nx_local) {
  const StreamingPlan plan(geom, x_begin, nx_local);
  const Extents& e = plan.storage();
  const auto cells = static_cast<std::size_t>(e.cells());
  constexpr long long kNone = -1;
  std::vector<long long> by_legacy(static_cast<std::size_t>(kQ) * cells,
                                   kNone);
  std::vector<long long> by_plan(by_legacy.size(), kNone);
  std::vector<int> writes(by_legacy.size(), 0);
  const auto slot = [&](int d, index_t cell) {
    return static_cast<std::size_t>(d) * cells + static_cast<std::size_t>(cell);
  };
  const auto source = [](index_t cell, int d) {
    return static_cast<long long>(cell) * kQ + d;
  };
  const auto write = [&](int d, index_t cell, long long src) {
    by_plan[slot(d, cell)] = src;
    writes[slot(d, cell)] += 1;
  };

  for (const RowTile& row : plan.rows())
    for (index_t i = 0; i < row.count; ++i) {
      const index_t cell = row.cell + i;
      const unsigned bit = 1u << i;
      for (int d = 0; d < kQ; ++d) {
        if (row.push[d] & bit)
          write(d, cell + plan.dir_offset(d), source(cell, d));
        if (row.bounce[d] & bit) write(kOpposite[d], cell, source(cell, d));
      }
    }
  for (const auto& b : plan.stream_cells()) {
    write(0, b.cell, source(b.cell, 0));
    for (std::uint32_t l = b.link_begin; l < b.link_end; ++l) {
      const StreamLink& lk = plan.links()[l];
      write(lk.dest_dir, lk.dest, source(b.cell, lk.out_dir));
    }
  }
  for (const auto& h : plan.halo_pulls())
    write(h.dir, h.dest, source(h.src, h.dir));

  // The legacy stream(): slot (d, cell) pulls population d from
  // cell - c_d (wrapped across periodic y/z), or — when that neighbour
  // is a wall or solid — the cell's own population kOpposite[d] bounced.
  // The psi gather of the legacy force kernel reads cell + c_d, or
  // nothing (psi zero) past a wall or inside a solid.
  const auto solid = [&](index_t gx, index_t y, index_t z) {
    return geom.has_obstacles() && geom.solid(gx, y, z);
  };
  // neighbour (lx + s cx, y + s cy, z + s cz) of direction d, -1 past a
  // wall or inside a solid
  const auto neighbour = [&](index_t lx, index_t y, index_t z, int d,
                             int s) -> index_t {
    index_t ny = y + s * kCy[d], nz = z + s * kCz[d];
    if (ny < 0 || ny >= e.ny) {
      if (geom.walls_y()) return -1;
      ny = (ny + e.ny) % e.ny;
    }
    if (nz < 0 || nz >= e.nz) {
      if (geom.walls_z()) return -1;
      nz = (nz + e.nz) % e.nz;
    }
    const index_t nlx = lx + s * kCx[d];
    if (solid(x_begin + nlx - 1, ny, nz)) return -1;
    return e.idx(nlx, ny, nz);
  };
  std::vector<index_t> g_legacy(by_legacy.size(), -2),
      g_plan(by_legacy.size(), -2);
  for (index_t lx = 1; lx <= nx_local; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        for (int d = 1; d < kQ; ++d)
          g_legacy[slot(d, cell)] = neighbour(lx, y, z, d, +1);
        if (solid(x_begin + lx - 1, y, z)) continue;
        by_legacy[slot(0, cell)] = source(cell, 0);
        for (int d = 1; d < kQ; ++d) {
          const index_t from = neighbour(lx, y, z, d, -1);
          by_legacy[slot(d, cell)] =
              from < 0 ? source(cell, kOpposite[d]) : source(from, d);
        }
      }
  ASSERT_TRUE(by_plan == by_legacy) << "the plan's writes pull other "
                                       "populations than the legacy stream";

  std::vector<char> is_solid(cells, 0);
  for (index_t s : plan.solids()) is_solid[static_cast<std::size_t>(s)] = 1;
  for (index_t lx = 0; lx < e.nx; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        const bool owned = lx >= 1 && lx <= nx_local;
        for (int d = 0; d < kQ; ++d) {
          const int expected =
              owned && !is_solid[static_cast<std::size_t>(cell)] ? 1 : 0;
          ASSERT_EQ(writes[slot(d, cell)], expected)
              << "d=" << d << " @(" << lx << "," << y << "," << z << ")";
        }
      }

  // force gathers: neighbour read per (cell, direction), -1 = psi zero
  for (const RowTile& row : plan.rows())
    for (index_t i = 0; i < row.count; ++i)
      for (int d = 1; d < kQ; ++d)
        g_plan[slot(d, row.cell + i)] =
            (row.psi[d] >> i) & 1u ? row.cell + i + plan.dir_offset(d) : -1;
  for (const auto& b : plan.force_cells())
    for (int d = 1; d < kQ; ++d)
      g_plan[slot(d, b.cell)] =
          plan.force_neighbors()[b.nbr_begin + static_cast<std::uint32_t>(d) -
                                 1];
  ASSERT_TRUE(g_plan == g_legacy) << "the plan gathers other psi "
                                     "neighbours than the legacy kernel";
}

}  // namespace

TEST(TileStructure, TilesPartitionRunsExactly) {
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases) {
      SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) + "x" +
                   std::to_string(e.ny) + "x" + std::to_string(e.nz));
      const auto geom = make_geom(gc, e);
      for (index_t nx_local : slab_widths(e))
        for (index_t x_begin : {index_t{0}, e.nx - nx_local}) {
          SCOPED_TRACE("slab " + std::to_string(x_begin) + "+" +
                       std::to_string(nx_local));
          expect_rows_partition_cells(StreamingPlan(*geom, x_begin, nx_local));
        }
    }
}

TEST(TileStructure, EveryFluidSlotWrittenExactlyOnceViaTiles) {
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases) {
      SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) + "x" +
                   std::to_string(e.ny) + "x" + std::to_string(e.nz));
      const auto geom = make_geom(gc, e);
      for (index_t nx_local : slab_widths(e))
        for (index_t x_begin : {index_t{0}, e.nx - nx_local}) {
          SCOPED_TRACE("slab " + std::to_string(x_begin) + "+" +
                       std::to_string(nx_local));
          expect_full_coverage_tiles(*geom, x_begin, nx_local);
        }
    }
}

TEST(TileStructure, ChannelRowsCoverEveryCell) {
  // Walled y/z without obstacles or moving walls — the README channel:
  // the masks express every cell, so the plan keeps no per-cell table,
  // and full rows on a kTileWidth-wide channel carry no tail.
  const Extents e{4, 6, 8};
  const auto geom = make_geom(kGeoCases[1], e);
  for (index_t nx_local : slab_widths(e)) {
    const StreamingPlan plan(*geom, 0, nx_local);
    EXPECT_TRUE(plan.stream_cells().empty());
    EXPECT_TRUE(plan.force_cells().empty());
    EXPECT_TRUE(plan.links().empty());
    EXPECT_TRUE(plan.force_neighbors().empty());
    ASSERT_EQ(plan.rows().size(), static_cast<std::size_t>(nx_local * e.ny));
    for (const RowTile& row : plan.rows()) EXPECT_EQ(row.count, e.nz);
  }
}

// -- partition invariance: migrating multi-rank run on every backend ---

TEST(TileKernels, ParallelSimdRunMatchesSequentialScalar) {
  const auto backends = row_backends();
  ASSERT_FALSE(backends.empty());
  const Extents grid{18, 6, 4};

  sim::RunnerConfig cfg;
  cfg.global = grid;
  cfg.fluid = FluidParams::microchannel_defaults(0.05, 1.5, 0.03, 1.0, 2e-5);
  cfg.policy = "filtered";
  cfg.remap_interval = 4;
  cfg.balance.window = 3;
  cfg.balance.min_transfer_points = 24;  // one yz-plane of this grid
  // rank 1's injected clock ticks 4x longer: it drains on a fixed
  // schedule, whatever the host load
  cfg.clock_factory = [](int rank) {
    return std::make_shared<obs::CountingClock>(rank == 1 ? 4e-3 : 1e-3);
  };
  const int chunks = 10;  // of remap_interval phases each

  // the sequential oracle
  Slab seq(std::make_shared<const ChannelGeometry>(grid), cfg.fluid, 0,
           grid.nx);
  seq.initialize_uniform();
  {
    PeriodicSelfExchanger halo;
    prime(seq, halo);
    for (int p = 0; p < chunks * cfg.remap_interval; ++p)
      reference_phase(seq, halo);
  }
  std::vector<std::vector<double>> ref_w, ref_a, ref_u;
  for (index_t gx = 0; gx < grid.nx; ++gx) {
    ref_w.push_back(density_profile_y(seq, 0, gx, 2));
    ref_a.push_back(density_profile_y(seq, 1, gx, 2));
    ref_u.push_back(velocity_profile_y(seq, gx, 2));
  }

  for (KernelBackend backend : backends)
    for (int threads : {1, 2}) {
      SCOPED_TRACE(std::string(to_string(backend)) + " threads=" +
                   std::to_string(threads));
      cfg.threads = threads;
      obs::MetricsRegistry reg(3);
      cfg.metrics = &reg;
      std::vector<std::vector<double>> par_w(grid.nx), par_a(grid.nx),
          par_u(grid.nx);
      long long migrated = 0;
      index_t slowed_min_planes = grid.nx;
      std::mutex mu;
      BackendGuard g(backend);  // all rank-threads share the process global
      transport::run_ranks(3, [&](transport::Communicator& comm) {
        sim::ParallelLbm run(cfg, comm);
        run.initialize_uniform();
        // Chunks of remap_interval phases keep run(N)'s remap schedule
        // while the slowed rank's slab width is sampled after each remap.
        index_t min_planes = run.slab().nx_local();
        for (int k = 0; k < chunks; ++k) {
          run.run(cfg.remap_interval);
          min_planes = std::min(min_planes, run.slab().nx_local());
        }
        auto stats = run.gather_stats();
        for (index_t gx = 0; gx < grid.nx; ++gx) {
          auto w = run.gather_density_profile_y(0, gx, 2);
          auto a = run.gather_density_profile_y(1, gx, 2);
          auto u = run.gather_velocity_profile_y(gx, 2);
          if (comm.rank() == 0) {
            std::lock_guard<std::mutex> lk(mu);
            const auto i = static_cast<std::size_t>(gx);
            par_w[i] = std::move(w);
            par_a[i] = std::move(a);
            par_u[i] = std::move(u);
          }
        }
        std::lock_guard<std::mutex> lk(mu);
        if (comm.rank() == 1) slowed_min_planes = min_planes;
        if (comm.rank() == 0)
          for (const auto& s : stats) migrated += s.planes_sent;
      });

      EXPECT_GT(migrated, 0);  // the run really crossed plan rebuilds
      // ... down to a 1-plane slab: edge rows only, no inner rows
      EXPECT_EQ(slowed_min_planes, 1);
      for (std::size_t gx = 0; gx < par_w.size(); ++gx) {
        ASSERT_EQ(par_w[gx].size(), ref_w[gx].size());
        for (std::size_t j = 0; j < par_w[gx].size(); ++j) {
          EXPECT_NEAR(par_w[gx][j], ref_w[gx][j], kTol) << gx << "," << j;
          EXPECT_NEAR(par_a[gx][j], ref_a[gx][j], kTol) << gx << "," << j;
          EXPECT_NEAR(par_u[gx][j], ref_u[gx][j], kTol) << gx << "," << j;
        }
      }
    }
}
