// Equivalence and structural tests for the SIMD tile kernel path.
//
// Every KernelBackend this build/CPU supports must reproduce the scalar
// plan path across a sweep of odd/prime grid extents (chosen so rows
// leave every possible short-row length), geometries, component counts
// and collision operators: bit for bit on one pass of each kernel, and
// to within 1e-13 per population over runs — and the density pass must
// be bit-identical (pure additions in a fixed order). Structurally, the
// TileLayout's row tiles plus its per-cell lists must cover every owned
// cell exactly once, in plane order with the inner-plane markers on the
// plane boundaries, and the row masks replayed as writes and gathers
// must reproduce the plan's link and neighbour tables slot for slot.
// Finally a migrating multi-rank run on every SIMD backend must match
// the sequential scalar reference, pinning partition invariance.

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
#include "lbm/tile.hpp"
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

/// Pin the process-global backend for a scope; restores scalar (the
/// reference) on exit so test order cannot leak a SIMD backend.
struct BackendGuard {
  explicit BackendGuard(KernelBackend b) { set_kernel_backend(b); }
  ~BackendGuard() { set_kernel_backend(KernelBackend::scalar); }
};

std::vector<KernelBackend> simd_backends() {
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

}  // namespace

// -- backend equivalence: {5 grids} x {5 geometries} x {1,2 comp} x
//    {BGK, MRT} x every supported SIMD backend vs scalar ----------------

TEST(TileKernels, BackendsMatchScalarAcrossMatrix) {
  const auto backends = simd_backends();
  ASSERT_FALSE(backends.empty()) << "no SIMD backend compiled in";
  for (const Extents& e : kGrids)
    for (const auto& gc : kGeoCases)
      for (int ncomp : {1, 2})
        for (CollisionModel cm : {CollisionModel::bgk, CollisionModel::mrt}) {
          const FluidParams params = make_params(ncomp, cm, gc);
          const sim::RunnerConfig cfg = make_config(gc, e, params);
          Simulation ref(cfg);
          {
            BackendGuard g(KernelBackend::scalar);
            run_sim(ref, params, 10);
          }
          for (KernelBackend b : backends) {
            SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) +
                         "x" + std::to_string(e.ny) + "x" +
                         std::to_string(e.nz) + " ncomp=" +
                         std::to_string(ncomp) + " " +
                         (cm == CollisionModel::bgk ? "bgk" : "mrt") + " " +
                         to_string(b));
            Simulation tile_sim(cfg);
            BackendGuard g(b);
            run_sim(tile_sim, params, 10);
            expect_slabs_match(tile_sim.slab(), ref.slab());
          }
        }
}

TEST(TileKernels, DensityBitIdenticalAcrossBackends) {
  // the density pass is pure additions in a fixed order: from the same
  // populations, every backend must produce the exact same bits
  const Extents e{6, 5, 11};
  const FluidParams params = make_params(2, CollisionModel::bgk, kGeoCases[1]);
  Simulation probe(make_config(kGeoCases[1], e, params));
  {
    BackendGuard gs(KernelBackend::scalar);
    run_sim(probe, params, 6);
  }
  Slab& ps = probe.slab();
  std::vector<std::vector<double>> scalar_n;
  {
    BackendGuard gs(KernelBackend::scalar);
    compute_density(ps);
    for (std::size_t c = 0; c < ps.num_components(); ++c)
      scalar_n.emplace_back(ps.density(c).data().begin(),
                            ps.density(c).data().end());
  }
  for (KernelBackend b : simd_backends()) {
    SCOPED_TRACE(to_string(b));
    BackendGuard gb(b);
    compute_density(ps);
    for (std::size_t c = 0; c < ps.num_components(); ++c)
      for (index_t cell = 0; cell < ps.storage().cells(); ++cell)
        ASSERT_EQ(ps.density(c)[cell], scalar_n[c][cell])
            << "density not bit-identical, c=" << c << " cell=" << cell;
  }
}

// -- one pass, bit for bit ---------------------------------------------

namespace {

template <class Field>
bool same_bytes(const Field& a, const Field& b) {
  const auto da = a.data(), db = b.data();
  return da.size() == db.size() &&
         std::memcmp(da.data(), db.data(), da.size() * sizeof(double)) == 0;
}

bool same_dist(const DistField& a, const DistField& b) {
  for (int d = 0; d < kQ; ++d) {
    const auto da = a.dir(d), db = b.dir(d);
    if (std::memcmp(da.data(), db.data(), da.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

bool same_vec(const VectorField& a, const VectorField& b) {
  return same_bytes(a.x(), b.x()) && same_bytes(a.y(), b.y()) &&
         same_bytes(a.z(), b.z());
}

}  // namespace

TEST(TileKernels, OnePassBitIdenticalToScalar) {
  // From one evolved state, each kernel of a phase on a SIMD backend
  // must write exactly the scalar path's bytes: the pre-collided edge
  // planes, the streamed populations, and the force pass's ueq,
  // total density and velocity.
  const auto backends = simd_backends();
  ASSERT_FALSE(backends.empty()) << "no SIMD backend compiled in";
  for (const Extents& e : kGrids)
    for (const GeoCase& gc : {kGeoCases[1], kGeoCases[2]})
      for (int ncomp : {1, 2})
        for (CollisionModel cm : {CollisionModel::bgk, CollisionModel::mrt}) {
          const FluidParams params = make_params(ncomp, cm, gc);
          const sim::RunnerConfig cfg = make_config(gc, e, params);
          // One pass of every kernel on `b`, from 6 scalar phases.
          const auto one_pass = [&](KernelBackend b) {
            auto sim = std::make_unique<Simulation>(cfg);
            {
              BackendGuard g(KernelBackend::scalar);
              run_sim(*sim, params, 6);
            }
            Slab& s = sim->slab();
            PeriodicSelfExchanger halo;
            BackendGuard g(b);
            s.tiles();
            collide_boundary_planes(s);
            std::vector<DistField> precollide;
            for (std::size_t c = 0; c < s.num_components(); ++c)
              precollide.push_back(s.f_post(c));
            halo.exchange_f(s);
            fused_collide_stream(s);
            compute_density(s);
            halo.exchange_density(s);
            compute_forces_and_velocity_plan(s);
            return std::make_pair(std::move(sim), std::move(precollide));
          };
          const auto ref = one_pass(KernelBackend::scalar);
          const Slab& rs = ref.first->slab();
          for (KernelBackend b : backends) {
            SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) +
                         "x" + std::to_string(e.ny) + "x" +
                         std::to_string(e.nz) + " ncomp=" +
                         std::to_string(ncomp) + " " +
                         (cm == CollisionModel::bgk ? "bgk" : "mrt") + " " +
                         to_string(b));
            const auto got = one_pass(b);
            const Slab& ts = got.first->slab();
            for (std::size_t c = 0; c < ts.num_components(); ++c) {
              EXPECT_TRUE(same_dist(got.second[c], ref.second[c]))
                  << "pre-collided f_post, c=" << c;
              EXPECT_TRUE(same_dist(ts.f(c), rs.f(c)))
                  << "streamed f_post, c=" << c;
              EXPECT_TRUE(same_bytes(ts.density(c), rs.density(c)))
                  << "n, c=" << c;
              EXPECT_TRUE(same_vec(ts.ueq(c), rs.ueq(c))) << "ueq, c=" << c;
            }
            EXPECT_TRUE(same_bytes(ts.total_density(), rs.total_density()))
                << "rho_tot";
            EXPECT_TRUE(same_vec(ts.velocity(), rs.velocity())) << "u";
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
  // SIMD backend must still write exactly the scalar path's bytes —
  // memcmp, so a -0.0 / +0.0 flip counts — including on masked tail
  // vectors (nz = 11 and 7 leave a short vector on every backend).
  const auto backends = simd_backends();
  ASSERT_FALSE(backends.empty()) << "no SIMD backend compiled in";
  for (const Extents& e : {Extents{4, 7, 11}, Extents{5, 3, 7}})
    for (const GeoCase& gc : {kGeoCases[1], kGeoCases[2]})
      for (int ncomp : {1, 2}) {
        const FluidParams params = make_params(ncomp, CollisionModel::bgk, gc);
        const sim::RunnerConfig cfg = make_config(gc, e, params);
        struct Pass {
          std::unique_ptr<Simulation> stream, force;
          std::vector<DistField> precollide;
        };
        // collide+stream and density+forces, each from the crafted state
        const auto one_pass = [&](KernelBackend b) {
          Pass out;
          out.stream = std::make_unique<Simulation>(cfg);
          out.force = std::make_unique<Simulation>(cfg);
          {
            BackendGuard g(KernelBackend::scalar);
            out.stream->initialize_uniform();
            out.force->initialize_uniform();
          }
          PeriodicSelfExchanger halo;
          BackendGuard g(b);
          Slab& ss = out.stream->slab();
          ss.tiles();
          craft_state(ss);
          collide_boundary_planes(ss);
          for (std::size_t c = 0; c < ss.num_components(); ++c)
            out.precollide.push_back(ss.f_post(c));
          halo.exchange_f(ss);
          fused_collide_stream(ss);
          Slab& fs = out.force->slab();
          fs.tiles();
          craft_state(fs);
          compute_density(fs);
          halo.exchange_density(fs);
          compute_forces_and_velocity_plan(fs);
          return out;
        };
        const Pass ref = one_pass(KernelBackend::scalar);
        for (KernelBackend b : backends) {
          SCOPED_TRACE(std::string(gc.name) + " " + std::to_string(e.nx) +
                       "x" + std::to_string(e.ny) + "x" +
                       std::to_string(e.nz) + " ncomp=" +
                       std::to_string(ncomp) + " " + to_string(b));
          const Pass got = one_pass(b);
          const Slab& ts = got.stream->slab();
          const Slab& rs = ref.stream->slab();
          const Slab& tf = got.force->slab();
          const Slab& rf = ref.force->slab();
          for (std::size_t c = 0; c < ts.num_components(); ++c) {
            EXPECT_TRUE(same_dist(got.precollide[c], ref.precollide[c]))
                << "pre-collided f_post, c=" << c;
            EXPECT_TRUE(same_dist(ts.f(c), rs.f(c)))
                << "streamed f_post, c=" << c;
            EXPECT_TRUE(same_bytes(tf.density(c), rf.density(c)))
                << "n, c=" << c;
            EXPECT_TRUE(same_vec(tf.ueq(c), rf.ueq(c))) << "ueq, c=" << c;
          }
          EXPECT_TRUE(same_bytes(tf.total_density(), rf.total_density()))
              << "rho_tot";
          EXPECT_TRUE(same_vec(tf.velocity(), rf.velocity())) << "u";
        }
      }
}

// -- structural invariants of the TileLayout ---------------------------

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

void expect_rows_partition_cells(const StreamingPlan& plan,
                                 const TileLayout& layout) {
  const Extents& e = plan.storage();
  const index_t nxl = plan.nx_local();
  std::vector<int> row_hits(static_cast<std::size_t>(e.cells()), 0);
  std::vector<int> stream_hits(row_hits.size(), 0);
  std::vector<int> force_hits(row_hits.size(), 0);
  std::vector<char> solid(row_hits.size(), 0);
  for (index_t s : plan.solids()) solid[static_cast<std::size_t>(s)] = 1;

  index_t last_lx = 1;
  for (std::size_t ri = 0; ri < layout.rows().size(); ++ri) {
    const RowTile& row = layout.rows()[ri];
    ASSERT_GE(row.count, 1);
    ASSERT_LE(row.count, kTileWidth);
    const index_t lx = row.cell / e.plane_cells();
    const index_t yz = row.cell % e.plane_cells();
    ASSERT_EQ(row.yz, yz);
    ASSERT_EQ(row.gx, plan.x_begin() + lx - 1);
    ASSERT_LE(yz % e.nz + row.count, e.nz) << "row spans two (x, y) rows";
    ASSERT_GE(lx, last_lx) << "rows out of plane order";
    last_lx = lx;
    const bool inner = ri >= layout.inner_begin() && ri < layout.inner_end();
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

  // per-cell lists: subsets of the plan's boundary lists, plane ordered,
  // inner markers on the plane boundaries
  std::size_t pi = 0;
  for (const StreamBoundaryCell& b : layout.stream_cells()) {
    while (pi < plan.stream_boundary().size() &&
           plan.stream_boundary()[pi].cell != b.cell)
      ++pi;
    ASSERT_LT(pi, plan.stream_boundary().size()) << "not a plan entry";
    EXPECT_EQ(plan.stream_boundary()[pi].link_begin, b.link_begin);
    EXPECT_EQ(plan.stream_boundary()[pi].link_end, b.link_end);
    stream_hits[static_cast<std::size_t>(b.cell)] += 1;
  }
  pi = 0;
  for (std::size_t i = 0; i < layout.force_cells().size(); ++i) {
    const ForceBoundaryCell& b = layout.force_cells()[i];
    while (pi < plan.force_boundary().size() &&
           plan.force_boundary()[pi].cell != b.cell)
      ++pi;
    ASSERT_LT(pi, plan.force_boundary().size()) << "not a plan entry";
    EXPECT_EQ(plan.force_boundary()[pi].nbr_begin, b.nbr_begin);
    const index_t lx = b.cell / e.plane_cells();
    const bool inner = i >= layout.force_cells_inner_begin() &&
                       i < layout.force_cells_inner_end();
    EXPECT_EQ(inner, lx >= 2 && lx <= nxl - 1) << "force cell " << i;
    force_hits[static_cast<std::size_t>(b.cell)] += 1;
  }

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

// Replay the fused kernel's writes twice — once from the plan (runs +
// link tables), once from the layout (row masks + per-cell lists) — and
// record which (cell, out_dir) wrote each (direction, cell) slot: the
// two must agree slot for slot, and every owned fluid slot must be
// written exactly once. The force gathers are replayed the same way.
void expect_full_coverage_tiles(const ChannelGeometry& geom, index_t x_begin,
                                index_t nx_local) {
  const StreamingPlan plan(geom, x_begin, nx_local);
  const TileLayout layout(plan);
  const Extents& e = plan.storage();
  const auto cells = static_cast<std::size_t>(e.cells());
  constexpr long long kNone = -1;
  std::vector<long long> by_plan(static_cast<std::size_t>(kQ) * cells, kNone);
  std::vector<long long> by_rows(by_plan.size(), kNone);
  std::vector<int> writes(by_plan.size(), 0);
  const auto slot = [&](int d, index_t cell) {
    return static_cast<std::size_t>(d) * cells + static_cast<std::size_t>(cell);
  };
  const auto source = [](index_t cell, int d) {
    return static_cast<long long>(cell) * kQ + d;
  };
  const auto replay_links = [&](const StreamBoundaryCell& b,
                                std::vector<long long>& by) {
    by[slot(0, b.cell)] = source(b.cell, 0);
    for (std::uint32_t l = b.link_begin; l < b.link_end; ++l) {
      const StreamLink& lk = plan.links()[l];
      by[slot(lk.dest_dir, lk.dest)] = source(b.cell, lk.out_dir);
    }
  };

  for (const auto& run : plan.stream_interior())
    for (index_t i = 0; i < run.count; ++i)
      for (int d = 0; d < kQ; ++d)
        by_plan[slot(d, run.cell + i + plan.dir_offset(d))] =
            source(run.cell + i, d);
  for (const auto& b : plan.stream_boundary()) replay_links(b, by_plan);

  for (const RowTile& row : layout.rows())
    for (index_t i = 0; i < row.count; ++i) {
      const index_t cell = row.cell + i;
      const unsigned bit = 1u << i;
      for (int d = 0; d < kQ; ++d) {
        if (row.push[d] & bit) {
          by_rows[slot(d, cell + plan.dir_offset(d))] = source(cell, d);
          writes[slot(d, cell + plan.dir_offset(d))] += 1;
        }
        if (row.bounce[d] & bit) {
          by_rows[slot(kOpposite[d], cell)] = source(cell, d);
          writes[slot(kOpposite[d], cell)] += 1;
        }
      }
    }
  for (const auto& b : layout.stream_cells()) {
    replay_links(b, by_rows);
    writes[slot(0, b.cell)] += 1;
    for (std::uint32_t l = b.link_begin; l < b.link_end; ++l)
      writes[slot(plan.links()[l].dest_dir, plan.links()[l].dest)] += 1;
  }
  for (const auto& h : plan.halo_pulls()) writes[slot(h.dir, h.dest)] += 1;
  ASSERT_TRUE(by_rows == by_plan) << "row masks write other slots than "
                                     "the plan's link tables";

  std::vector<char> solid(cells, 0);
  for (index_t s : plan.solids()) solid[static_cast<std::size_t>(s)] = 1;
  for (index_t lx = 0; lx < e.nx; ++lx)
    for (index_t y = 0; y < e.ny; ++y)
      for (index_t z = 0; z < e.nz; ++z) {
        const index_t cell = e.idx(lx, y, z);
        const bool owned = lx >= 1 && lx <= nx_local;
        for (int d = 0; d < kQ; ++d) {
          const int expected =
              owned && !solid[static_cast<std::size_t>(cell)] ? 1 : 0;
          ASSERT_EQ(writes[slot(d, cell)], expected)
              << "d=" << d << " @(" << lx << "," << y << "," << z << ")";
        }
      }

  // force gathers: neighbour read per (cell, direction), -1 = psi zero
  std::vector<index_t> g_plan(by_plan.size(), -2), g_rows(by_plan.size(), -2);
  for (const auto& run : plan.force_interior())
    for (index_t i = 0; i < run.count; ++i)
      for (int d = 1; d < kQ; ++d)
        g_plan[slot(d, run.cell + i)] = run.cell + i + plan.dir_offset(d);
  const auto table = [&](const ForceBoundaryCell& b,
                         std::vector<index_t>& g) {
    for (int d = 1; d < kQ; ++d)
      g[slot(d, b.cell)] =
          plan.force_neighbors()[b.nbr_begin + static_cast<std::uint32_t>(d) -
                                 1];
  };
  for (const auto& b : plan.force_boundary()) table(b, g_plan);
  for (const RowTile& row : layout.rows())
    for (index_t i = 0; i < row.count; ++i)
      for (int d = 1; d < kQ; ++d)
        g_rows[slot(d, row.cell + i)] =
            (row.psi[d] >> i) & 1u ? row.cell + i + plan.dir_offset(d) : -1;
  for (const auto& b : layout.force_cells()) table(b, g_rows);
  ASSERT_TRUE(g_rows == g_plan) << "psi masks gather other neighbours than "
                                   "the plan's tables";
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
          const StreamingPlan plan(*geom, x_begin, nx_local);
          expect_rows_partition_cells(plan, TileLayout(plan));
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
  // the masks express every cell, so nothing is left to the per-cell
  // path, and full rows on a kTileWidth-wide channel carry no tail.
  const Extents e{4, 6, 8};
  const auto geom = make_geom(kGeoCases[1], e);
  for (index_t nx_local : slab_widths(e)) {
    const StreamingPlan plan(*geom, 0, nx_local);
    const TileLayout layout(plan);
    EXPECT_TRUE(layout.stream_cells().empty());
    EXPECT_TRUE(layout.force_cells().empty());
    ASSERT_EQ(layout.rows().size(), static_cast<std::size_t>(nx_local * e.ny));
    for (const RowTile& row : layout.rows()) EXPECT_EQ(row.count, e.nz);
  }
}

// -- partition invariance: migrating multi-rank run on a SIMD backend --

TEST(TileKernels, ParallelSimdRunMatchesSequentialScalar) {
  const auto backends = simd_backends();
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

  Simulation seq(grid, cfg.fluid);
  {
    BackendGuard g(KernelBackend::scalar);
    seq.initialize_uniform();
    seq.run(chunks * cfg.remap_interval);
  }
  std::vector<std::vector<double>> ref_w, ref_a, ref_u;
  for (index_t gx = 0; gx < grid.nx; ++gx) {
    ref_w.push_back(density_profile_y(seq.slab(), 0, gx, 2));
    ref_a.push_back(density_profile_y(seq.slab(), 1, gx, 2));
    ref_u.push_back(velocity_profile_y(seq.slab(), gx, 2));
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

      EXPECT_GT(migrated, 0);  // the run really crossed plan+tile rebuilds
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
