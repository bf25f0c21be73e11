/// \file kernels_tile.cpp
/// Dispatcher of the tile/SIMD kernel path: binds Slab state into the
/// plain-pointer contexts of kernels_tile.hpp and forwards row ranges to
/// the backend picked by KernelBackend. Also hosts the piece that stays
/// scalar inside the tile path — the stream step of MRT components (the
/// moment-space collision is not worth vectorizing at D3Q19 sizes)
/// sweeps the same rows cell by cell through the same lane masks, so
/// coverage is identical either way.

#include "lbm/kernels.hpp"
#include "lbm/kernels_tile.hpp"
#include "lbm/mrt.hpp"
#include "lbm/plan.hpp"
#include "lbm/tile.hpp"

namespace slipflow::lbm {

namespace {

const tilek::Backend* tile_backend(KernelBackend b) {
  switch (b) {
    case KernelBackend::scalar:
      return nullptr;
    case KernelBackend::autovec:
      return tilek::tile_backend_autovec();
    case KernelBackend::avx2:
      return tilek::tile_backend_avx2();
    case KernelBackend::avx512:
      return tilek::tile_backend_avx512();
  }
  return nullptr;
}

/// Scalar MRT collide + stream over rows [rb, re): the per-cell body of
/// fused_collide_stream_range, with each lane's push/bounce/drop read
/// from the row masks instead of a link table.
void mrt_stream_rows(Slab& slab, std::size_t c, std::size_t rb,
                     std::size_t re) {
  const StreamingPlan& plan = slab.plan();
  const std::vector<RowTile>& rows = slab.tiles().rows();
  index_t off[kQ];
  for (int d = 0; d < kQ; ++d) off[d] = plan.dir_offset(d);

  const ComponentParams& cp = slab.params().components[c];
  const ScalarField& n = slab.density(c);
  const VectorField& ueq = slab.ueq(c);
  const DistField& f = slab.f(c);
  DistField& fp = slab.f_post(c);
  const MrtOperator& op = MrtOperator::instance();
  const MrtRates rates = MrtRates::for_tau(cp.tau);
  double fin[kQ], fout[kQ];
  for (std::size_t t = rb; t < re; ++t) {
    const RowTile& row = rows[t];
    for (std::int32_t i = 0; i < row.count; ++i) {
      const index_t cell = row.cell + i;
      const unsigned bit = 1u << i;
      for (int d = 0; d < kQ; ++d) fin[d] = f.at(d, cell);
      op.collide_cell(fin, fout, n[cell], ueq.at(cell), rates);
      for (int d = 0; d < kQ; ++d) {
        if (row.push[d] & bit)
          fp.at(d, cell + off[d]) = fout[d];
        else if (row.bounce[d] & bit)
          fp.at(kOpposite[d], cell) = fout[d];
      }
    }
  }
}

/// BGK context of component c (rows bound only when sweeping rows).
tilek::StreamCtx stream_ctx(Slab& slab, std::size_t c) {
  const StreamingPlan& plan = slab.plan();
  tilek::StreamCtx ctx{};
  for (int d = 0; d < kQ; ++d) {
    ctx.f[d] = slab.f(c).dir(d).data();
    ctx.fp[d] = slab.f_post(c).dir(d).data();
    ctx.off[d] = plan.dir_offset(d);
  }
  ctx.n = slab.density(c).data().data();
  ctx.ux = slab.ueq(c).x().data().data();
  ctx.uy = slab.ueq(c).y().data().data();
  ctx.uz = slab.ueq(c).z().data().data();
  ctx.inv_tau = 1.0 / slab.params().components[c].tau;
  return ctx;
}

double eval_wall_pattern(const void* state, std::int64_t gx, std::int64_t y,
                         std::int64_t z) {
  const auto& fn =
      *static_cast<const std::function<double(index_t, index_t, index_t)>*>(
          state);
  return fn(gx, y, z);
}

}  // namespace

void fused_collide_stream_tiles(Slab& slab, KernelBackend backend,
                                std::size_t row_begin, std::size_t row_end) {
  const tilek::Backend* k = tile_backend(backend);
  SLIPFLOW_REQUIRE_MSG(k != nullptr,
                       "fused_collide_stream_tiles needs a tile backend");
  const std::vector<RowTile>& rows = slab.tiles().rows();
  SLIPFLOW_REQUIRE(row_begin <= row_end && row_end <= rows.size());

  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    if (slab.params().components[c].collision == CollisionModel::mrt) {
      mrt_stream_rows(slab, c, row_begin, row_end);
      continue;
    }
    tilek::StreamCtx ctx = stream_ctx(slab, c);
    ctx.rows = rows.data();
    k->stream(ctx, row_begin, row_end);
  }
}

void collide_cells(Slab& slab, KernelBackend backend, std::size_t component,
                   index_t first, index_t count) {
  const tilek::Backend* k = tile_backend(backend);
  SLIPFLOW_REQUIRE_MSG(k != nullptr, "collide_cells needs a tile backend");
  SLIPFLOW_REQUIRE(slab.params().components[component].collision ==
                   CollisionModel::bgk);
  SLIPFLOW_REQUIRE(first >= 0 && count >= 0 &&
                   first + count <= slab.storage().cells());
  k->collide(stream_ctx(slab, component), first, count);
}

void compute_forces_tiles(Slab& slab, const ForcePsiCache& cache,
                          KernelBackend backend, std::size_t row_begin,
                          std::size_t row_end) {
  const tilek::Backend* k = tile_backend(backend);
  SLIPFLOW_REQUIRE_MSG(k != nullptr,
                       "compute_forces_tiles needs a tile backend");
  const StreamingPlan& plan = slab.plan();
  const std::vector<RowTile>& rows = slab.tiles().rows();
  SLIPFLOW_REQUIRE(row_begin <= row_end && row_end <= rows.size());
  const FluidParams& prm = slab.params();
  const std::size_t nc = slab.num_components();
  SLIPFLOW_REQUIRE(nc <= tilek::kMaxComp);

  tilek::ForceCtx ctx{};
  ctx.rows = rows.data();
  ctx.ncomp = static_cast<int>(nc);
  for (int d = 0; d < kQ; ++d) ctx.off[d] = plan.dir_offset(d);
  ctx.nz = slab.storage().nz;
  for (std::size_t c = 0; c < nc; ++c) {
    const ComponentParams& cp = prm.components[c];
    ctx.psi[c] = cache.psi[c];
    ctx.n[c] = slab.density(c).data().data();
    for (int d = 0; d < kQ; ++d) ctx.f[c][d] = slab.f(c).dir(d).data();
    ctx.ueq_x[c] = slab.ueq(c).x().data().data();
    ctx.ueq_y[c] = slab.ueq(c).y().data().data();
    ctx.ueq_z[c] = slab.ueq(c).z().data().data();
    ctx.mass[c] = cp.molecular_mass;
    ctx.tau[c] = cp.tau;
    ctx.wall_accel[c] = cp.wall_accel;
    for (std::size_t c2 = 0; c2 < nc; ++c2) ctx.g[c][c2] = prm.g(c, c2);
  }
  ctx.rho_tot = slab.total_density().data().data();
  ctx.u_x = slab.velocity().x().data().data();
  ctx.u_y = slab.velocity().y().data().data();
  ctx.u_z = slab.velocity().z().data().data();
  ctx.wall_unit = &slab.wall_accel_unit(0);
  ctx.gravity_x = prm.gravity_x;
  ctx.max_force_shift = prm.max_force_shift;
  if (prm.wall_pattern) {
    ctx.pattern = &eval_wall_pattern;
    ctx.pattern_state = &prm.wall_pattern;
  }
  k->forces(ctx, row_begin, row_end);
}

void compute_density_cells(Slab& slab, KernelBackend backend, index_t first,
                           index_t count) {
  const tilek::Backend* k = tile_backend(backend);
  SLIPFLOW_REQUIRE_MSG(k != nullptr,
                       "compute_density_cells needs a tile backend");
  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    tilek::DensityCtx ctx{};
    for (int d = 0; d < kQ; ++d) ctx.f[d] = slab.f(c).dir(d).data();
    ctx.n = slab.density(c).data().data();
    k->density(ctx, first, count);
  }
}

// Fallback stubs for backends whose translation unit is not in this
// build (the CMake gates and these #if guards always agree).
#if !defined(SLIPFLOW_HAVE_AVX2)
namespace tilek {
const Backend* tile_backend_avx2() { return nullptr; }
}  // namespace tilek
#endif
#if !defined(SLIPFLOW_HAVE_AVX512)
namespace tilek {
const Backend* tile_backend_avx512() { return nullptr; }
}  // namespace tilek
#endif

}  // namespace slipflow::lbm
