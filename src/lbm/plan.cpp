#include "lbm/plan.hpp"

#include <algorithm>

namespace slipflow::lbm {

StreamingPlan::StreamingPlan(const ChannelGeometry& geom, index_t x_begin,
                             index_t nx_local)
    : geom_(&geom), x_begin_(x_begin), nx_local_(nx_local) {
  SLIPFLOW_REQUIRE(nx_local >= 1);
  SLIPFLOW_REQUIRE(x_begin >= 0 && x_begin + nx_local <= geom.global().nx);
  const Extents& g = geom.global();
  store_ = Extents{nx_local + 2, g.ny, g.nz};
  for (int d = 0; d < kQ; ++d)
    dir_off_[static_cast<std::size_t>(d)] =
        (static_cast<index_t>(kCx[d]) * store_.ny +
         static_cast<index_t>(kCy[d])) *
            store_.nz +
        static_cast<index_t>(kCz[d]);
  classify();
}

void StreamingPlan::push_links_for(index_t lx, index_t y, index_t z,
                                   index_t gx) {
  const ChannelGeometry& geom = *geom_;
  const bool obstacles = geom.has_obstacles();
  const bool moving = geom.has_moving_walls();
  const bool wy = geom.walls_y();
  const bool wz = geom.walls_z();
  using Wall = ChannelGeometry::Wall;
  const index_t cell = store_.idx(lx, y, z);
  for (int d = 1; d < kQ; ++d) {
    index_t dy = y + kCy[d];
    index_t dz = z + kCz[d];
    // Same wall-crossing logic (and wall-velocity accumulation order) as
    // the pull form in the legacy stream(): y extent first, then z.
    bool wall = false;
    Vec3 uw{};
    if (dy < 0 || dy >= store_.ny) {
      if (wy) {
        wall = true;
        if (moving)
          uw += geom.wall_velocity(dy < 0 ? Wall::y_low : Wall::y_high);
      } else {
        dy = (dy + store_.ny) % store_.ny;
      }
    }
    if (dz < 0 || dz >= store_.nz) {
      if (wz) {
        wall = true;
        if (moving)
          uw += geom.wall_velocity(dz < 0 ? Wall::z_low : Wall::z_high);
      } else {
        dz = (dz + store_.nz) % store_.nz;
      }
    }
    if (!wall && obstacles && geom.solid(gx + kCx[d], dy, dz)) wall = true;
    if (wall) {
      // The population leaving along d bounces straight back: it becomes
      // this cell's incoming population along kOpposite[d], plus the
      // moving-wall momentum correction evaluated for that pull direction.
      const int dest_dir = kOpposite[d];
      const double wall_cu =
          kCx[dest_dir] * uw.x + kCy[dest_dir] * uw.y + kCz[dest_dir] * uw.z;
      links_.push_back(StreamLink{cell, wall_cu, static_cast<std::int8_t>(d),
                                  static_cast<std::int8_t>(dest_dir)});
      continue;
    }
    const index_t dlx = lx + kCx[d];
    if (dlx < 1 || dlx > nx_local_) continue;  // halo exchange delivers it
    links_.push_back(StreamLink{store_.idx(dlx, dy, dz), 0.0,
                                static_cast<std::int8_t>(d),
                                static_cast<std::int8_t>(d)});
  }
}

void StreamingPlan::classify() {
  const ChannelGeometry& geom = *geom_;
  const bool obstacles = geom.has_obstacles();
  const index_t ny = store_.ny;
  const index_t nz = store_.nz;

  // A cell's 18 moving-direction neighbors are "plain" when every one is
  // an in-range (no wall crossing, no periodic wrap) non-solid site — then
  // both push-streaming and the psi gather reduce to fixed index offsets.
  const auto plain_yz_neighbors = [&](index_t gx, index_t y, index_t z) {
    if (y < 1 || y > ny - 2 || z < 1 || z > nz - 2) return false;
    if (!obstacles) return true;
    for (int d = 1; d < kQ; ++d) {
      if (geom.solid(gx + kCx[d], y + kCy[d], z + kCz[d])) return false;
    }
    return true;
  };

  // Size the lists for an obstacle-free slab up front — growing them cell
  // by cell (the link tables above all) used to dominate the build. Not
  // plain interior: both edge planes for streaming, the y/z rim of every
  // plane for both kernels; obstacles only add to that.
  {
    const index_t rim = ny * nz - std::max<index_t>(ny - 2, 0) *
                                      std::max<index_t>(nz - 2, 0);
    const index_t edge = std::min<index_t>(nx_local_, 2);
    const auto sb =
        static_cast<std::size_t>(edge * ny * nz + (nx_local_ - edge) * rim);
    const auto fb = static_cast<std::size_t>(nx_local_ * rim);
    const auto rows = static_cast<std::size_t>(nx_local_ * ny);
    stream_interior_.reserve(rows);
    stream_boundary_.reserve(sb);
    links_.reserve(sb * (kQ - 1));
    halo_pulls_.reserve(static_cast<std::size_t>(edge * ny * nz * kXDirCount));
    force_interior_.reserve(rows);
    force_boundary_.reserve(fb);
    force_nbrs_.reserve(fb * (kQ - 1));
  }

  for (index_t lx = 1; lx <= nx_local_; ++lx) {
    // Inner-slice markers for the overlap runner: planes [2, nx_local-1]
    // only. Both conditions fire at lx==2 when nx_local==2 (empty inner);
    // for nx_local==1 only the end fires, at size 0 (also empty).
    if (lx == 2) {
      fi_inner_begin_ = force_interior_.size();
      fb_inner_begin_ = force_boundary_.size();
    }
    if (lx == nx_local_) {
      fi_inner_end_ = force_interior_.size();
      fb_inner_end_ = force_boundary_.size();
    }
    const index_t gx = x_begin_ + lx - 1;
    for (index_t y = 0; y < ny; ++y) {
      InteriorRun srun{};  // open stream-interior run of this row
      InteriorRun frun{};  // open force-interior run of this row
      for (index_t z = 0; z < nz; ++z) {
        const index_t cell = store_.idx(lx, y, z);
        const index_t yz = y * nz + z;
        const bool solid = obstacles && geom.solid(gx, y, z);
        const bool plain = plain_yz_neighbors(gx, y, z);

        // --- streaming classification (fluid cells only) ---------------
        if (solid) {
          solids_.push_back(cell);
        } else {
          ++fluid_cells_;
          if (plain && lx >= 2 && lx <= nx_local_ - 1) {
            if (srun.count == 0) srun = InteriorRun{cell, 0, yz, gx};
            ++srun.count;
          } else {
            if (srun.count > 0) {
              stream_interior_.push_back(srun);
              srun.count = 0;
            }
            const auto begin = static_cast<std::uint32_t>(links_.size());
            push_links_for(lx, y, z, gx);
            stream_boundary_.push_back(StreamBoundaryCell{
                cell, begin, static_cast<std::uint32_t>(links_.size())});
          }
          // Pulls from the exchanged halo planes (the legacy kernel's
          // reads of f_post at lx=0 / lx=nx_local+1), minus those the
          // bounce-back links above already resolve.
          const bool left_edge = lx == 1;
          const bool right_edge = lx == nx_local_;
          if (left_edge || right_edge) {
            for (int d = 1; d < kQ; ++d) {
              if (kCx[d] == 0) continue;
              const bool from_left = kCx[d] > 0;  // pulls from lx-1
              if (from_left ? !left_edge : !right_edge) continue;
              index_t sy = y - kCy[d];
              index_t sz = z - kCz[d];
              if (sy < 0 || sy >= ny) {
                if (geom.walls_y()) continue;  // bounced, not pulled
                sy = (sy + ny) % ny;
              }
              if (sz < 0 || sz >= nz) {
                if (geom.walls_z()) continue;
                sz = (sz + nz) % nz;
              }
              if (obstacles && geom.solid(gx - kCx[d], sy, sz)) continue;
              const index_t slx = from_left ? 0 : nx_local_ + 1;
              halo_pulls_.push_back(HaloPull{store_.idx(slx, sy, sz), cell,
                                             static_cast<std::int8_t>(d)});
            }
          }
        }

        // --- force classification (all owned cells, matching the legacy
        // kernel which sweeps solids too; solids always take the table so
        // the interior runs hold fluid cells only) -----------------------
        if (plain && !solid) {
          if (frun.count == 0) frun = InteriorRun{cell, 0, yz, gx};
          ++frun.count;
        } else {
          if (frun.count > 0) {
            force_interior_.push_back(frun);
            frun.count = 0;
          }
          const auto begin = static_cast<std::uint32_t>(force_nbrs_.size());
          for (int d = 1; d < kQ; ++d) {
            index_t ny2 = y + kCy[d];
            index_t nz2 = z + kCz[d];
            if (ny2 < 0 || ny2 >= ny) {
              if (geom.walls_y()) {
                force_nbrs_.push_back(-1);
                continue;
              }
              ny2 = (ny2 + ny) % ny;
            }
            if (nz2 < 0 || nz2 >= nz) {
              if (geom.walls_z()) {
                force_nbrs_.push_back(-1);
                continue;
              }
              nz2 = (nz2 + nz) % nz;
            }
            if (obstacles && geom.solid(gx + kCx[d], ny2, nz2)) {
              force_nbrs_.push_back(-1);
              continue;
            }
            force_nbrs_.push_back(store_.idx(lx + kCx[d], ny2, nz2));
          }
          force_boundary_.push_back(ForceBoundaryCell{cell, yz, gx, begin});
        }
      }
      if (srun.count > 0) stream_interior_.push_back(srun);
      if (frun.count > 0) force_interior_.push_back(frun);
    }
  }
}

}  // namespace slipflow::lbm
