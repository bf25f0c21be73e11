#include "lbm/plan.hpp"

#include <algorithm>

namespace slipflow::lbm {

namespace {

constexpr std::uint32_t kAllDirs = (1u << kQ) - 1u;
constexpr std::uint32_t kMovingDirs = kAllDirs & ~1u;

/// Transpose an 8x8 bit matrix: bit 8*r + c moves to bit 8*c + r
/// (Hacker's Delight, transpose8rS64).
std::uint64_t transpose8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x = x ^ t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x = x ^ t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  return x ^ t ^ (t << 28);
}

/// The row being filled: each lane's masks as direction bitsets (bit d =
/// direction d), turned into the per-direction lane masks of a RowTile
/// when the row closes.
struct OpenRow {
  RowTile row;
  std::uint32_t lanes[4][kTileWidth]{};  // push, bounce, drop, psi

  void add(std::uint32_t push, std::uint32_t bounce, std::uint32_t drop,
           std::uint32_t psi) {
    const auto l = static_cast<std::size_t>(row.count++);
    lanes[0][l] = push;
    lanes[1][l] = bounce;
    lanes[2][l] = drop;
    lanes[3][l] = psi;
  }

  RowTile finish() const {
    RowTile out = row;
    LaneMask* masks[4] = {out.push, out.bounce, out.drop, out.psi};
    for (std::size_t kind = 0; kind < 4; ++kind) {
      for (int d0 = 0; d0 < kQ; d0 += 8) {
        // byte l = directions [d0, d0+8) of lane l; transposed, byte j
        // holds direction d0+j of every lane
        std::uint64_t x = 0;
        for (std::size_t l = 0; l < static_cast<std::size_t>(row.count); ++l)
          x |= static_cast<std::uint64_t>((lanes[kind][l] >> d0) & 0xFFu)
               << (8 * l);
        x = transpose8(x);
        for (int j = 0; j < 8 && d0 + j < kQ; ++j)
          masks[kind][d0 + j] = static_cast<LaneMask>(x >> (8 * j));
      }
    }
    return out;
  }
};

}  // namespace

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

StreamingPlan::Neighbor StreamingPlan::neighbor(index_t lx, index_t y,
                                                index_t z, index_t gx,
                                                int d) const {
  const ChannelGeometry& geom = *geom_;
  using Wall = ChannelGeometry::Wall;
  Neighbor n;
  index_t dy = y + kCy[d];
  index_t dz = z + kCz[d];
  // Same wall-crossing logic (and wall-velocity accumulation order) as
  // the pull form in the legacy stream(): y extent first, then z.
  if (dy < 0 || dy >= store_.ny) {
    if (geom.walls_y()) {
      n.blocked = true;
      if (geom.has_moving_walls())
        n.wall_u += geom.wall_velocity(dy < 0 ? Wall::y_low : Wall::y_high);
    } else {
      dy = (dy + store_.ny) % store_.ny;
    }
  }
  if (dz < 0 || dz >= store_.nz) {
    if (geom.walls_z()) {
      n.blocked = true;
      if (geom.has_moving_walls())
        n.wall_u += geom.wall_velocity(dz < 0 ? Wall::z_low : Wall::z_high);
    } else {
      dz = (dz + store_.nz) % store_.nz;
    }
  }
  if (!n.blocked && geom.has_obstacles() && geom.solid(gx + kCx[d], dy, dz))
    n.blocked = true;
  if (!n.blocked) n.cell = store_.idx(lx + kCx[d], dy, dz);
  return n;
}

namespace {

/// c[kOpposite[d]]·u_wall: the moving-wall term of the population leaving
/// along d that bounces back into the cell along kOpposite[d].
double bounce_wall_cu(int d, const Vec3& uw) {
  const int b = kOpposite[d];
  return kCx[b] * uw.x + kCy[b] * uw.y + kCz[b] * uw.z;
}

}  // namespace

void StreamingPlan::push_links_for(index_t lx, index_t cell,
                                   const Neighbors& nbrs) {
  for (int d = 1; d < kQ; ++d) {
    const Neighbor& n = nbrs[static_cast<std::size_t>(d)];
    if (n.blocked) {
      // The population leaving along d bounces straight back: it becomes
      // this cell's incoming population along kOpposite[d], plus the
      // moving-wall momentum correction evaluated for that pull direction.
      links_.push_back(StreamLink{cell, bounce_wall_cu(d, n.wall_u),
                                  static_cast<std::int8_t>(d),
                                  static_cast<std::int8_t>(kOpposite[d])});
      continue;
    }
    const index_t dlx = lx + kCx[d];
    if (dlx < 1 || dlx > nx_local_) continue;  // halo exchange delivers it
    links_.push_back(StreamLink{n.cell, 0.0, static_cast<std::int8_t>(d),
                                static_cast<std::int8_t>(d)});
  }
}

void StreamingPlan::push_neighbors_for(const Neighbors& nbrs) {
  for (int d = 1; d < kQ; ++d) {
    const Neighbor& n = nbrs[static_cast<std::size_t>(d)];
    force_nbrs_.push_back(n.blocked ? index_t{-1} : n.cell);
  }
}

void StreamingPlan::push_halo_pulls_for(index_t lx, index_t y, index_t z,
                                        index_t gx) {
  // Pulls from the exchanged halo planes (the legacy kernel's reads of
  // f_post at lx=0 / lx=nx_local+1), minus those bounce-back resolves:
  // slot (d, cell) pulls from cell - c_d, the neighbour along kOpposite[d].
  const bool left_edge = lx == 1;
  const bool right_edge = lx == nx_local_;
  const index_t cell = store_.idx(lx, y, z);
  for (int d = 1; d < kQ; ++d) {
    if (kCx[d] == 0) continue;
    if (kCx[d] > 0 ? !left_edge : !right_edge) continue;
    const Neighbor n = neighbor(lx, y, z, gx, kOpposite[d]);
    if (n.blocked) continue;  // bounced, not pulled
    halo_pulls_.push_back(HaloPull{n.cell, cell, static_cast<std::int8_t>(d)});
  }
}

void StreamingPlan::classify() {
  const ChannelGeometry& geom = *geom_;
  const bool obstacles = geom.has_obstacles();
  const index_t ny = store_.ny;
  const index_t nz = store_.nz;

  // A cell's 18 moving-direction neighbours are "plain" when every one is
  // an in-range (no wall crossing, no periodic wrap) non-solid site: then
  // every push and psi gather is at the fixed offset, no bounce.
  const auto plain_yz_neighbors = [&](index_t gx, index_t y, index_t z) {
    if (y < 1 || y > ny - 2 || z < 1 || z > nz - 2) return false;
    if (!obstacles) return true;
    for (int d = 1; d < kQ; ++d) {
      if (geom.solid(gx + kCx[d], y + kCy[d], z + kCz[d])) return false;
    }
    return true;
  };

  // one row per kTileWidth cells of each (x, y) row, plus the breaks
  // irregular cells add; halo pulls on the (at most two) edge planes
  rows_.reserve(static_cast<std::size_t>(
      nx_local_ * ny * ((nz + kTileWidth - 1) / kTileWidth)));
  halo_pulls_.reserve(static_cast<std::size_t>(
      std::min<index_t>(nx_local_, 2) * ny * nz * kXDirCount));

  OpenRow open{};
  const auto close_row = [&] {
    if (open.row.count == 0) return;
    rows_.push_back(open.finish());
    open = OpenRow{};
  };
  // A cell the lane masks cannot express: its per-cell tables, and a
  // break in the row.
  const auto per_cell = [&](index_t lx, index_t y, index_t z, index_t gx,
                            bool fluid) {
    close_row();
    const index_t cell = store_.idx(lx, y, z);
    Neighbors nbrs{};
    for (int d = 1; d < kQ; ++d)
      nbrs[static_cast<std::size_t>(d)] = neighbor(lx, y, z, gx, d);
    if (fluid) {
      const auto begin = static_cast<std::uint32_t>(links_.size());
      push_links_for(lx, cell, nbrs);
      stream_cells_.push_back(StreamBoundaryCell{
          cell, begin, static_cast<std::uint32_t>(links_.size())});
    }
    const auto nbr_begin = static_cast<std::uint32_t>(force_nbrs_.size());
    push_neighbors_for(nbrs);
    force_cells_.push_back(ForceBoundaryCell{cell, y * nz + z, gx, nbr_begin});
  };

  for (index_t lx = 1; lx <= nx_local_; ++lx) {
    // Inner-slice markers for the overlap runner: planes [2, nx_local-1]
    // only. Both conditions fire at lx==2 when nx_local==2 (empty inner);
    // for nx_local==1 only the end fires, at size 0 (also empty).
    if (lx == 2) {
      inner_begin_ = rows_.size();
      fc_inner_begin_ = force_cells_.size();
    }
    if (lx == nx_local_) {
      inner_end_ = rows_.size();
      fc_inner_end_ = force_cells_.size();
    }
    const index_t gx = x_begin_ + lx - 1;
    const bool edge = lx == 1 || lx == nx_local_;
    // directions whose push leaves the owned planes: the exchange
    // delivers those populations, so the row drops them
    std::uint32_t leaves = 0;
    for (int d = 1; d < kQ; ++d)
      if (lx + kCx[d] < 1 || lx + kCx[d] > nx_local_) leaves |= 1u << d;

    for (index_t y = 0; y < ny; ++y) {
      for (index_t z = 0; z < nz; ++z) {
        const index_t cell = store_.idx(lx, y, z);
        if (obstacles && geom.solid(gx, y, z)) {
          solids_.push_back(cell);
          per_cell(lx, y, z, gx, /*fluid=*/false);
          continue;
        }
        ++fluid_cells_;
        if (edge) push_halo_pulls_for(lx, y, z, gx);

        // The cell's masks as direction bitsets (bit d = direction d).
        // Rows express pushes at the fixed offset, plain half-way
        // bounces and drops; a periodic wrap (neighbour off the fixed
        // offset) or a moving-wall correction does not fit.
        std::uint32_t push = kAllDirs & ~leaves;
        std::uint32_t bounce = 0;
        std::uint32_t psi = kMovingDirs;
        bool regular = true;
        if (!plain_yz_neighbors(gx, y, z)) {
          push = 1u;  // the rest population stays home
          psi = 0;
          for (int d = 1; d < kQ && regular; ++d) {
            const std::uint32_t bit = 1u << d;
            const Neighbor n = neighbor(lx, y, z, gx, d);
            if (n.blocked) {
              bounce |= bit;  // psi is zero there: the bit stays clear
              regular = bounce_wall_cu(d, n.wall_u) == 0.0;
            } else {
              psi |= bit;
              if ((leaves & bit) == 0) push |= bit;
              regular = n.cell == cell + dir_offset(d);
            }
          }
        }
        if (!regular) {
          per_cell(lx, y, z, gx, /*fluid=*/true);
          continue;
        }
        if (open.row.count == kTileWidth) close_row();
        if (open.row.count == 0) {
          open.row.cell = cell;
          open.row.yz = y * nz + z;
          open.row.gx = gx;
        }
        open.add(push, bounce, kMovingDirs & ~push & ~bounce, psi);
      }
      close_row();  // rows never span two (x, y) rows
    }
  }
}

}  // namespace slipflow::lbm
