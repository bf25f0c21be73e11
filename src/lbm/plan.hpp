#pragma once
/// \file plan.hpp
/// StreamingPlan — the owned cells of a slab, classified once into the
/// iteration units of the hot kernels.
///
/// The geometry of a slab (walls, periodic wraps, obstacles, the slab's
/// own x-extent) never changes between plane migrations, yet the legacy
/// kernels re-evaluate every wall/periodic/obstacle branch per direction
/// per cell per phase. The plan hoists that classification out of the hot
/// loop, the way production LB codes precompute streaming indices. One
/// pass over the owned cells emits:
///
///  * row tiles (tile.hpp): up to kTileWidth z-consecutive fluid cells of
///    one (x, y) row, with one push / bounce / drop / psi lane mask per
///    direction. The row kernels sweep them with unit-stride vector
///    loads and stores, wall-adjacent and exchange-facing cells included;
///  * the cells those masks cannot express, each with a per-cell table:
///    periodic y/z wraps (the neighbour is not at the fixed offset),
///    moving-wall bounces (they carry a momentum correction) and solid
///    cells (the force pass sweeps them, streaming never writes them).
///    A streaming link table lists each outgoing population's
///    destination (direction, cell), with half-way bounce-back resolved
///    to the cell itself, the reversed direction and the moving-wall
///    `c · u_wall` precomputed; a population bound for an x-halo plane
///    has no link (the exchange delivers it). A force neighbour table
///    lists the 18 psi gathers (storage index, or -1 where psi is zero
///    because the neighbour is a wall or obstacle);
///  * pulls *from* the halo planes (the five x-crossing directions filled
///    by the exchange) as plain copies, and the solid cells.
///
/// Rows never span two (x, y) rows, and an irregular cell closes the
/// open row, so which code path a cell takes depends only on the
/// geometry — never on how the runner slices rows or per-cell lists
/// across ranks and pool lanes. That keeps results byte-identical for
/// any rank x thread count.
///
/// Everything is appended in storage (plane) order, so the units of the
/// inner planes lx in [2, nx_local-1] — whose psi gathers never touch a
/// halo plane — form one contiguous slice of the rows and one of the
/// per-cell force list. The overlap runner sweeps those slices while the
/// density halo is in flight and the complement after it landed.
///
/// A plan depends only on (geometry, x_begin, nx_local), so a slab builds
/// it lazily and rebuilds it after a plane migration; the rebuild is a
/// single O(owned cells) pass, comparable to one phase of compute, and
/// the runners record it under the `plan` span so it is visible next to
/// the migration cost it belongs to.

#include <array>
#include <cstdint>
#include <vector>

#include "lbm/geometry.hpp"
#include "lbm/lattice.hpp"
#include "lbm/tile.hpp"
#include "lbm/types.hpp"

namespace slipflow::lbm {

/// One streaming link of a per-cell (irregular) fluid cell, in push form:
/// the cell's post-collision population leaving along `out_dir` is
/// written to f[dest_dir] at `dest`.
struct StreamLink {
  index_t dest = 0;      ///< destination cell (== the cell itself when bounced)
  double wall_cu = 0.0;  ///< c[dest_dir]·u_wall for the moving-wall correction
  std::int8_t out_dir = 0;
  std::int8_t dest_dir = 0;  ///< == out_dir unless bounced (then kOpposite)
};

/// A per-cell fluid cell of the streaming pass with its link-table slice.
struct StreamBoundaryCell {
  index_t cell = 0;
  std::uint32_t link_begin = 0;
  std::uint32_t link_end = 0;
};

/// Copy of one exchanged halo population into the owned plane it streams
/// to (the pull from a halo plane, resolved at build time).
struct HaloPull {
  index_t src = 0;   ///< halo-plane cell
  index_t dest = 0;  ///< owned cell
  std::int8_t dir = 0;
};

/// A per-cell cell of the force pass with its neighbour-table slice (18
/// entries starting at nbr_begin; -1 marks a wall/obstacle neighbour).
struct ForceBoundaryCell {
  index_t cell = 0;
  index_t yz = 0;
  index_t gx = 0;
  std::uint32_t nbr_begin = 0;
};

class StreamingPlan {
 public:
  /// Classify every owned cell of the slab [x_begin, x_begin+nx_local)
  /// of `geom`. Storage extents are the owned planes plus one halo plane
  /// per side, exactly as Slab allocates them.
  StreamingPlan(const ChannelGeometry& geom, index_t x_begin,
                index_t nx_local);

  const Extents& storage() const { return store_; }
  index_t x_begin() const { return x_begin_; }
  index_t nx_local() const { return nx_local_; }

  /// Storage-index offset of direction d (the fixed stride a row lane
  /// pushes and gathers across).
  index_t dir_offset(int d) const { return dir_off_[static_cast<std::size_t>(d)]; }

  // --- row tiles ------------------------------------------------------
  /// Row tiles of every sweep (collide+stream and force), plane order.
  const std::vector<RowTile>& rows() const { return rows_; }
  /// The contiguous slice of rows() on the inner planes [2, nx_local-1]:
  /// their force gathers read owned psi only. Empty when nx_local <= 2.
  std::size_t inner_begin() const { return inner_begin_; }
  std::size_t inner_end() const { return inner_end_; }

  // --- per-cell lists (the cells no row covers) -----------------------
  /// Fluid cells for the per-cell link kernel.
  const std::vector<StreamBoundaryCell>& stream_cells() const {
    return stream_cells_;
  }
  const std::vector<StreamLink>& links() const { return links_; }
  /// Owned cells (solids included) for the per-cell force kernel;
  /// [force_cells_inner_begin, force_cells_inner_end) are those of the
  /// inner planes.
  const std::vector<ForceBoundaryCell>& force_cells() const {
    return force_cells_;
  }
  std::size_t force_cells_inner_begin() const { return fc_inner_begin_; }
  std::size_t force_cells_inner_end() const { return fc_inner_end_; }
  /// Flat neighbour table, 18 entries per force cell (directions 1..18 in
  /// order; -1 = psi is zero there).
  const std::vector<index_t>& force_neighbors() const { return force_nbrs_; }

  // --- halo pulls and solids ------------------------------------------
  const std::vector<HaloPull>& halo_pulls() const { return halo_pulls_; }
  /// Solid (obstacle) cells among the owned planes; their populations are
  /// pinned to zero each step, as the legacy kernel does.
  const std::vector<index_t>& solids() const { return solids_; }

  /// Owned fluid cells — the MLUPS denominator.
  index_t fluid_cells() const { return fluid_cells_; }

 private:
  /// Where direction d of cell (lx, y, z) leads: blocked by a wall or
  /// obstacle (with the crossed walls' velocity), or the storage index
  /// of the neighbour, wrapped across periodic y/z.
  struct Neighbor {
    bool blocked = false;
    Vec3 wall_u{};
    index_t cell = 0;
  };
  using Neighbors = std::array<Neighbor, kQ>;  // [0] unused
  Neighbor neighbor(index_t lx, index_t y, index_t z, index_t gx,
                    int d) const;
  void classify();
  void push_links_for(index_t lx, index_t cell, const Neighbors& nbrs);
  void push_neighbors_for(const Neighbors& nbrs);
  void push_halo_pulls_for(index_t lx, index_t y, index_t z, index_t gx);

  const ChannelGeometry* geom_;
  Extents store_{};
  index_t x_begin_ = 0;
  index_t nx_local_ = 0;
  std::array<index_t, kQ> dir_off_{};
  index_t fluid_cells_ = 0;

  std::vector<RowTile> rows_;
  std::size_t inner_begin_ = 0, inner_end_ = 0;
  std::vector<StreamBoundaryCell> stream_cells_;
  std::vector<StreamLink> links_;
  std::vector<ForceBoundaryCell> force_cells_;
  std::vector<index_t> force_nbrs_;
  std::size_t fc_inner_begin_ = 0, fc_inner_end_ = 0;
  std::vector<HaloPull> halo_pulls_;
  std::vector<index_t> solids_;
};

}  // namespace slipflow::lbm
