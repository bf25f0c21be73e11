#pragma once
/// \file plan.hpp
/// StreamingPlan — precomputed boundary-link plans for branch-free LBM
/// kernels.
///
/// The geometry of a slab (walls, periodic wraps, obstacles, the slab's
/// own x-extent) never changes between plane migrations, yet the legacy
/// kernels re-evaluate every wall/periodic/obstacle branch per direction
/// per cell per phase. The plan hoists that classification out of the hot
/// loop, the way production LB codes precompute streaming indices:
///
///  * every owned *fluid* cell is classified once as **interior** (all 18
///    moving-direction neighbors are plain fluid cells reachable at a
///    fixed index offset — no wall, no periodic wrap, no obstacle, and
///    for streaming no pull from a halo plane) or **boundary**;
///  * interior cells are stored as contiguous z-runs, so the fused
///    collide+stream kernel and the force kernel sweep them with zero
///    conditionals;
///  * each boundary cell gets a compact link table: for every outgoing
///    post-collision population either the destination (direction, cell)
///    it streams to, a half-way bounce-back entry (destination = the cell
///    itself, reversed direction, with the moving-wall `c · u_wall`
///    precomputed), or a drop (the population crosses the slab boundary
///    and is delivered to the x-neighbor by the halo exchange);
///  * pulls *from* the halo planes (the five x-crossing directions filled
///    by the exchange) are precomputed as plain copies;
///  * for the Shan–Chen force kernel, boundary cells carry an 18-entry
///    neighbor table (storage index, or -1 where psi is zero because the
///    neighbor is a wall or obstacle).
///
/// The runs and tables play two roles. On the `scalar` kernel backend
/// they drive every sweep: that is the reference path every SIMD backend
/// is pinned against. On a SIMD backend the TileLayout (tile.hpp)
/// re-expresses them as lane masks of row tiles, and the per-cell tables
/// serve only the irregular cells the masks cannot express (periodic
/// wraps, moving-wall links, solids) plus the halo pulls.
///
/// A plan depends only on (geometry, x_begin, nx_local), so a slab can
/// build it lazily at construction and rebuild it after a plane
/// migration; the rebuild is a single O(owned cells) pass, comparable to
/// one phase of compute, and the runners record it under the `plan` span
/// so it is visible next to the migration cost it belongs to.

#include <cstdint>
#include <vector>

#include "lbm/geometry.hpp"
#include "lbm/lattice.hpp"
#include "lbm/types.hpp"

namespace slipflow::lbm {

/// A contiguous run of interior cells within one (x,y) row.
struct InteriorRun {
  index_t cell = 0;   ///< storage index of the first cell
  index_t count = 0;  ///< cells in the run (z-contiguous)
  index_t yz = 0;     ///< in-plane index (y*nz+z) of the first cell
  index_t gx = 0;     ///< global x of the plane (wall patterns)
};

/// One streaming link of a boundary cell, in push form: the cell's
/// post-collision population leaving along `out_dir` is written to
/// f[dest_dir] at `dest`.
struct StreamLink {
  index_t dest = 0;      ///< destination cell (== the cell itself when bounced)
  double wall_cu = 0.0;  ///< c[dest_dir]·u_wall for the moving-wall correction
  std::int8_t out_dir = 0;
  std::int8_t dest_dir = 0;  ///< == out_dir unless bounced (then kOpposite)
};

/// A boundary cell of the streaming plan with its link-table slice.
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

/// A boundary cell of the force plan with its neighbor-table slice (18
/// entries starting at nbr_begin; -1 marks a wall/obstacle neighbor).
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

  /// Storage-index offset of direction d (the fixed stride interior
  /// cells stream across).
  index_t dir_offset(int d) const { return dir_off_[static_cast<std::size_t>(d)]; }

  // --- streaming plan -------------------------------------------------
  /// Interior cells of the fused collide+stream kernel: every push lands
  /// on an owned fluid cell at the fixed dir_offset (planes 2..nx-1).
  const std::vector<InteriorRun>& stream_interior() const {
    return stream_interior_;
  }
  const std::vector<StreamBoundaryCell>& stream_boundary() const {
    return stream_boundary_;
  }
  const std::vector<StreamLink>& links() const { return links_; }
  const std::vector<HaloPull>& halo_pulls() const { return halo_pulls_; }
  /// Solid (obstacle) cells among the owned planes; their populations are
  /// pinned to zero each step, as the legacy kernel does.
  const std::vector<index_t>& solids() const { return solids_; }

  // --- force plan -----------------------------------------------------
  /// Interior cells of the force kernel: fluid cells whose 18 psi
  /// gathers are plain fluid reads at the fixed dir_offset (any owned
  /// plane). Solid cells always take the neighbor table.
  const std::vector<InteriorRun>& force_interior() const {
    return force_interior_;
  }
  const std::vector<ForceBoundaryCell>& force_boundary() const {
    return force_boundary_;
  }
  /// Flat neighbor table, 18 entries per force-boundary cell (directions
  /// 1..18 in order; -1 = psi is zero there).
  const std::vector<index_t>& force_neighbors() const { return force_nbrs_; }

  /// The force vectors above are appended in lx order, so the cells of
  /// the inner planes lx in [2, nx_local-1] — whose psi gathers never
  /// touch a halo plane — form one contiguous middle slice. The overlap
  /// runner sweeps [inner_begin, inner_end) while the density halo is in
  /// flight and the complement (the prefix up to inner_begin = plane 1,
  /// the suffix from inner_end = plane nx_local) after the halo landed.
  /// Empty when nx_local <= 2 (every plane is an edge plane).
  std::size_t force_interior_inner_begin() const { return fi_inner_begin_; }
  std::size_t force_interior_inner_end() const { return fi_inner_end_; }
  std::size_t force_boundary_inner_begin() const { return fb_inner_begin_; }
  std::size_t force_boundary_inner_end() const { return fb_inner_end_; }

  /// Owned fluid cells (interior + boundary) — the MLUPS denominator.
  index_t fluid_cells() const { return fluid_cells_; }

 private:
  void classify();
  void push_links_for(index_t lx, index_t y, index_t z, index_t gx);

  const ChannelGeometry* geom_;
  Extents store_{};
  index_t x_begin_ = 0;
  index_t nx_local_ = 0;
  std::array<index_t, kQ> dir_off_{};
  index_t fluid_cells_ = 0;

  std::vector<InteriorRun> stream_interior_;
  std::vector<StreamBoundaryCell> stream_boundary_;
  std::vector<StreamLink> links_;
  std::vector<HaloPull> halo_pulls_;
  std::vector<index_t> solids_;

  std::vector<InteriorRun> force_interior_;
  std::vector<ForceBoundaryCell> force_boundary_;
  std::vector<index_t> force_nbrs_;
  std::size_t fi_inner_begin_ = 0, fi_inner_end_ = 0;
  std::size_t fb_inner_begin_ = 0, fb_inner_end_ = 0;
};

}  // namespace slipflow::lbm
