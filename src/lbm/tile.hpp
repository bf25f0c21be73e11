#pragma once
/// \file tile.hpp
/// TileLayout — the owned fluid cells of a slab as masked row tiles, the
/// iteration unit of the SIMD kernels.
///
/// The direction-major DistField stores each direction as one contiguous
/// scalar array with z unit-stride, so W z-consecutive cells of one
/// (x, y) row give the kernels W-wide unit-stride loads of every f[d]
/// and unit-stride stores at the fixed push offset of direction d — a
/// register-blocked AoSoA view over the existing storage, no
/// gather/scatter. A row tile holds up to kTileWidth such cells. What
/// the StreamingPlan spells out per cell in its link and neighbour
/// tables, a row tile carries as one lane mask per direction (bit l
/// stands for the cell at `cell + l`):
///
///  * push   — the lane's population d lands at cell + l + dir_offset(d);
///  * bounce — it meets a wall or obstacle and bounces half-way into the
///    lane's own kOpposite[d] slot;
///  * drop   — it is bound for an x-halo plane and the exchange delivers
///    it (push, bounce and drop partition the live lanes);
///  * psi    — the force gather reads the neighbour at dir_offset(d);
///    a cleared bit means psi is zero there (wall or obstacle).
///
/// So wall-adjacent cells and the exchange-facing planes run the same
/// vector kernels as the bulk. Only cells the masks cannot express stay
/// on the plan's per-cell link path: periodic y/z wraps (the neighbour
/// is not at the fixed offset), moving-wall bounces (they carry a
/// momentum correction) and solid cells, which the force pass sweeps
/// but streaming never writes. Those cells are listed here as subsets of
/// the plan's boundary lists, in plane order.
///
/// Rows never span two (x, y) rows and a slice of row indices never
/// splits a row, so when the overlap runner slices rows across pool
/// lanes every cell takes the same code path (full vector vs masked
/// lanes is a property of the row, not of the partition) — which keeps
/// results bit-identical for any rank x thread count. Rows are ordered
/// by plane, so the rows of the inner planes (whose psi gathers never
/// touch a halo plane) form one contiguous slice.
///
/// Like the plan, a layout depends only on (geometry, x_begin,
/// nx_local); Slab caches one lazily and drops it on migration.

#include <cstdint>
#include <vector>

#include "lbm/lattice.hpp"
#include "lbm/simd.hpp"
#include "lbm/types.hpp"

namespace slipflow::lbm {

// plan.hpp — only declared here, so the per-ISA kernel TUs that include
// this header (via kernels_tile.hpp) see no geometry or plan code.
class StreamingPlan;
struct StreamBoundaryCell;
struct ForceBoundaryCell;

/// One bit per lane of a row tile.
using LaneMask = std::uint8_t;
static_assert(kTileWidth <= 8, "LaneMask holds one bit per tile lane");

/// Up to kTileWidth z-consecutive owned fluid cells of one (x, y) row.
struct RowTile {
  index_t cell = 0;        ///< storage index of lane 0
  index_t yz = 0;          ///< in-plane index (y*nz+z) of lane 0
  index_t gx = 0;          ///< global x of the plane (wall patterns)
  std::int32_t count = 0;  ///< live lanes, 1..kTileWidth
  LaneMask push[kQ]{};     ///< see the file comment
  LaneMask bounce[kQ]{};
  LaneMask drop[kQ]{};
  LaneMask psi[kQ]{};
};

class TileLayout {
 public:
  explicit TileLayout(const StreamingPlan& plan);
  ~TileLayout();  // out of line: the plan's cell types are incomplete here

  /// Row tiles of every sweep (collide+stream and force), plane order.
  const std::vector<RowTile>& rows() const { return rows_; }

  /// The contiguous slice of rows() on the inner planes
  /// [2, nx_local-1]: their force gathers read owned psi only, so the
  /// overlap runner sweeps them while the density halo is in flight.
  /// Empty when nx_local <= 2.
  std::size_t inner_begin() const { return inner_begin_; }
  std::size_t inner_end() const { return inner_end_; }

  /// Fluid cells no row covers, for the per-cell link kernel (a subset
  /// of plan.stream_boundary()).
  const std::vector<StreamBoundaryCell>& stream_cells() const {
    return stream_cells_;
  }
  /// Owned cells no row covers, for the per-cell force kernel (a subset
  /// of plan.force_boundary()); [force_cells_inner_begin,
  /// force_cells_inner_end) are those of the inner planes.
  const std::vector<ForceBoundaryCell>& force_cells() const {
    return force_cells_;
  }
  std::size_t force_cells_inner_begin() const { return fc_inner_begin_; }
  std::size_t force_cells_inner_end() const { return fc_inner_end_; }

 private:
  std::vector<RowTile> rows_;
  std::vector<StreamBoundaryCell> stream_cells_;
  std::vector<ForceBoundaryCell> force_cells_;
  std::size_t inner_begin_ = 0, inner_end_ = 0;
  std::size_t fc_inner_begin_ = 0, fc_inner_end_ = 0;
};

}  // namespace slipflow::lbm
