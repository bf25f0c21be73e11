#pragma once
/// \file tile.hpp
/// RowTile — the iteration unit of the row kernels: up to kTileWidth
/// z-consecutive owned fluid cells of one (x, y) row, as the
/// StreamingPlan (plan.hpp) emits them.
///
/// The direction-major DistField stores each direction as one contiguous
/// scalar array with z unit-stride, so W z-consecutive cells of one
/// (x, y) row give the kernels W-wide unit-stride loads of every f[d]
/// and unit-stride stores at the fixed push offset of direction d — a
/// register-blocked AoSoA view over the existing storage, no
/// gather/scatter. A row tile carries one lane mask per direction (bit l
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
/// vector kernels as the bulk; the plan keeps per-cell tables only for
/// the cells these masks cannot express.
///
/// This header holds no plan or geometry code: the per-ISA kernel TUs
/// include it (via kernels_tile.hpp) and must instantiate nothing shared
/// with the portable TUs.

#include <cstdint>

#include "lbm/lattice.hpp"
#include "lbm/simd.hpp"
#include "lbm/types.hpp"

namespace slipflow::lbm {

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

}  // namespace slipflow::lbm
