#include "lbm/tile.hpp"

#include "lbm/plan.hpp"

namespace slipflow::lbm {

namespace {

/// A cell's masks as direction bitsets (bit d = direction d), plus
/// whether the masks can express the cell at all.
struct CellMasks {
  bool regular = true;
  std::uint32_t push = 0, bounce = 0, drop = 0, psi = 0;
};

constexpr std::uint32_t kAllDirs = (1u << kQ) - 1u;
constexpr std::uint32_t kMovingDirs = kAllDirs & ~1u;

/// Stream masks from the cell's plan entry: an interior cell (`b` null)
/// pushes every population; a boundary cell's links are pushes at the
/// fixed offset or plain half-way bounces, and a direction without a
/// link is the halo drop. Anything else — a periodic wrap, a moving-wall
/// correction — keeps the cell on the per-cell path.
void stream_masks(const StreamingPlan& plan, index_t cell,
                  const StreamBoundaryCell* b, CellMasks& m) {
  if (b == nullptr) {
    m.push = kAllDirs;
    return;
  }
  m.push = 1u;  // the rest population stays home
  m.drop = kMovingDirs;
  for (std::uint32_t l = b->link_begin; l < b->link_end; ++l) {
    const StreamLink& lk = plan.links()[l];
    const int d = lk.out_dir;
    const std::uint32_t bit = 1u << d;
    m.drop &= ~bit;
    if (lk.dest_dir == d && lk.dest == cell + plan.dir_offset(d))
      m.push |= bit;
    else if (lk.dest_dir == kOpposite[d] && lk.dest == cell &&
             lk.wall_cu == 0.0)
      m.bounce |= bit;
    else
      m.regular = false;
  }
}

/// Force masks from the cell's plan entry: interior cells (`b` null)
/// gather every neighbour at the fixed offset; a boundary cell's table
/// entry is that neighbour, or -1 where psi is zero. A periodic wrap is
/// neither.
void force_masks(const StreamingPlan& plan, index_t cell,
                 const ForceBoundaryCell* b, CellMasks& m) {
  if (b == nullptr) {
    m.psi = kMovingDirs;
    return;
  }
  const index_t* nbr = plan.force_neighbors().data() + b->nbr_begin;
  for (int d = 1; d < kQ; ++d) {
    const index_t nb = nbr[d - 1];
    if (nb < 0) continue;  // psi is zero there: the bit stays clear
    // (checked first: the fixed offset of a corner cell can itself be -1)
    if (nb == cell + plan.dir_offset(d))
      m.psi |= 1u << d;
    else
      m.regular = false;
  }
}

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

/// The row being filled: each lane's direction bitsets, turned into the
/// per-direction lane masks of a RowTile when the row closes.
struct OpenRow {
  RowTile row;
  std::uint32_t lanes[4][kTileWidth]{};  // push, bounce, drop, psi

  void add(const CellMasks& m) {
    const auto l = static_cast<std::size_t>(row.count++);
    lanes[0][l] = m.push;
    lanes[1][l] = m.bounce;
    lanes[2][l] = m.drop;
    lanes[3][l] = m.psi;
  }

  RowTile finish() {
    LaneMask* out[4] = {row.push, row.bounce, row.drop, row.psi};
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
          out[kind][d0 + j] = static_cast<LaneMask>(x >> (8 * j));
      }
    }
    return row;
  }
};
}  // namespace

TileLayout::~TileLayout() = default;

TileLayout::TileLayout(const StreamingPlan& plan) {
  const Extents& st = plan.storage();
  const index_t nxl = plan.nx_local();
  const auto& sbound = plan.stream_boundary();
  const auto& fbound = plan.force_boundary();
  const auto& solids = plan.solids();
  // The plan appends every list in storage order, so one cursor per list
  // finds each cell's entry (or its absence: an interior cell) as the
  // walk below visits the owned cells in the same order.
  std::size_t si = 0, fi = 0, oi = 0;
  // one row per kTileWidth cells of each (x, y) row, plus the breaks
  // irregular cells add
  rows_.reserve(static_cast<std::size_t>(
      nxl * st.ny * ((st.nz + kTileWidth - 1) / kTileWidth)));

  OpenRow open{};
  const auto close_row = [&] {
    if (open.row.count == 0) return;
    rows_.push_back(open.finish());
    open = OpenRow{};
  };

  for (index_t lx = 1; lx <= nxl; ++lx) {
    // Inner-plane markers, as StreamingPlan places its force_*_inner_*.
    if (lx == 2) {
      inner_begin_ = rows_.size();
      fc_inner_begin_ = force_cells_.size();
    }
    if (lx == nxl) {
      inner_end_ = rows_.size();
      fc_inner_end_ = force_cells_.size();
    }
    const index_t gx = plan.x_begin() + lx - 1;
    for (index_t y = 0; y < st.ny; ++y) {
      for (index_t z = 0; z < st.nz; ++z) {
        const index_t cell = st.idx(lx, y, z);
        const bool solid = oi < solids.size() && solids[oi] == cell;
        if (solid) ++oi;
        const StreamBoundaryCell* sb =
            si < sbound.size() && sbound[si].cell == cell ? &sbound[si]
                                                           : nullptr;
        const ForceBoundaryCell* fb =
            fi < fbound.size() && fbound[fi].cell == cell ? &fbound[fi]
                                                           : nullptr;
        if (sb != nullptr) ++si;
        if (fb != nullptr) ++fi;

        CellMasks m;
        m.regular = !solid;
        if (!solid) {
          stream_masks(plan, cell, sb, m);
          force_masks(plan, cell, fb, m);
        }
        if (!m.regular) {
          // The plan lists every cell that is not plain interior, so an
          // irregular cell always has its per-cell entries.
          close_row();
          SLIPFLOW_REQUIRE(fb != nullptr && (solid || sb != nullptr));
          if (sb != nullptr) stream_cells_.push_back(*sb);
          force_cells_.push_back(*fb);
          continue;
        }
        if (open.row.count == kTileWidth) close_row();
        if (open.row.count == 0) {
          open.row.cell = cell;
          open.row.yz = y * st.nz + z;
          open.row.gx = gx;
        }
        open.add(m);
      }
      close_row();  // rows never span two (x, y) rows
    }
  }
  SLIPFLOW_REQUIRE(si == sbound.size() && fi == fbound.size() &&
                   oi == solids.size());
}

}  // namespace slipflow::lbm
