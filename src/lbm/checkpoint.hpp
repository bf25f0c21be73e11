#pragma once
/// \file checkpoint.hpp
/// Checkpoint / restart of the multicomponent LBM state.
///
/// The paper's production runs take days to weeks ("even a parallel
/// computation of fluid slip can take days or weeks"), so restartability
/// is a practical necessity. The on-disk format reuses the migration
/// plane record (Slab::pack_owned_plane, mixture fields included): a
/// fixed header (format version 2) followed by one packed record per
/// global yz-plane in x order. Because planes are
/// self-contained, a checkpoint written by any decomposition can be
/// restored by any other — including a different rank count — each rank
/// simply reads the plane range it owns.
///
/// Values are stored as native-endian IEEE doubles; checkpoints are not
/// portable across endianness (document, not defect: they are restart
/// files, not archives).

#include <cstddef>
#include <cstdint>
#include <string>

#include "lbm/slab.hpp"

namespace slipflow::lbm {

/// Header contents of a checkpoint file.
struct CheckpointInfo {
  Extents global;
  std::size_t components = 0;
  long long phase = 0;  ///< phases completed when the checkpoint was taken
  index_t plane_doubles = 0;  ///< packed doubles per global yz-plane
};

/// Read and validate a checkpoint header.
CheckpointInfo read_checkpoint_info(const std::string& path);

/// Exact on-disk size of a complete checkpoint with this header. The
/// campaign server validates candidate recovery files against it: a file
/// whose header parses but whose size is short was torn mid-write and
/// must not seed a restart.
std::size_t expected_checkpoint_bytes(const CheckpointInfo& info);

/// Create the checkpoint file and write only the header, sized for the
/// given domain; planes are then written by write_checkpoint_planes
/// (possibly by several writers for disjoint ranges).
void begin_checkpoint(const Extents& global, std::size_t components,
                      long long phase, index_t plane_doubles,
                      const std::string& path);

/// Write the slab's owned planes into their slots of an existing
/// checkpoint file (created by begin_checkpoint with matching geometry).
void write_checkpoint_planes(const Slab& slab, const std::string& path);

/// Load the planes a slab owns from a checkpoint. The checkpoint's
/// domain and component count must match the slab's; the slab's extent
/// may be any sub-range. Returns the stored phase count.
long long load_checkpoint_planes(Slab& slab, const std::string& path);

}  // namespace slipflow::lbm
