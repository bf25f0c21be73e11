#include "lbm/checkpoint.hpp"

#include <fstream>
#include <vector>

namespace slipflow::lbm {

namespace {

constexpr std::uint64_t kMagic = 0x534C4950434B5054ull;  // "SLIPCKPT"
/// 2: the plane record carries the mixture total density and velocity.
/// Version 1 files are refused, not read.
constexpr std::uint64_t kVersion = 2;

struct Header {
  std::uint64_t magic = kMagic;
  std::uint64_t version = kVersion;
  std::int64_t nx = 0, ny = 0, nz = 0;
  std::int64_t components = 0;
  std::int64_t phase = 0;
  std::int64_t plane_doubles = 0;
};
static_assert(sizeof(Header) == 64, "the on-disk header is 64 bytes");

/// Byte offset of global plane `gx` when planes pack to `plane_doubles`
/// doubles each.
std::streamoff plane_offset(index_t plane_doubles, index_t gx) {
  return static_cast<std::streamoff>(sizeof(Header)) +
         static_cast<std::streamoff>(gx) *
             static_cast<std::streamoff>(plane_doubles) * 8;
}

Header read_header(std::istream& in, const std::string& path) {
  Header h;
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  SLIPFLOW_REQUIRE_MSG(in.good(), "cannot read checkpoint header from "
                                      << path);
  SLIPFLOW_REQUIRE_MSG(h.magic == kMagic,
                       path << " is not a slipflow checkpoint");
  SLIPFLOW_REQUIRE_MSG(h.version == kVersion,
                       "unsupported checkpoint version " << h.version);
  return h;
}

Header header_for(const Extents& global, std::size_t components,
                  long long phase, index_t plane_doubles) {
  Header h;
  h.nx = global.nx;
  h.ny = global.ny;
  h.nz = global.nz;
  h.components = static_cast<std::int64_t>(components);
  h.phase = phase;
  h.plane_doubles = plane_doubles;
  return h;
}

void check_matches(const Header& h, const Slab& slab,
                   const std::string& path) {
  const Extents& g = slab.geometry().global();
  SLIPFLOW_REQUIRE_MSG(h.nx == g.nx && h.ny == g.ny && h.nz == g.nz,
                       "checkpoint " << path << " is for a " << h.nx << "x"
                                     << h.ny << "x" << h.nz << " domain");
  SLIPFLOW_REQUIRE_MSG(
      h.components == static_cast<std::int64_t>(slab.num_components()),
      "checkpoint " << path << " has " << h.components << " components");
  SLIPFLOW_REQUIRE_MSG(h.plane_doubles == slab.migration_doubles(1),
                       "checkpoint " << path << " has mismatched plane size");
}

}  // namespace

CheckpointInfo read_checkpoint_info(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SLIPFLOW_REQUIRE_MSG(in.good(), "cannot open checkpoint " << path);
  const Header h = read_header(in, path);
  return CheckpointInfo{Extents{h.nx, h.ny, h.nz},
                        static_cast<std::size_t>(h.components), h.phase,
                        h.plane_doubles};
}

std::size_t expected_checkpoint_bytes(const CheckpointInfo& info) {
  return static_cast<std::size_t>(
      plane_offset(info.plane_doubles, info.global.nx));
}

void begin_checkpoint(const Extents& global, std::size_t components,
                      long long phase, index_t plane_doubles,
                      const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  SLIPFLOW_REQUIRE_MSG(out.good(), "cannot create checkpoint " << path);
  const Header h = header_for(global, components, phase, plane_doubles);
  out.write(reinterpret_cast<const char*>(&h), sizeof(h));
  // pre-size the file so concurrent range writers can seek anywhere
  out.seekp(plane_offset(h.plane_doubles, global.nx) - 1);
  const char zero = 0;
  out.write(&zero, 1);
  SLIPFLOW_REQUIRE_MSG(out.good(), "cannot size checkpoint " << path);
}

void write_checkpoint_planes(const Slab& slab, const std::string& path) {
  std::ifstream probe(path, std::ios::binary);
  SLIPFLOW_REQUIRE_MSG(probe.good(), "cannot open checkpoint " << path);
  const Header h = read_header(probe, path);
  check_matches(h, slab, path);
  probe.close();

  std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
  SLIPFLOW_REQUIRE_MSG(out.good(), "cannot update checkpoint " << path);
  std::vector<double> buf(
      static_cast<std::size_t>(slab.migration_doubles(1)));
  for (index_t gx = slab.x_begin(); gx < slab.x_end(); ++gx) {
    slab.pack_owned_plane(gx, buf);
    out.seekp(plane_offset(h.plane_doubles, gx));
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size() * sizeof(double)));
  }
  SLIPFLOW_REQUIRE_MSG(out.good(), "short write to checkpoint " << path);
}

long long load_checkpoint_planes(Slab& slab, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SLIPFLOW_REQUIRE_MSG(in.good(), "cannot open checkpoint " << path);
  const Header h = read_header(in, path);
  check_matches(h, slab, path);
  std::vector<double> buf(
      static_cast<std::size_t>(slab.migration_doubles(1)));
  for (index_t gx = slab.x_begin(); gx < slab.x_end(); ++gx) {
    in.seekg(plane_offset(h.plane_doubles, gx));
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size() * sizeof(double)));
    SLIPFLOW_REQUIRE_MSG(in.good(), "short read from checkpoint " << path);
    slab.unpack_owned_plane(gx, buf);
  }
  return h.phase;
}

}  // namespace slipflow::lbm
