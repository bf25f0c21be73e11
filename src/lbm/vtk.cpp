#include "lbm/vtk.hpp"

#include <fstream>
#include <limits>
#include <sstream>

namespace slipflow::lbm {

namespace {

std::string vtk_to_string(const Slab& slab, const std::string& title) {
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);

  const Extents& st = slab.storage();
  const index_t nx = slab.nx_local(), ny = st.ny, nz = st.nz;

  out << "# vtk DataFile Version 3.0\n"
      << title << "\n"
      << "ASCII\n"
      << "DATASET STRUCTURED_POINTS\n"
      << "DIMENSIONS " << nx << ' ' << ny << ' ' << nz << "\n"
      << "ORIGIN " << slab.x_begin() << " 0 0\n"
      << "SPACING 1 1 1\n"
      << "POINT_DATA " << nx * ny * nz << "\n";

  // VTK structured points order: x fastest, then y, then z.
  auto for_each_cell = [&](auto&& emit) {
    for (index_t z = 0; z < nz; ++z)
      for (index_t y = 0; y < ny; ++y)
        for (index_t lx = 1; lx <= nx; ++lx) emit(st.idx(lx, y, z));
  };

  for (std::size_t c = 0; c < slab.num_components(); ++c) {
    out << "SCALARS density_" << slab.params().components[c].name
        << " double 1\nLOOKUP_TABLE default\n";
    for_each_cell([&](index_t cell) { out << slab.density(c)[cell] << "\n"; });
  }

  out << "SCALARS density_total double 1\nLOOKUP_TABLE default\n";
  for_each_cell(
      [&](index_t cell) { out << slab.total_density()[cell] << "\n"; });

  out << "VECTORS velocity double\n";
  for_each_cell([&](index_t cell) {
    const Vec3 u = slab.velocity().at(cell);
    out << u.x << ' ' << u.y << ' ' << u.z << "\n";
  });

  return std::move(out).str();
}

}  // namespace

void write_vtk(const Slab& slab, const std::string& path,
               const std::string& title) {
  const std::string bytes = vtk_to_string(slab, title);
  std::ofstream out(path);
  SLIPFLOW_REQUIRE_MSG(out.good(), "cannot open " << path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  SLIPFLOW_REQUIRE_MSG(out.good(), "short write to " << path);
}

}  // namespace slipflow::lbm
