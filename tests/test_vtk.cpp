// VTK writer: well-formed legacy header, complete data sections, and
// values that parse back to the fields they came from.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lbm/vtk.hpp"
#include "sim/simulation.hpp"

using namespace slipflow::lbm;
using slipflow::sim::Simulation;

namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct PathGuard {
  std::string path;
  explicit PathGuard(std::string p) : path(std::move(p)) {}
  ~PathGuard() { std::remove(path.c_str()); }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Simulation small_sim() {
  Simulation sim(Extents{5, 4, 3}, FluidParams::microchannel_defaults());
  sim.initialize_uniform();
  sim.run(10);
  return sim;
}

}  // namespace

TEST(Vtk, HeaderAndSectionsPresent) {
  PathGuard g(temp_path("out.vtk"));
  Simulation sim = small_sim();
  write_vtk(sim.slab(), g.path, "test title");
  const std::string s = slurp(g.path);
  EXPECT_NE(s.find("# vtk DataFile Version 3.0"), std::string::npos);
  EXPECT_NE(s.find("test title"), std::string::npos);
  EXPECT_NE(s.find("DATASET STRUCTURED_POINTS"), std::string::npos);
  EXPECT_NE(s.find("DIMENSIONS 5 4 3"), std::string::npos);
  EXPECT_NE(s.find("POINT_DATA 60"), std::string::npos);
  EXPECT_NE(s.find("SCALARS density_water double 1"), std::string::npos);
  EXPECT_NE(s.find("SCALARS density_air double 1"), std::string::npos);
  EXPECT_NE(s.find("SCALARS density_total double 1"), std::string::npos);
  EXPECT_NE(s.find("VECTORS velocity double"), std::string::npos);
}

TEST(Vtk, ScalarValuesParseBackToFields) {
  PathGuard g(temp_path("roundtrip.vtk"));
  Simulation sim = small_sim();
  write_vtk(sim.slab(), g.path);

  std::ifstream in(g.path);
  std::string line;
  // skip to the first scalar block's data
  while (std::getline(in, line) && line.rfind("LOOKUP_TABLE", 0) != 0) {
  }
  // VTK order: x fastest — the first value is cell (gx=0,y=0,z=0), the
  // second is (gx=1,y=0,z=0)
  double v0 = 0, v1 = 0;
  in >> v0 >> v1;
  const Extents& st = sim.slab().storage();
  EXPECT_DOUBLE_EQ(v0, sim.slab().density(0)[st.idx(1, 0, 0)]);
  EXPECT_DOUBLE_EQ(v1, sim.slab().density(0)[st.idx(2, 0, 0)]);
}

TEST(Vtk, ValueCountMatchesGrid) {
  PathGuard g(temp_path("count.vtk"));
  Simulation sim = small_sim();
  write_vtk(sim.slab(), g.path);
  std::ifstream in(g.path);
  std::string line;
  long long numbers = 0;
  bool in_data = false;
  while (std::getline(in, line)) {
    if (line.rfind("LOOKUP_TABLE", 0) == 0 ||
        line.rfind("VECTORS", 0) == 0) {
      in_data = true;
      continue;
    }
    if (line.rfind("SCALARS", 0) == 0) {
      in_data = false;
      continue;
    }
    if (in_data && !line.empty()) {
      std::istringstream ls(line);
      double v;
      while (ls >> v) ++numbers;
    }
  }
  // 3 scalar fields x 60 cells + 1 vector field x 180 components
  EXPECT_EQ(numbers, 3 * 60 + 180);
}

TEST(Vtk, OriginEncodesSlabOffset) {
  PathGuard g(temp_path("origin.vtk"));
  auto geom = std::make_shared<const ChannelGeometry>(Extents{10, 4, 3});
  Slab slab(geom, FluidParams::single_component(), 4, 3);
  slab.initialize_uniform();
  write_vtk(slab, g.path);
  const std::string s = slurp(g.path);
  EXPECT_NE(s.find("ORIGIN 4 0 0"), std::string::npos);
  EXPECT_NE(s.find("DIMENSIONS 3 4 3"), std::string::npos);
}

TEST(Vtk, UnwritablePathRejected) {
  Simulation sim = small_sim();
  EXPECT_THROW(write_vtk(sim.slab(), "/nonexistent_dir_xyz/out.vtk"),
               slipflow::contract_error);
}
