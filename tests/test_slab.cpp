// Slab tests: extents bookkeeping, halo packing round trips between
// neighboring slabs, and plane migration (detach/attach) preserving the
// full per-cell state — the invariant dynamic remapping relies on.

#include <gtest/gtest.h>

#include <memory>

#include "lbm/kernels.hpp"
#include "lbm/slab.hpp"

using namespace slipflow::lbm;

namespace {

std::shared_ptr<const ChannelGeometry> make_geom(Extents e = {10, 4, 3}) {
  return std::make_shared<const ChannelGeometry>(e);
}

FluidParams two_comp() { return FluidParams::microchannel_defaults(); }

/// Density patterned on global coordinates so any misplaced plane is
/// detectable.
double pattern(std::size_t c, index_t gx, index_t gy, index_t gz) {
  return 1.0 + 0.1 * static_cast<double>(c) + 0.01 * static_cast<double>(gx) +
         0.001 * static_cast<double>(gy) + 0.0001 * static_cast<double>(gz);
}

}  // namespace

TEST(Slab, ExtentBookkeeping) {
  auto g = make_geom();
  Slab s(g, two_comp(), 2, 5);
  EXPECT_EQ(s.x_begin(), 2);
  EXPECT_EQ(s.x_end(), 7);
  EXPECT_EQ(s.nx_local(), 5);
  EXPECT_EQ(s.plane_cells(), 12);
  EXPECT_EQ(s.owned_cells(), 60);
  EXPECT_EQ(s.storage().nx, 7);  // 5 owned + 2 halo
  EXPECT_EQ(s.local_x(2), 1);
  EXPECT_EQ(s.local_x(6), 5);
}

TEST(Slab, RejectsOutOfRangeExtents) {
  auto g = make_geom();
  EXPECT_THROW(Slab(g, two_comp(), 8, 5), slipflow::contract_error);
  EXPECT_THROW(Slab(g, two_comp(), -1, 3), slipflow::contract_error);
  EXPECT_THROW(Slab(g, two_comp(), 0, 0), slipflow::contract_error);
}

TEST(Slab, UniformInitializationSetsEquilibrium) {
  auto g = make_geom();
  Slab s(g, two_comp(), 0, 10);
  s.initialize_uniform();
  const Extents& st = s.storage();
  const index_t cell = st.idx(3, 1, 1);
  EXPECT_DOUBLE_EQ(s.density(0)[cell], 1.0);
  EXPECT_DOUBLE_EQ(s.density(1)[cell], 0.03);
  for (int d = 0; d < kQ; ++d)
    EXPECT_DOUBLE_EQ(s.f(0).at(d, cell), kWeight[d] * 1.0);
}

TEST(Slab, PatternInitializationUsesGlobalCoords) {
  auto g = make_geom();
  Slab a(g, two_comp(), 0, 4);
  Slab b(g, two_comp(), 4, 6);
  a.initialize(pattern);
  b.initialize(pattern);
  // plane gx=4 lives at local 1 in b; check values follow global coords
  EXPECT_DOUBLE_EQ(b.density(0)[b.storage().idx(1, 2, 1)],
                   pattern(0, 4, 2, 1));
  EXPECT_DOUBLE_EQ(a.density(1)[a.storage().idx(4, 3, 2)],
                   pattern(1, 3, 3, 2));
}

TEST(Slab, FHaloRoundTripBetweenNeighbors) {
  auto g = make_geom();
  Slab a(g, two_comp(), 0, 5);
  Slab b(g, two_comp(), 5, 5);
  a.initialize(pattern);
  b.initialize(pattern);
  // fill post-collision with a recognizable pattern
  collide(a);
  collide(b);

  // a's right boundary populations -> b's left halo
  std::vector<double> buf(static_cast<std::size_t>(a.f_halo_doubles()));
  a.extract_f_halo(Side::right, buf);
  b.insert_f_halo(Side::left, buf);

  const index_t pc = a.plane_cells();
  for (std::size_t c = 0; c < 2; ++c) {
    for (int d : kRightGoing) {
      for (index_t i = 0; i < pc; ++i) {
        EXPECT_DOUBLE_EQ(b.f_post(c).dir_plane(d, 0)[i],
                         a.f_post(c).dir_plane(d, 5)[i]);
      }
    }
  }
}

TEST(Slab, DensityHaloRoundTrip) {
  auto g = make_geom();
  Slab a(g, two_comp(), 0, 5);
  Slab b(g, two_comp(), 5, 5);
  a.initialize(pattern);
  b.initialize(pattern);
  std::vector<double> buf(static_cast<std::size_t>(b.density_halo_doubles()));
  b.extract_density_halo(Side::left, buf);
  a.insert_density_halo(Side::right, buf);
  const index_t pc = a.plane_cells();
  for (std::size_t c = 0; c < 2; ++c)
    for (index_t i = 0; i < pc; ++i)
      EXPECT_DOUBLE_EQ(a.density(c).plane(6)[i], b.density(c).plane(1)[i]);
}

TEST(Slab, HaloBufferSizeIsChecked) {
  auto g = make_geom();
  Slab s(g, two_comp(), 0, 5);
  std::vector<double> wrong(3);
  EXPECT_THROW(s.extract_f_halo(Side::left, wrong), slipflow::contract_error);
  EXPECT_THROW(s.insert_density_halo(Side::right, wrong),
               slipflow::contract_error);
}

TEST(Migration, DetachShrinksAndShiftsOrigin) {
  auto g = make_geom();
  Slab s(g, two_comp(), 2, 6);
  s.initialize(pattern);
  std::vector<double> buf(static_cast<std::size_t>(s.migration_doubles(2)));
  s.detach_planes(Side::left, 2, buf);
  EXPECT_EQ(s.x_begin(), 4);
  EXPECT_EQ(s.nx_local(), 4);
  // remaining state still matches global pattern
  EXPECT_DOUBLE_EQ(s.density(0)[s.storage().idx(1, 1, 1)], pattern(0, 4, 1, 1));
}

TEST(Migration, DetachRightKeepsOrigin) {
  auto g = make_geom();
  Slab s(g, two_comp(), 2, 6);
  s.initialize(pattern);
  std::vector<double> buf(static_cast<std::size_t>(s.migration_doubles(3)));
  s.detach_planes(Side::right, 3, buf);
  EXPECT_EQ(s.x_begin(), 2);
  EXPECT_EQ(s.nx_local(), 3);
  EXPECT_DOUBLE_EQ(s.density(1)[s.storage().idx(3, 0, 0)], pattern(1, 4, 0, 0));
}

TEST(Migration, TransferPreservesStateExactly) {
  auto g = make_geom();
  Slab a(g, two_comp(), 0, 6);
  Slab b(g, two_comp(), 6, 4);
  a.initialize(pattern);
  b.initialize(pattern);
  // also give ueq a pattern so we verify it travels too
  for (index_t lx = 1; lx <= a.nx_local(); ++lx)
    for (index_t y = 0; y < 4; ++y)
      for (index_t z = 0; z < 3; ++z)
        a.ueq(0).set(a.storage().idx(lx, y, z),
                     Vec3{0.01 * static_cast<double>(lx), 0.0, 0.0});

  const double mass_before = owned_mass(a, 0) + owned_mass(b, 0);

  std::vector<double> buf(static_cast<std::size_t>(a.migration_doubles(2)));
  a.detach_planes(Side::right, 2, buf);
  b.attach_planes(Side::left, 2, buf);

  EXPECT_EQ(a.nx_local(), 4);
  EXPECT_EQ(b.nx_local(), 6);
  EXPECT_EQ(b.x_begin(), 4);
  EXPECT_EQ(a.x_end(), b.x_begin());

  // mass conservation across the pair
  EXPECT_NEAR(owned_mass(a, 0) + owned_mass(b, 0), mass_before, 1e-12);

  // migrated planes carry densities AND distributions AND ueq
  EXPECT_DOUBLE_EQ(b.density(0)[b.storage().idx(1, 2, 1)], pattern(0, 4, 2, 1));
  EXPECT_DOUBLE_EQ(b.density(1)[b.storage().idx(2, 3, 2)], pattern(1, 5, 3, 2));
  for (int d = 0; d < kQ; ++d)
    EXPECT_DOUBLE_EQ(b.f(0).at(d, b.storage().idx(1, 1, 1)),
                     kWeight[d] * pattern(0, 4, 1, 1));
  EXPECT_DOUBLE_EQ(b.ueq(0).at(b.storage().idx(1, 0, 0)).x, 0.05);
}

TEST(Migration, RoundTripIsIdentity) {
  auto g = make_geom();
  Slab s(g, two_comp(), 3, 5);
  s.initialize(pattern);
  std::vector<double> buf(static_cast<std::size_t>(s.migration_doubles(2)));
  s.detach_planes(Side::left, 2, buf);
  s.attach_planes(Side::left, 2, buf);
  EXPECT_EQ(s.x_begin(), 3);
  EXPECT_EQ(s.nx_local(), 5);
  for (index_t lx = 1; lx <= 5; ++lx)
    EXPECT_DOUBLE_EQ(s.density(0)[s.storage().idx(lx, 1, 1)],
                     pattern(0, 3 + lx - 1, 1, 1));
}

TEST(Migration, CannotGiveAwayLastPlane) {
  auto g = make_geom();
  Slab s(g, two_comp(), 0, 3);
  s.initialize_uniform();
  std::vector<double> buf(static_cast<std::size_t>(s.migration_doubles(3)));
  EXPECT_THROW(s.detach_planes(Side::left, 3, buf), slipflow::contract_error);
}

TEST(Migration, BufferSizeChecked) {
  auto g = make_geom();
  Slab s(g, two_comp(), 0, 5);
  s.initialize_uniform();
  std::vector<double> small(10);
  EXPECT_THROW(s.detach_planes(Side::left, 1, small),
               slipflow::contract_error);
}

TEST(Migration, SingleComponentPayloadSize) {
  auto g = make_geom();
  Slab s(g, FluidParams::single_component(), 0, 5);
  // (19 + 1 + 3) doubles per cell per component, then the mixture's
  // total density and velocity (1 + 3); 12 cells per plane
  EXPECT_EQ(s.migration_doubles(1), 27 * 12);
  EXPECT_EQ(s.f_halo_doubles(), 5 * 12);
  EXPECT_EQ(s.density_halo_doubles(), 12);
}
