#include "lbm/slab.hpp"

#include <algorithm>

namespace slipflow::lbm {

namespace {
void copy_plane(std::span<const double> src, std::span<double> dst) {
  std::copy(src.begin(), src.end(), dst.begin());
}
}  // namespace

Slab::Slab(std::shared_ptr<const ChannelGeometry> geom, FluidParams params,
           index_t x_begin, index_t nx_local)
    : geom_(std::move(geom)), params_(std::move(params)), x_begin_(x_begin) {
  SLIPFLOW_REQUIRE(geom_ != nullptr);
  params_.validate();
  SLIPFLOW_REQUIRE(nx_local >= 1);
  SLIPFLOW_REQUIRE(x_begin >= 0 && x_begin + nx_local <= geom_->global().nx);
  allocate(nx_local);

  const Extents& g = geom_->global();
  wall_unit_.resize(static_cast<std::size_t>(g.ny * g.nz));
  for (index_t y = 0; y < g.ny; ++y)
    for (index_t z = 0; z < g.nz; ++z)
      wall_unit_[static_cast<std::size_t>(y * g.nz + z)] =
          geom_->wall_unit_accel(y, z, params_.wall_decay);
}

void Slab::allocate(index_t nx_local) {
  nx_local_ = nx_local;
  const Extents& g = geom_->global();
  store_ = Extents{nx_local + 2, g.ny, g.nz};
  comp_.clear();
  comp_.reserve(num_components());
  for (std::size_t c = 0; c < num_components(); ++c) {
    comp_.push_back(ComponentState{DistField(store_), DistField(store_),
                                   ScalarField(store_), VectorField(store_)});
  }
  u_macro_ = VectorField(store_);
  rho_total_ = ScalarField(store_);
}

void Slab::initialize(
    const std::function<double(std::size_t, index_t, index_t, index_t)>&
        init_density) {
  SLIPFLOW_REQUIRE(init_density != nullptr);
  for (std::size_t c = 0; c < num_components(); ++c) {
    auto& st = comp_[c];
    for (index_t lx = 1; lx <= nx_local_; ++lx) {
      const index_t gx = x_begin_ + lx - 1;
      for (index_t y = 0; y < store_.ny; ++y) {
        for (index_t z = 0; z < store_.nz; ++z) {
          const index_t cell = store_.idx(lx, y, z);
          const double n0 =
              geom_->solid(gx, y, z) ? 0.0 : init_density(c, gx, y, z);
          SLIPFLOW_REQUIRE_MSG(n0 >= 0.0, "negative initial density");
          st.n[cell] = n0;
          // zero-velocity equilibrium: f_i = w_i * n
          for (int d = 0; d < kQ; ++d) st.f.at(d, cell) = kWeight[d] * n0;
          st.ueq.set(cell, Vec3{});
        }
      }
    }
  }
}

void Slab::initialize_uniform() {
  initialize([this](std::size_t c, index_t, index_t, index_t) {
    return params_.components[c].init_density;
  });
}

void Slab::extract_f_halo(Side side, std::span<double> out) const {
  SLIPFLOW_REQUIRE(static_cast<index_t>(out.size()) == f_halo_doubles());
  const index_t lx = side == Side::left ? 1 : nx_local_;
  const auto& dirs = side == Side::left ? kLeftGoing : kRightGoing;
  const std::size_t pc = static_cast<std::size_t>(plane_cells());
  std::size_t off = 0;
  for (std::size_t c = 0; c < num_components(); ++c) {
    for (int d : dirs) {
      copy_plane(comp_[c].f_post.dir_plane(d, lx), out.subspan(off, pc));
      off += pc;
    }
  }
}

void Slab::insert_f_halo(Side side, std::span<const double> in) {
  SLIPFLOW_REQUIRE(static_cast<index_t>(in.size()) == f_halo_doubles());
  const index_t lx = side == Side::left ? 0 : nx_local_ + 1;
  // the left neighbor sends us its right-going populations and vice versa
  const auto& dirs = side == Side::left ? kRightGoing : kLeftGoing;
  const std::size_t pc = static_cast<std::size_t>(plane_cells());
  std::size_t off = 0;
  for (std::size_t c = 0; c < num_components(); ++c) {
    for (int d : dirs) {
      copy_plane(in.subspan(off, pc), comp_[c].f_post.dir_plane(d, lx));
      off += pc;
    }
  }
}

void Slab::extract_density_halo(Side side, std::span<double> out) const {
  SLIPFLOW_REQUIRE(static_cast<index_t>(out.size()) == density_halo_doubles());
  const index_t lx = side == Side::left ? 1 : nx_local_;
  const std::size_t pc = static_cast<std::size_t>(plane_cells());
  for (std::size_t c = 0; c < num_components(); ++c)
    copy_plane(comp_[c].n.plane(lx), out.subspan(c * pc, pc));
}

void Slab::insert_density_halo(Side side, std::span<const double> in) {
  SLIPFLOW_REQUIRE(static_cast<index_t>(in.size()) == density_halo_doubles());
  const index_t lx = side == Side::left ? 0 : nx_local_ + 1;
  const std::size_t pc = static_cast<std::size_t>(plane_cells());
  for (std::size_t c = 0; c < num_components(); ++c)
    copy_plane(in.subspan(c * pc, pc), comp_[c].n.plane(lx));
}

template <class Visit>
void Slab::for_each_plane_field(Visit&& visit) const {
  for (std::size_t c = 0; c < num_components(); ++c) {
    for (int d = 0; d < kQ; ++d)
      visit([c, d](auto& s, index_t lx) {
        return s.comp_[c].f.dir_plane(d, lx);
      });
    visit([c](auto& s, index_t lx) { return s.comp_[c].n.plane(lx); });
    visit([c](auto& s, index_t lx) { return s.comp_[c].ueq.x().plane(lx); });
    visit([c](auto& s, index_t lx) { return s.comp_[c].ueq.y().plane(lx); });
    visit([c](auto& s, index_t lx) { return s.comp_[c].ueq.z().plane(lx); });
  }
  visit([](auto& s, index_t lx) { return s.rho_total_.plane(lx); });
  visit([](auto& s, index_t lx) { return s.u_macro_.x().plane(lx); });
  visit([](auto& s, index_t lx) { return s.u_macro_.y().plane(lx); });
  visit([](auto& s, index_t lx) { return s.u_macro_.z().plane(lx); });
}

index_t Slab::migration_doubles(index_t k) const {
  index_t fields = 0;
  for_each_plane_field([&](auto) { ++fields; });
  return fields * plane_cells() * k;
}

void Slab::pack_plane(index_t local_x, std::span<double> out) const {
  const std::size_t pc = static_cast<std::size_t>(plane_cells());
  std::size_t off = 0;
  for_each_plane_field([&](auto plane_of) {
    copy_plane(plane_of(*this, local_x), out.subspan(off, pc));
    off += pc;
  });
}

void Slab::unpack_plane(index_t local_x, std::span<const double> in) {
  const std::size_t pc = static_cast<std::size_t>(plane_cells());
  std::size_t off = 0;
  for_each_plane_field([&](auto plane_of) {
    copy_plane(in.subspan(off, pc), plane_of(*this, local_x));
    off += pc;
  });
}

void Slab::copy_owned_planes(Slab& dst, index_t src_begin_local,
                             index_t dst_begin_local, index_t count) const {
  for (index_t p = 0; p < count; ++p)
    for_each_plane_field([&](auto plane_of) {
      copy_plane(plane_of(*this, src_begin_local + p),
                 plane_of(dst, dst_begin_local + p));
    });
}

void Slab::pack_owned_plane(index_t gx, std::span<double> out) const {
  SLIPFLOW_REQUIRE(gx >= x_begin_ && gx < x_end());
  SLIPFLOW_REQUIRE(static_cast<index_t>(out.size()) == migration_doubles(1));
  pack_plane(local_x(gx), out);
}

void Slab::unpack_owned_plane(index_t gx, std::span<const double> in) {
  SLIPFLOW_REQUIRE(gx >= x_begin_ && gx < x_end());
  SLIPFLOW_REQUIRE(static_cast<index_t>(in.size()) == migration_doubles(1));
  unpack_plane(local_x(gx), in);
}

void Slab::detach_planes(Side side, index_t k, std::span<double> out) {
  SLIPFLOW_REQUIRE(k >= 1);
  SLIPFLOW_REQUIRE_MSG(k < nx_local_,
                       "a slab must keep at least one owned plane");
  SLIPFLOW_REQUIRE(static_cast<index_t>(out.size()) == migration_doubles(k));
  const index_t per_plane = migration_doubles(1);
  const index_t first = side == Side::left ? 1 : nx_local_ - k + 1;
  for (index_t p = 0; p < k; ++p) {
    pack_plane(first + p,
               out.subspan(static_cast<std::size_t>(p * per_plane),
                           static_cast<std::size_t>(per_plane)));
  }

  // Rebuild storage without the detached planes.
  Slab next(geom_, params_, side == Side::left ? x_begin_ + k : x_begin_,
            nx_local_ - k);
  const index_t keep_first = side == Side::left ? 1 + k : 1;
  copy_owned_planes(next, keep_first, 1, nx_local_ - k);
  *this = std::move(next);
}

void Slab::attach_planes(Side side, index_t k, std::span<const double> in) {
  SLIPFLOW_REQUIRE(k >= 1);
  SLIPFLOW_REQUIRE(static_cast<index_t>(in.size()) == migration_doubles(k));
  const index_t per_plane = migration_doubles(1);

  Slab next(geom_, params_, side == Side::left ? x_begin_ - k : x_begin_,
            nx_local_ + k);
  const index_t dst_first = side == Side::left ? 1 + k : 1;
  copy_owned_planes(next, 1, dst_first, nx_local_);
  const index_t new_first = side == Side::left ? 1 : nx_local_ + 1;
  for (index_t p = 0; p < k; ++p) {
    next.unpack_plane(new_first + p,
                      in.subspan(static_cast<std::size_t>(p * per_plane),
                                 static_cast<std::size_t>(per_plane)));
  }
  *this = std::move(next);
}

}  // namespace slipflow::lbm
