#pragma once
/// \file slab.hpp
/// A slab is one process's share of the microchannel under the paper's 1-D
/// slice decomposition along x (Section 2.2): a contiguous run of yz-planes
/// plus one halo plane on each side.
///
/// The slab owns all per-cell state of the multicomponent LBM and provides
/// the two operations the parallel algorithm needs beyond plain kernels:
///
///  * halo extraction/insertion — the per-phase boundary exchange of
///    distribution functions (the five x-crossing directions each way) and
///    of number densities (Figure 2, lines 8 and 14); and
///  * plane detach/attach — migrating whole yz-planes of lattice points to
///    a neighbor during dynamic remapping (Section 3). One plane is the
///    paper's minimal migration unit.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "lbm/field.hpp"
#include "lbm/geometry.hpp"
#include "lbm/params.hpp"
#include "lbm/plan.hpp"

namespace slipflow::lbm {

/// Which slab boundary an operation applies to.
enum class Side { left, right };

/// Per-cell-per-component doubles in the distribution-function halo
/// exchange: the five directions that cross the slab boundary.
inline constexpr index_t kFHaloDoublesPerCellPerComponent = kXDirCount;

class Slab {
 public:
  /// \param geom     shared global geometry (x-periodic channel)
  /// \param params   fluid parameters; validated here
  /// \param x_begin  global x index of the first owned plane
  /// \param nx_local number of owned planes (>= 1)
  Slab(std::shared_ptr<const ChannelGeometry> geom, FluidParams params,
       index_t x_begin, index_t nx_local);

  // -- extent queries -------------------------------------------------
  index_t x_begin() const { return x_begin_; }
  index_t nx_local() const { return nx_local_; }
  /// Global x of one-past the last owned plane.
  index_t x_end() const { return x_begin_ + nx_local_; }
  /// Cells per yz-plane.
  index_t plane_cells() const { return geom_->global().plane_cells(); }
  /// Owned lattice points (the remapping load measure).
  index_t owned_cells() const { return nx_local_ * plane_cells(); }
  /// Storage extents: owned planes plus the two halo planes.
  const Extents& storage() const { return store_; }
  /// Local storage x-index of global plane gx (1..nx_local for owned).
  index_t local_x(index_t gx) const { return gx - x_begin_ + 1; }

  const ChannelGeometry& geometry() const { return *geom_; }
  const FluidParams& params() const { return params_; }
  std::size_t num_components() const { return params_.num_components(); }

  // -- per-component state --------------------------------------------
  DistField& f(std::size_t c) { return comp_[c].f; }
  const DistField& f(std::size_t c) const { return comp_[c].f; }
  /// Post-collision populations (input to streaming and to the f-halo
  /// exchange).
  DistField& f_post(std::size_t c) { return comp_[c].f_post; }
  const DistField& f_post(std::size_t c) const { return comp_[c].f_post; }
  ScalarField& density(std::size_t c) { return comp_[c].n; }
  const ScalarField& density(std::size_t c) const { return comp_[c].n; }
  /// Equilibrium velocity u' + tau F / rho of the component (Section 2.1).
  VectorField& ueq(std::size_t c) { return comp_[c].ueq; }
  const VectorField& ueq(std::size_t c) const { return comp_[c].ueq; }

  // -- mixture observables (filled by the force pass) -------------------
  /// Outputs only: no kernel reads them. The plane record carries them,
  /// so a migrated or restored plane keeps them.
  VectorField& velocity() { return u_macro_; }
  const VectorField& velocity() const { return u_macro_; }
  ScalarField& total_density() { return rho_total_; }
  const ScalarField& total_density() const { return rho_total_; }

  /// Precomputed unit wall acceleration for a (y,z) column; scaled by each
  /// component's wall_accel in the force kernel.
  const Vec3& wall_accel_unit(index_t y, index_t z) const {
    return wall_unit_[static_cast<std::size_t>(y * store_.nz + z)];
  }
  /// Same lookup by flat in-plane index yz = y * nz + z.
  const Vec3& wall_accel_unit(index_t yz) const {
    return wall_unit_[static_cast<std::size_t>(yz)];
  }

  /// The slab's row tiles and per-cell tables, built lazily on first use
  /// and dropped automatically when plane migration rebuilds the slab
  /// (the move-assign in detach/attach replaces the cached pointer).
  /// Runners that want the rebuild timed call plan() inside their own
  /// span. Not thread-safe to build: runners touch plan() on the
  /// coordinating thread before slicing it across a pool.
  const StreamingPlan& plan() const {
    if (plan_ == nullptr)
      plan_ = std::make_unique<StreamingPlan>(*geom_, x_begin_, nx_local_);
    return *plan_;
  }
  /// Whether the plan is currently built (used by runners to decide if a
  /// rebuild span is worth recording).
  bool has_plan() const { return plan_ != nullptr; }

  // -- initialization ---------------------------------------------------
  /// Set per-component number density from a function of *global* cell
  /// coordinates (decomposition-invariant), and the populations to the
  /// zero-velocity equilibrium of that density. ueq/velocity are left to a
  /// first force pass by the stepper.
  void initialize(
      const std::function<double(std::size_t comp, index_t gx, index_t gy,
                                 index_t gz)>& init_density);
  /// Uniform initialization from params().components[c].init_density.
  void initialize_uniform();

  // -- halo exchange payloads ------------------------------------------
  /// Size (doubles) of one f-halo message: 5 dirs x components x plane.
  index_t f_halo_doubles() const {
    return kFHaloDoublesPerCellPerComponent *
           static_cast<index_t>(num_components()) * plane_cells();
  }
  /// Size (doubles) of one density-halo message: components x plane.
  index_t density_halo_doubles() const {
    return static_cast<index_t>(num_components()) * plane_cells();
  }

  /// Pack the boundary-adjacent *owned* plane's post-collision populations
  /// that travel across `side` (right-going at the right boundary,
  /// left-going at the left boundary), for all components.
  void extract_f_halo(Side side, std::span<double> out) const;
  /// Unpack a neighbor's message into the `side` halo plane.
  void insert_f_halo(Side side, std::span<const double> in);

  /// Pack / unpack number densities of the boundary-adjacent owned plane /
  /// the halo plane, for all components.
  void extract_density_halo(Side side, std::span<double> out) const;
  void insert_density_halo(Side side, std::span<const double> in);

  // -- plane migration (dynamic remapping, Section 3) -------------------
  /// Size (doubles) of a k-plane migration message: one yz-plane per
  /// field of for_each_plane_field, per plane.
  index_t migration_doubles(index_t k) const;

  /// Pack / unpack one owned plane's full state (the plane record) by
  /// *global* plane index. Buffer size must be migration_doubles(1). The
  /// record is field-major: one yz-plane block per field, in the order of
  /// for_each_plane_field. Used by migration internally and by the
  /// checkpoint module — a checkpoint is just every plane's record in x
  /// order, which is why restart works across different decompositions.
  void pack_owned_plane(index_t gx, std::span<double> out) const;
  void unpack_owned_plane(index_t gx, std::span<const double> in);

  /// Remove the k outermost owned planes at `side`, packing their plane
  /// records into `out` with planes ordered by increasing global x.
  /// Shrinks the slab; k < nx_local (a slab never gives away its last
  /// plane).
  void detach_planes(Side side, index_t k, std::span<double> out);

  /// Grow the slab by k planes at `side` and unpack state packed by
  /// detach_planes on the neighbor.
  void attach_planes(Side side, index_t k, std::span<const double> in);

 private:
  struct ComponentState {
    DistField f, f_post;
    ScalarField n;
    VectorField ueq;
  };

  void allocate(index_t nx_local);
  /// The plane record's field list, written once: calls visit(plane_of)
  /// per field in record order — per component its kQ populations, n and
  /// ueq x/y/z, then the mixture total density and velocity x/y/z.
  /// plane_of(slab, local_x) is that field's yz-plane in `slab`.
  template <class Visit>
  void for_each_plane_field(Visit&& visit) const;
  void copy_owned_planes(Slab& dst, index_t src_begin_local,
                         index_t dst_begin_local, index_t count) const;
  void pack_plane(index_t local_x, std::span<double> out) const;
  void unpack_plane(index_t local_x, std::span<const double> in);

  std::shared_ptr<const ChannelGeometry> geom_;
  FluidParams params_;
  index_t x_begin_ = 0;
  index_t nx_local_ = 0;
  Extents store_{};
  std::vector<ComponentState> comp_;
  VectorField u_macro_;
  ScalarField rho_total_;
  std::vector<Vec3> wall_unit_;
  mutable std::unique_ptr<StreamingPlan> plan_;
};

}  // namespace slipflow::lbm
