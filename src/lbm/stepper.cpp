#include "lbm/stepper.hpp"

namespace slipflow::lbm {

void PeriodicSelfExchanger::exchange_f(Slab& slab) {
  SLIPFLOW_REQUIRE_MSG(slab.nx_local() == slab.geometry().global().nx,
                       "PeriodicSelfExchanger needs a full-domain slab");
  buf_.resize(static_cast<std::size_t>(slab.f_halo_doubles()));
  // right boundary populations wrap to the left halo ...
  slab.extract_f_halo(Side::right, buf_);
  slab.insert_f_halo(Side::left, buf_);
  // ... and left boundary populations to the right halo.
  slab.extract_f_halo(Side::left, buf_);
  slab.insert_f_halo(Side::right, buf_);
}

void PeriodicSelfExchanger::exchange_density(Slab& slab) {
  SLIPFLOW_REQUIRE_MSG(slab.nx_local() == slab.geometry().global().nx,
                       "PeriodicSelfExchanger needs a full-domain slab");
  buf_.resize(static_cast<std::size_t>(slab.density_halo_doubles()));
  slab.extract_density_halo(Side::right, buf_);
  slab.insert_density_halo(Side::left, buf_);
  slab.extract_density_halo(Side::left, buf_);
  slab.insert_density_halo(Side::right, buf_);
}

void prime(Slab& slab, PeriodicSelfExchanger& halo) {
  halo.exchange_density(slab);
  compute_forces_and_velocity(slab);
}

void reference_phase(Slab& slab, PeriodicSelfExchanger& halo) {
  collide(slab);
  halo.exchange_f(slab);
  stream(slab);
  compute_density(slab);
  halo.exchange_density(slab);
  compute_forces_and_velocity(slab);
}

}  // namespace slipflow::lbm
