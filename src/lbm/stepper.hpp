#pragma once
/// \file stepper.hpp
/// The test and bench oracle: Figure 2's kernel sequence on the original
/// per-cell-branching kernels, for a slab that covers the whole
/// x-periodic domain, with the two communication points served by a
/// periodic self-exchange. No production path runs it: every run,
/// sequential or parallel, primes and steps through sim::ParallelLbm on
/// the fused kernels, which are pinned to this oracle.

#include "lbm/kernels.hpp"
#include "lbm/slab.hpp"

namespace slipflow::lbm {

/// Periodic wrap of a slab that covers the whole domain onto itself:
/// the left halo is the rightmost owned plane and vice versa.
class PeriodicSelfExchanger {
 public:
  /// Fill both f_post halo planes (the five x-crossing directions each
  /// way, all components) from the wrapped edge planes (Figure 2, line 8).
  void exchange_f(Slab& slab);

  /// Fill both number-density halo planes (Figure 2, line 14).
  void exchange_density(Slab& slab);

 private:
  std::vector<double> buf_;
};

/// Run the post-initialization priming pass: densities are already set by
/// Slab::initialize, so exchange them and compute forces/velocities so the
/// first collide() has valid inputs.
void prime(Slab& slab, PeriodicSelfExchanger& halo);

/// Execute one full LBM phase (collide, f-exchange, stream + bounce-back,
/// density, density-exchange, forces/velocity) on the reference kernels:
/// the oracle the runner's plan and tile paths are pinned to
/// (tests/test_plan_kernels.cpp) and the baseline of the plan-speedup
/// bench. Nothing outside the tests and benches steps with it.
void reference_phase(Slab& slab, PeriodicSelfExchanger& halo);

}  // namespace slipflow::lbm
