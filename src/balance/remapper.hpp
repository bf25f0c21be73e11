#pragma once
/// \file remapper.hpp
/// Per-node remapping controller and the plane-quantization helpers that
/// turn a policy's point-level decisions into whole-plane transfers.
///
/// Both runners (the real thread-parallel LBM and the virtual cluster)
/// instantiate one NodeBalancer per node and feed it measured phase
/// times; the balancer owns the predictor and the policy and produces
/// the node's load index and proposals. Everything here is deterministic
/// given the same inputs, so the two sides of a boundary always agree.

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "balance/policy.hpp"
#include "balance/predictors.hpp"

namespace slipflow::balance {

/// What a migration costs this node, and how many phases a transfer has
/// to pay that cost back in (how long the runner guarantees it stands
/// before the boundary can move again). A proposal is charged its
/// donor's cost plus its dearest receiver's (NodeLoad::migration_seconds):
/// a receiver attaches and rebuilds only after the donor has detached
/// and sent, while two receivers work in parallel. A zero charge
/// disables the gate, which is how the virtual cluster decides: its
/// remap cost is simulated, not measured.
struct MigrationCost {
  double seconds = 0.0;
  int horizon_phases = 1;
};

/// Predicted per-phase saving of reassigning points: `after[i]` points
/// for the node of `loads[i]`, each node's time scaling linearly with
/// its point count. Phases are synchronized, so a phase lasts as long as
/// its slowest node: the saving is max_i t_i(n_i) - max_i t_i(after_i).
/// For one donor shipping k points to one receiver this is
/// t_d(n_d) - max(t_d(n_d - k), t_r(n_r + k)) whenever the donor is the
/// slower of the two, and negative otherwise.
double predicted_saving(std::span<const NodeLoad> loads,
                        std::span<const double> after);

/// The cost gate: a reassignment is worth executing when its saving over
/// the horizon exceeds the migration cost (always, at zero cost).
bool pays_for_itself(double saving_per_phase, const MigrationCost& cost);

/// Controller for one node's remapping state.
///
/// Phase times are normalized to time-per-point before entering the
/// prediction window, so migrations do not invalidate the history: after
/// shipping planes away a node's per-point speed is unchanged and the
/// predicted *phase* time automatically scales with its new point count.
class NodeBalancer {
 public:
  NodeBalancer(BalanceConfig cfg, std::shared_ptr<const RemapPolicy> policy);

  /// Record the node's own compute time for the phase that just finished,
  /// with the point count it carried during that phase.
  void record_phase(double seconds, long long points);

  /// True once the prediction window is full ("confirmed", Section 3.4).
  bool ready() const { return predictor_->ready(); }

  /// Predicted next-phase time if the node carries `points` points.
  double predicted_time(long long points) const;

  /// This node's load for policy decisions.
  NodeLoad self_load(long long points) const {
    return {static_cast<double>(points), predicted_time(points)};
  }

  /// Run the (local) policy for this node, then drop the proposal if its
  /// predicted saving — both sides shipped at once — does not pay for the
  /// migration (see MigrationCost and pays_for_itself). The gate only
  /// ever zeroes this node's own proposals, so the two sides of a
  /// boundary still agree through resolve_pair.
  Proposal decide(const std::optional<NodeLoad>& left, long long my_points,
                  const std::optional<NodeLoad>& right,
                  const MigrationCost& cost = {}) const;

  const RemapPolicy& policy() const { return *policy_; }
  const BalanceConfig& config() const { return cfg_; }

 private:
  BalanceConfig cfg_;
  std::shared_ptr<const RemapPolicy> policy_;
  std::unique_ptr<LoadPredictor> predictor_;
};

/// Convert a net point flow across one boundary into whole yz-planes
/// (round to nearest), clamped so the donor keeps at least
/// `min_keep_planes`. Positive input = donor is the left node; the sign
/// is preserved. `donor_planes` is the current plane count of whichever
/// node the flow drains.
long long quantize_flow_to_planes(long long net_points, long long plane_cells,
                                  long long donor_planes,
                                  long long min_keep_planes = 1);

/// Boundary flows implied by a global target assignment: result[i] is the
/// point flow from node i to node i+1 (negative = leftward), computed as
/// the prefix sum of (current - target).
std::vector<long long> boundary_flows(const std::vector<long long>& current,
                                      const std::vector<long long>& target);

/// One whole-plane transfer of a global plan.
struct Transfer {
  int donor = 0;
  int receiver = 0;
  long long planes = 0;
};

/// Whole-plane execution plan of boundary flows, identical on every node
/// that computes it from the same inputs: flows below
/// `min_transfer_points` are skipped, the rest quantized and
/// donor-clamped in boundary order against the running plane counts in
/// `planes`, which hold the post-plan counts on return.
std::vector<Transfer> plan_transfers(const std::vector<long long>& flows,
                                     long long plane_cells,
                                     long long min_transfer_points,
                                     std::vector<long long>& planes);

}  // namespace slipflow::balance
