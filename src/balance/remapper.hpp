#pragma once
/// \file remapper.hpp
/// Per-node remapping controller and the plane-quantization helpers that
/// turn a policy's point-level decisions into whole-plane transfers.
///
/// Both runners (the real LBM over thread, socket and shm transports,
/// and the virtual cluster) keep one NodeBalancer per node, feed it
/// measured phase times, and take every remap decision from here: a
/// local check is propose() then settle_local(), a global one
/// plan_global(). Everything here is deterministic given the same
/// inputs, so the two sides of a boundary always agree.

#include <memory>
#include <optional>
#include <span>
#include <utility>
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

/// The second half of the cost gate. A CPU contention episode on a
/// shared host slows one rank 2-3x for a few milliseconds — one remap
/// check of a sub-millisecond-phase run — and looks exactly like a slow
/// node there, but a move made on it is never paid back. So a transfer
/// that pays for itself now ships only if the gate also passed at the
/// node's previous check. The receiver, the faster end, failed its own
/// gate toward the donor at the shipping check, so it cannot ship planes
/// back at the next one: a transfer stands for at least kGateIntervals
/// remap intervals, the horizon its saving is counted over.
inline constexpr int kGateIntervals = 2;

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

/// One whole-plane transfer of a global plan.
struct Transfer {
  int donor = 0;
  int receiver = 0;
  long long planes = 0;
};

/// A global check: the transfers to execute, and (donor, filter) for
/// every flow a filter dropped.
struct GlobalPlan {
  std::vector<Transfer> transfers;
  std::vector<std::pair<int, Suppressed>> suppressed;
};

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
  /// boundary still agree through resolve_pair. `charge` (optional)
  /// receives the cost charged, 0 if nothing was proposed.
  Proposal decide(const std::optional<NodeLoad>& left, long long my_points,
                  const std::optional<NodeLoad>& right,
                  const MigrationCost& cost = {},
                  double* charge = nullptr) const;

  /// One local check: decide(), then persistence (kGateIntervals). A
  /// zero charge turns off both halves of the gate.
  Proposal propose(const std::optional<NodeLoad>& left, long long my_points,
                   const std::optional<NodeLoad>& right,
                   const MigrationCost& cost = {});

  /// One global check from every node's load (nullopt until its window
  /// fills: then nothing is planned): decide_global, boundary_flows,
  /// plan_transfers, then the gate on the whole plan, charged its
  /// dearest transfer's donor + receiver cost, with persistence as in
  /// propose(). An executed plan must pass twice afresh: any plan may
  /// reverse it.
  GlobalPlan plan_global(std::span<const std::optional<NodeLoad>> all,
                         long long plane_cells, int horizon_phases = 1);

  const RemapPolicy& policy() const { return *policy_; }
  const BalanceConfig& config() const { return cfg_; }

 private:
  BalanceConfig cfg_;
  std::shared_ptr<const RemapPolicy> policy_;
  std::unique_ptr<LoadPredictor> predictor_;
  /// Whether the gate passed at this node's previous check.
  bool paid_ = false;
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

/// Whole-plane execution plan of boundary flows, identical on every node
/// that computes it from the same inputs: flows below
/// `min_transfer_points` are skipped, the rest quantized and
/// donor-clamped in boundary order against the running plane counts in
/// `planes`, which hold the post-plan counts on return.
std::vector<Transfer> plan_transfers(const std::vector<long long>& flows,
                                     long long plane_cells,
                                     long long min_transfer_points,
                                     std::vector<long long>& planes);

/// One node's side of a local check: the agreed net point flows across
/// its boundaries (positive = rightward) and the planes it ships.
struct LocalMoves {
  long long net_left = 0, net_right = 0;
  long long ship_left = 0, ship_right = 0;
};

/// The donor clamp: quantize the flows that drain the node, left
/// boundary first, so it keeps one of the `planes` it holds at the
/// check. Planes it receives in the check never count, so each node
/// clamps alone, before anything arrives.
LocalMoves clamp_donor(long long net_left, long long net_right,
                       long long plane_cells, long long planes);

/// resolve_pair on both boundaries, then clamp_donor; `from_*` are the
/// neighbors' proposals toward this node (0 if none).
LocalMoves settle_local(const Proposal& mine, long long from_left,
                        long long from_right, long long min_transfer_points,
                        long long plane_cells, long long planes);

}  // namespace slipflow::balance
