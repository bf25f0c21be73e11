#pragma once
/// \file policy.hpp
/// Remapping decision policies (Section 3) as pure functions of load
/// information, so that the exact same code drives both the real LBM
/// runner (over its thread, socket and shm transports) and the
/// virtual-cluster performance model.
///
/// Local policies look at the (left, me, right) triplet; the global
/// policy looks at every node. Conflict resolution between adjacent
/// triplets and quantizing transfers to whole yz-planes live in
/// remapper.hpp; the runners only carry the corresponding communication
/// (neighbor exchange vs allgather).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/require.hpp"

namespace slipflow::balance {

/// What one node knows about a node when deciding: its current number of
/// lattice points and its predicted next-phase time (the load index of
/// Section 3.4), plus what a migration costs it (0 = not measured; see
/// MigrationCost in remapper.hpp).
struct NodeLoad {
  double points = 0.0;
  double predicted_time = 0.0;
  double migration_seconds = 0.0;

  /// Processing speed S = n / t (points per second).
  double speed() const {
    SLIPFLOW_REQUIRE(predicted_time > 0.0);
    return points / predicted_time;
  }
};

/// Tuning knobs shared by the policies.
struct BalanceConfig {
  /// Prediction window K (phases); also the "confirmed slow" confidence
  /// gate — no decisions fire until a node has K samples.
  int window = 10;
  /// Minimum number of points worth moving (paper: one 200x20 yz-plane of
  /// the 400x200x20 channel = 4000 points).
  long long min_transfer_points = 4000;
  /// delta divisor of the conservative scheme (ship delta/2).
  double conservative_factor = 0.5;
  /// Upper clamp on the over-redistribution scaling beta = S_recv/S_me,
  /// so an extremely slow node cannot be asked to serialize its entire
  /// slab in one remap step.
  double over_redistribution_cap = 4.0;
  /// Name of the LoadPredictor to instantiate per node.
  std::string predictor = "harmonic";
  /// Ablation switch: when true, the "never move points from a fast node
  /// to a slow node" filter (Section 3.3) is disabled and pure triplet
  /// balancing applies. The paper's schemes keep this false.
  bool allow_fast_to_slow = false;
};

/// Which filter zeroed a side of a proposal although the triplet balance
/// pointed a positive imbalance at that neighbor.
enum class Suppressed : unsigned char {
  none,
  threshold,     ///< the amount fell below min_transfer_points
  fast_to_slow,  ///< the neighbor is not faster (Section 3.3 filter)
  cost,          ///< the predicted saving does not pay for the migration
};

/// Points a node proposes to ship to each neighbor (never negative; a
/// node only proposes *sending*, receiving follows from the neighbor's
/// proposal plus conflict resolution).
struct Proposal {
  long long to_left = 0;
  long long to_right = 0;
  /// Diagnostics only; never exchanged or used in agreement.
  Suppressed left_why = Suppressed::none;
  Suppressed right_why = Suppressed::none;

  /// Zero every live side, recording `why`.
  void drop(Suppressed why) {
    if (to_left != 0) left_why = why;
    if (to_right != 0) right_why = why;
    to_left = to_right = 0;
  }
};

/// Ideal post-remap point counts for a (left, me, right) triplet: every
/// node finishes the next phase simultaneously when points are allotted
/// proportionally to speed — n'_j = S_j * (sum n) / (sum S) (Section 3.4).
struct TripletTargets {
  double left = 0.0, me = 0.0, right = 0.0;
};
TripletTargets triplet_targets(const NodeLoad& left, const NodeLoad& me,
                               const NodeLoad& right);

/// Resolve the two independent proposals across one boundary (node i's
/// triplet said "ship a points right", node i+1's triplet said "ship b
/// points left"): the net flow, re-checked against the threshold.
/// Positive = left-to-right flow.
long long resolve_pair(long long i_to_right, long long ip1_to_left,
                       long long min_transfer_points);

/// A remapping policy. decide() may be called with absent neighbors at
/// the chain ends; the triplet math then degrades to the 2-node balance.
class RemapPolicy {
 public:
  virtual ~RemapPolicy() = default;

  virtual std::string name() const = 0;

  /// True for policies that need every node's load (allgather) rather
  /// than the neighbor exchange. The runners choose the communication
  /// pattern — and pay its cost — based on this.
  virtual bool global() const { return false; }

  /// Local decision for this node given its neighborhood.
  virtual Proposal decide(const std::optional<NodeLoad>& left,
                          const NodeLoad& me,
                          const std::optional<NodeLoad>& right,
                          const BalanceConfig& cfg) const;

  /// Global decision: target point counts for all nodes (same order),
  /// summing to the current total. Only meaningful when global().
  virtual std::vector<long long> decide_global(
      const std::vector<NodeLoad>& all, const BalanceConfig& cfg) const;

  /// Factory by name: "none", "conservative", "filtered", "global".
  static std::unique_ptr<RemapPolicy> create(const std::string& name);
  /// Would create(name) succeed? Admission checks names with this.
  static bool known(const std::string& name);
};

/// Never moves anything — the paper's "No-remapping" baseline.
class NoRemapPolicy final : public RemapPolicy {
 public:
  std::string name() const override { return "none"; }
  Proposal decide(const std::optional<NodeLoad>&, const NodeLoad&,
                  const std::optional<NodeLoad>&,
                  const BalanceConfig&) const override {
    return {};
  }
};

/// Local triplet balance with the lazy filters (threshold, never move
/// fast-to-slow) but shipping only conservative_factor * delta — the
/// classic distributed load-sharing behavior ([42] in the paper).
class ConservativePolicy final : public RemapPolicy {
 public:
  std::string name() const override { return "conservative"; }
  Proposal decide(const std::optional<NodeLoad>& left, const NodeLoad& me,
                  const std::optional<NodeLoad>& right,
                  const BalanceConfig& cfg) const override;
};

/// The paper's contribution: same lazy filters, but a confirmed slow node
/// over-redistributes — it ships beta * delta with beta = S_recv / S_me
/// (clamped), aggressively draining work from the node that would
/// otherwise drag every synchronized phase.
class FilteredPolicy final : public RemapPolicy {
 public:
  std::string name() const override { return "filtered"; }
  Proposal decide(const std::optional<NodeLoad>& left, const NodeLoad& me,
                  const std::optional<NodeLoad>& right,
                  const BalanceConfig& cfg) const override;
};

/// Global information exchange: all loads are gathered and points are
/// re-assigned proportionally to node speeds (lazy prediction, no
/// over-redistribution) — the comparison scheme of Section 4.2.3.
class GlobalPolicy final : public RemapPolicy {
 public:
  std::string name() const override { return "global"; }
  bool global() const override { return true; }
  std::vector<long long> decide_global(const std::vector<NodeLoad>& all,
                                       const BalanceConfig& cfg) const override;
};

}  // namespace slipflow::balance
