#include "balance/policy.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace slipflow::balance {

TripletTargets triplet_targets(const NodeLoad& left, const NodeLoad& me,
                               const NodeLoad& right) {
  const double total_n = left.points + me.points + right.points;
  const double total_s = left.speed() + me.speed() + right.speed();
  SLIPFLOW_REQUIRE(total_s > 0.0);
  const double per_speed = total_n / total_s;
  return {left.speed() * per_speed, me.speed() * per_speed,
          right.speed() * per_speed};
}

long long resolve_pair(long long i_to_right, long long ip1_to_left,
                       long long min_transfer_points) {
  SLIPFLOW_REQUIRE(i_to_right >= 0 && ip1_to_left >= 0);
  const long long net = i_to_right - ip1_to_left;
  return std::llabs(net) >= min_transfer_points ? net : 0;
}

Proposal RemapPolicy::decide(const std::optional<NodeLoad>&, const NodeLoad&,
                             const std::optional<NodeLoad>&,
                             const BalanceConfig&) const {
  SLIPFLOW_REQUIRE_MSG(false, "policy '" << name()
                                         << "' makes no local decisions");
  return {};
}

std::vector<long long> RemapPolicy::decide_global(
    const std::vector<NodeLoad>&, const BalanceConfig&) const {
  SLIPFLOW_REQUIRE_MSG(false, "policy '" << name()
                                         << "' makes no global decisions");
  return {};
}

namespace {

/// The one list of policy names; nullptr for a name not on it.
std::unique_ptr<RemapPolicy> make_policy(const std::string& name) {
  if (name == "none") return std::make_unique<NoRemapPolicy>();
  if (name == "conservative") return std::make_unique<ConservativePolicy>();
  if (name == "filtered") return std::make_unique<FilteredPolicy>();
  if (name == "global") return std::make_unique<GlobalPolicy>();
  return nullptr;
}

}  // namespace

bool RemapPolicy::known(const std::string& name) {
  return make_policy(name) != nullptr;
}

std::unique_ptr<RemapPolicy> RemapPolicy::create(const std::string& name) {
  std::unique_ptr<RemapPolicy> policy = make_policy(name);
  SLIPFLOW_REQUIRE_MSG(policy != nullptr,
                       "unknown remap policy '" << name << "'");
  return policy;
}

namespace {

/// Shared body of the conservative and filtered schemes; they differ only
/// in how much of the computed imbalance they actually ship.
Proposal local_balance(const std::optional<NodeLoad>& left,
                       const NodeLoad& me,
                       const std::optional<NodeLoad>& right,
                       const BalanceConfig& cfg, bool over_redistribute) {
  // Balance over the nodes that exist (2 at the chain ends, 3 inside).
  double total_n = me.points;
  double total_s = me.speed();
  if (left) {
    total_n += left->points;
    total_s += left->speed();
  }
  if (right) {
    total_n += right->points;
    total_s += right->speed();
  }
  SLIPFLOW_REQUIRE(total_s > 0.0);
  const double per_speed = total_n / total_s;

  Proposal p;
  auto side_amount = [&](const NodeLoad& nb, Suppressed& why) -> long long {
    // Intended receiver gain: n'_nb - n_nb, positive when the neighbor
    // should end up with more points than it has.
    const double delta = nb.speed() * per_speed - nb.points;
    if (delta < static_cast<double>(cfg.min_transfer_points)) {
      if (delta > 0.0) why = Suppressed::threshold;
      return 0;
    }
    // The lazy filter: never move points from a fast node to a slow one —
    // a slow receiver also communicates sluggishly, so feeding it work
    // costs more than the cycles it contributes (Section 3.3).
    if (!cfg.allow_fast_to_slow && nb.speed() <= me.speed()) {
      why = Suppressed::fast_to_slow;
      return 0;
    }
    double amount = delta;
    if (over_redistribute) {
      // Over-redistribution: a confirmed slow node drains aggressively,
      // scaled by how much faster the receiver is (beta = S_recv / S_me).
      const double beta = std::clamp(nb.speed() / me.speed(), 1.0,
                                     cfg.over_redistribution_cap);
      amount *= beta;
    } else {
      amount *= cfg.conservative_factor;
    }
    return static_cast<long long>(std::llround(amount));
  };

  if (right) p.to_right = side_amount(*right, p.right_why);
  if (left) p.to_left = side_amount(*left, p.left_why);
  // Zero a side that fell below the threshold, recording why if it was
  // still live.
  const auto rethreshold = [&](long long& amount, Suppressed& why) {
    if (amount >= cfg.min_transfer_points) return;
    if (amount > 0) why = Suppressed::threshold;
    amount = 0;
  };

  // Re-apply the threshold after scaling (the conservative factor can
  // push a marginal transfer below it).
  rethreshold(p.to_right, p.right_why);
  rethreshold(p.to_left, p.left_why);

  // Never propose shipping more points than we own; scale both sides
  // down proportionally if the aggressive amounts overshoot, and
  // re-apply the threshold to whatever the scaling left.
  const double mine = me.points;
  const double want = static_cast<double>(p.to_left + p.to_right);
  if (want > mine && want > 0.0) {
    const double scale = mine / want;
    p.to_left = static_cast<long long>(
        std::floor(static_cast<double>(p.to_left) * scale));
    p.to_right = static_cast<long long>(
        std::floor(static_cast<double>(p.to_right) * scale));
    rethreshold(p.to_right, p.right_why);
    rethreshold(p.to_left, p.left_why);
  }
  return p;
}

}  // namespace

Proposal ConservativePolicy::decide(const std::optional<NodeLoad>& left,
                                    const NodeLoad& me,
                                    const std::optional<NodeLoad>& right,
                                    const BalanceConfig& cfg) const {
  return local_balance(left, me, right, cfg, /*over_redistribute=*/false);
}

Proposal FilteredPolicy::decide(const std::optional<NodeLoad>& left,
                                const NodeLoad& me,
                                const std::optional<NodeLoad>& right,
                                const BalanceConfig& cfg) const {
  return local_balance(left, me, right, cfg, /*over_redistribute=*/true);
}

std::vector<long long> GlobalPolicy::decide_global(
    const std::vector<NodeLoad>& all, const BalanceConfig& cfg) const {
  SLIPFLOW_REQUIRE(!all.empty());
  (void)cfg;
  long long total = 0;
  double total_s = 0.0;
  for (const auto& n : all) {
    total += static_cast<long long>(std::llround(n.points));
    total_s += n.speed();
  }
  SLIPFLOW_REQUIRE(total_s > 0.0);

  // Proportional-to-speed targets, rounded with the largest-remainder
  // method so the point total is preserved exactly.
  std::vector<long long> target(all.size());
  std::vector<std::pair<double, std::size_t>> frac(all.size());
  long long assigned = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double ideal =
        static_cast<double>(total) * all[i].speed() / total_s;
    target[i] = static_cast<long long>(std::floor(ideal));
    if (target[i] < 1) target[i] = 1;  // a node always keeps something
    frac[i] = {ideal - std::floor(ideal), i};
    assigned += target[i];
  }
  std::sort(frac.begin(), frac.end(), std::greater<>());
  std::size_t k = 0;
  while (assigned < total) {
    target[frac[k % frac.size()].second] += 1;
    ++assigned;
    ++k;
  }
  while (assigned > total) {  // only possible via the >=1 clamps
    auto it = std::max_element(target.begin(), target.end());
    SLIPFLOW_REQUIRE(*it > 1);
    *it -= 1;
    --assigned;
  }
  return target;
}

}  // namespace slipflow::balance
