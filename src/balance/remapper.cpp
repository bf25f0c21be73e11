#include "balance/remapper.hpp"

#include <algorithm>
#include <cmath>

namespace slipflow::balance {

NodeBalancer::NodeBalancer(BalanceConfig cfg,
                           std::shared_ptr<const RemapPolicy> policy)
    : cfg_(std::move(cfg)),
      policy_(std::move(policy)),
      predictor_(LoadPredictor::create(cfg_.predictor, cfg_.window)) {
  SLIPFLOW_REQUIRE(policy_ != nullptr);
  SLIPFLOW_REQUIRE(cfg_.window >= 1);
  SLIPFLOW_REQUIRE(cfg_.min_transfer_points >= 1);
  SLIPFLOW_REQUIRE(cfg_.conservative_factor > 0.0 &&
                   cfg_.conservative_factor <= 1.0);
  SLIPFLOW_REQUIRE(cfg_.over_redistribution_cap >= 1.0);
}

void NodeBalancer::record_phase(double seconds, long long points) {
  SLIPFLOW_REQUIRE(seconds > 0.0);
  SLIPFLOW_REQUIRE(points > 0);
  predictor_->record(seconds / static_cast<double>(points));
}

double NodeBalancer::predicted_time(long long points) const {
  SLIPFLOW_REQUIRE(ready());
  return predictor_->predict() * static_cast<double>(points);
}

double predicted_saving(std::span<const NodeLoad> loads,
                        std::span<const double> after) {
  SLIPFLOW_REQUIRE(loads.size() == after.size());
  double before_max = 0.0, after_max = 0.0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    SLIPFLOW_REQUIRE(loads[i].points > 0.0);
    const double per_point = loads[i].predicted_time / loads[i].points;
    before_max = std::max(before_max, loads[i].predicted_time);
    after_max = std::max(after_max, per_point * after[i]);
  }
  return before_max - after_max;
}

bool pays_for_itself(double saving_per_phase, const MigrationCost& cost) {
  SLIPFLOW_REQUIRE(cost.horizon_phases >= 1);
  return cost.seconds <= 0.0 ||
         saving_per_phase * static_cast<double>(cost.horizon_phases) >
             cost.seconds;
}

Proposal NodeBalancer::decide(const std::optional<NodeLoad>& left,
                              long long my_points,
                              const std::optional<NodeLoad>& right,
                              const MigrationCost& cost,
                              double* charge) const {
  if (charge != nullptr) *charge = 0.0;
  if (!ready()) return {};
  const NodeLoad me = self_load(my_points);
  Proposal p = policy_->decide(left, me, right, cfg_);
  // Both sides ship in the same remap step, so the proposal is one
  // reassignment of the triplet, gated as a whole: this node sheds both
  // amounts, and the receivers rebuild in parallel after it.
  std::vector<NodeLoad> loads{me};
  std::vector<double> after{me.points};
  double receiver_cost = 0.0;
  const auto ship = [&](const std::optional<NodeLoad>& nb, long long amount) {
    if (amount == 0) return;
    const double k = static_cast<double>(amount);
    loads.push_back(*nb);
    after.push_back(nb->points + k);
    after.front() -= k;
    receiver_cost = std::max(receiver_cost, nb->migration_seconds);
  };
  ship(left, p.to_left);
  ship(right, p.to_right);
  if (loads.size() == 1) return p;
  const MigrationCost charged{cost.seconds + receiver_cost,
                              cost.horizon_phases};
  if (charge != nullptr) *charge = charged.seconds;
  if (!pays_for_itself(predicted_saving(loads, after), charged))
    p.drop(Suppressed::cost);
  return p;
}

Proposal NodeBalancer::propose(const std::optional<NodeLoad>& left,
                               long long my_points,
                               const std::optional<NodeLoad>& right,
                               const MigrationCost& cost) {
  double charge = 0.0;
  Proposal p = decide(left, my_points, right, cost, &charge);
  const bool pays = p.to_left + p.to_right > 0;
  if (charge > 0.0 && !paid_) p.drop(Suppressed::cost);
  paid_ = pays;
  return p;
}

GlobalPlan NodeBalancer::plan_global(
    std::span<const std::optional<NodeLoad>> all, long long plane_cells,
    int horizon_phases) {
  GlobalPlan out;
  std::vector<NodeLoad> loads;
  std::vector<long long> current, planes;
  for (const std::optional<NodeLoad>& load : all) {
    if (!load) return out;  // someone's window is not full yet
    loads.push_back(*load);
    current.push_back(static_cast<long long>(load->points));
    planes.push_back(current.back() / plane_cells);
  }
  const long long min_t = cfg_.min_transfer_points;
  const std::vector<long long> flows =
      boundary_flows(current, policy_->decide_global(loads, cfg_));
  for (std::size_t b = 0; b < flows.size(); ++b)
    if (flows[b] != 0 && std::llabs(flows[b]) < min_t)
      out.suppressed.emplace_back(static_cast<int>(flows[b] > 0 ? b : b + 1),
                                  Suppressed::threshold);
  std::vector<Transfer> plan =
      plan_transfers(flows, plane_cells, min_t, planes);
  double charge = 0.0;
  for (const Transfer& tr : plan)
    charge = std::max(
        charge, loads[static_cast<std::size_t>(tr.donor)].migration_seconds +
                    loads[static_cast<std::size_t>(tr.receiver)]
                        .migration_seconds);
  std::vector<double> after;
  for (const long long n : planes)
    after.push_back(static_cast<double>(n * plane_cells));
  const bool pays =
      !plan.empty() && pays_for_itself(predicted_saving(loads, after),
                                       {charge, horizon_phases});
  if (!pays || (charge > 0.0 && !paid_)) {
    paid_ = pays;
    for (const Transfer& tr : plan)
      out.suppressed.emplace_back(tr.donor, Suppressed::cost);
    return out;
  }
  paid_ = false;
  out.transfers = std::move(plan);
  return out;
}

long long quantize_flow_to_planes(long long net_points, long long plane_cells,
                                  long long donor_planes,
                                  long long min_keep_planes) {
  SLIPFLOW_REQUIRE(plane_cells > 0);
  SLIPFLOW_REQUIRE(donor_planes >= 1);
  SLIPFLOW_REQUIRE(min_keep_planes >= 1);
  const long long magnitude = std::llabs(net_points);
  long long planes = (magnitude + plane_cells / 2) / plane_cells;
  const long long max_give = donor_planes - min_keep_planes;
  if (planes > max_give) planes = max_give < 0 ? 0 : max_give;
  return net_points >= 0 ? planes : -planes;
}

std::vector<long long> boundary_flows(const std::vector<long long>& current,
                                      const std::vector<long long>& target) {
  SLIPFLOW_REQUIRE(current.size() == target.size());
  SLIPFLOW_REQUIRE(!current.empty());
  std::vector<long long> flows(current.size() - 1);
  long long acc = 0;
  for (std::size_t i = 0; i + 1 < current.size(); ++i) {
    acc += current[i] - target[i];
    flows[i] = acc;
  }
  return flows;
}

std::vector<Transfer> plan_transfers(const std::vector<long long>& flows,
                                     long long plane_cells,
                                     long long min_transfer_points,
                                     std::vector<long long>& planes) {
  SLIPFLOW_REQUIRE(planes.size() == flows.size() + 1);
  std::vector<Transfer> plan;
  for (std::size_t b = 0; b < flows.size(); ++b) {
    const long long f = flows[b];
    if (std::llabs(f) < min_transfer_points) continue;
    const std::size_t donor = f > 0 ? b : b + 1;
    const std::size_t receiver = f > 0 ? b + 1 : b;
    const long long k = std::llabs(
        quantize_flow_to_planes(f, plane_cells, planes[donor]));
    if (k == 0) continue;
    planes[donor] -= k;
    planes[receiver] += k;
    plan.push_back(
        {static_cast<int>(donor), static_cast<int>(receiver), k});
  }
  return plan;
}

LocalMoves clamp_donor(long long net_left, long long net_right,
                       long long plane_cells, long long planes) {
  LocalMoves out{net_left, net_right, 0, 0};
  if (net_left < 0)
    out.ship_left = -quantize_flow_to_planes(net_left, plane_cells, planes);
  if (net_right > 0)
    out.ship_right = quantize_flow_to_planes(net_right, plane_cells,
                                             planes - out.ship_left);
  return out;
}

LocalMoves settle_local(const Proposal& mine, long long from_left,
                        long long from_right, long long min_transfer_points,
                        long long plane_cells, long long planes) {
  return clamp_donor(
      resolve_pair(from_left, mine.to_left, min_transfer_points),
      resolve_pair(mine.to_right, from_right, min_transfer_points),
      plane_cells, planes);
}

}  // namespace slipflow::balance
