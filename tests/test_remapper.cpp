// NodeBalancer (per-point normalized prediction, the cost gate, the
// global plan) and the plane quantization / boundary flow / donor clamp
// helpers: the one remap round both runners call.

#include <gtest/gtest.h>

#include "balance/remapper.hpp"

using namespace slipflow::balance;

namespace {

NodeBalancer make_balancer(const char* policy = "filtered", int window = 5) {
  BalanceConfig cfg;
  cfg.window = window;
  cfg.min_transfer_points = 100;
  return NodeBalancer(cfg, RemapPolicy::create(policy));
}

}  // namespace

TEST(NodeBalancer, ReadyAfterWindowFills) {
  auto b = make_balancer();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(b.ready());
    b.record_phase(1.0, 1000);
  }
  b.record_phase(1.0, 1000);
  EXPECT_TRUE(b.ready());
}

TEST(NodeBalancer, PredictionScalesWithPoints) {
  auto b = make_balancer();
  for (int i = 0; i < 5; ++i) b.record_phase(2.0, 1000);
  EXPECT_NEAR(b.predicted_time(1000), 2.0, 1e-12);
  // per-point normalization: migrating half the points halves the
  // prediction without invalidating the window
  EXPECT_NEAR(b.predicted_time(500), 1.0, 1e-12);
  EXPECT_NEAR(b.predicted_time(2000), 4.0, 1e-12);
}

TEST(NodeBalancer, MixedPointCountsStillConverge) {
  auto b = make_balancer();
  // same per-point speed at different owned sizes
  b.record_phase(1.0, 1000);
  b.record_phase(2.0, 2000);
  b.record_phase(0.5, 500);
  b.record_phase(1.0, 1000);
  b.record_phase(3.0, 3000);
  EXPECT_NEAR(b.predicted_time(1000), 1.0, 1e-12);
}

TEST(NodeBalancer, DecideBeforeReadyIsNoop) {
  auto b = make_balancer();
  b.record_phase(1.0, 1000);
  const auto prop = b.decide(NodeLoad{1000, 0.1}, 1000, NodeLoad{1000, 0.1});
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_EQ(prop.to_right, 0);
}

TEST(NodeBalancer, SlowNodeDecidesToShed) {
  auto b = make_balancer("filtered");
  for (int i = 0; i < 5; ++i) b.record_phase(3.0, 1000);  // slow: 333 pts/s
  // neighbors are 3x faster
  const auto prop = b.decide(NodeLoad{1000, 1.0}, 1000, NodeLoad{1000, 1.0});
  EXPECT_GT(prop.to_left + prop.to_right, 0);
}

TEST(NodeBalancer, SelfLoadReflectsPrediction) {
  auto b = make_balancer();
  for (int i = 0; i < 5; ++i) b.record_phase(1.5, 3000);
  const auto l = b.self_load(3000);
  EXPECT_DOUBLE_EQ(l.points, 3000.0);
  EXPECT_NEAR(l.predicted_time, 1.5, 1e-12);
}

TEST(NodeBalancer, RejectsBadInput) {
  auto b = make_balancer();
  EXPECT_THROW(b.record_phase(0.0, 100), slipflow::contract_error);
  EXPECT_THROW(b.record_phase(1.0, 0), slipflow::contract_error);
}

TEST(Quantize, RoundsToNearestPlane) {
  EXPECT_EQ(quantize_flow_to_planes(3900, 4000, 10), 1);
  EXPECT_EQ(quantize_flow_to_planes(1900, 4000, 10), 0);
  EXPECT_EQ(quantize_flow_to_planes(6001, 4000, 10), 2);
}

TEST(Quantize, PreservesSign) {
  EXPECT_EQ(quantize_flow_to_planes(-8000, 4000, 10), -2);
  EXPECT_EQ(quantize_flow_to_planes(-1000, 4000, 10), 0);
}

TEST(Quantize, DonorKeepsMinimumPlanes) {
  EXPECT_EQ(quantize_flow_to_planes(40000, 4000, 3), 2);
  EXPECT_EQ(quantize_flow_to_planes(40000, 4000, 1), 0);
  EXPECT_EQ(quantize_flow_to_planes(-40000, 4000, 2, 2), 0);
}

TEST(Quantize, ExactPlaneMultiples) {
  EXPECT_EQ(quantize_flow_to_planes(8000, 4000, 100), 2);
}

TEST(BoundaryFlows, TelescopeOfImbalance) {
  // node 0 has 100 too many, node 2 has 100 too few: everything flows
  // rightward through node 1.
  const std::vector<long long> cur{300, 200, 100};
  const std::vector<long long> tgt{200, 200, 200};
  const auto f = boundary_flows(cur, tgt);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0], 100);
  EXPECT_EQ(f[1], 100);
}

TEST(BoundaryFlows, NegativeMeansLeftward) {
  const std::vector<long long> cur{100, 200, 300};
  const std::vector<long long> tgt{200, 200, 200};
  const auto f = boundary_flows(cur, tgt);
  EXPECT_EQ(f[0], -100);
  EXPECT_EQ(f[1], -100);
}

TEST(BoundaryFlows, BalancedMeansNoFlow) {
  const std::vector<long long> cur{5, 5, 5, 5};
  const auto f = boundary_flows(cur, cur);
  for (long long v : f) EXPECT_EQ(v, 0);
}

TEST(BoundaryFlows, SizesMustMatch) {
  EXPECT_THROW(boundary_flows({1, 2}, {1}), slipflow::contract_error);
}

TEST(BoundaryFlows, ConservesAcrossExecution) {
  // executing the flows exactly turns current into target
  const std::vector<long long> cur{700, 100, 100, 100};
  const std::vector<long long> tgt{250, 250, 250, 250};
  const auto f = boundary_flows(cur, tgt);
  std::vector<long long> state = cur;
  for (std::size_t b = 0; b < f.size(); ++b) {
    state[b] -= f[b];
    state[b + 1] += f[b];
  }
  EXPECT_EQ(state, tgt);
}

// --- the migration cost gate ---

namespace {

/// A balancer whose full window measured `seconds` per phase at `points`.
NodeBalancer primed(const char* policy, double seconds, long long points) {
  auto b = make_balancer(policy);
  for (int i = 0; i < 5; ++i) b.record_phase(seconds, points);
  return b;
}

}  // namespace

TEST(CostGate, PredictedSavingOfOneTransfer) {
  const NodeLoad loads[2] = {{2000, 4.0}, {2000, 1.0}};
  // donor sheds 1000 points: t_d 4 -> 2, receiver 1 -> 1.5
  const double after[2] = {1000, 3000};
  EXPECT_DOUBLE_EQ(predicted_saving(loads, after), 4.0 - 2.0);
  // shipping from the faster node only makes the phase longer
  const double backwards[2] = {3000, 1000};
  EXPECT_LT(predicted_saving(loads, backwards), 0.0);
}

TEST(CostGate, PredictedSavingIsSetByTheSlowestNode) {
  const NodeLoad loads[3] = {{100, 1.0}, {100, 3.0}, {100, 2.0}};
  const double after[3] = {150, 50, 100};  // slowest is now node 2 at 2.0
  EXPECT_DOUBLE_EQ(predicted_saving(loads, after), 3.0 - 2.0);
}

TEST(CostGate, ZeroCostAlwaysPays) {
  for (const double saving : {-1.0, 0.0, 1e-12, 5.0})
    EXPECT_TRUE(pays_for_itself(saving, MigrationCost{0.0, 5}));
  EXPECT_FALSE(pays_for_itself(0.1, MigrationCost{0.5, 5}));  // 0.5 !> 0.5
  EXPECT_TRUE(pays_for_itself(0.11, MigrationCost{0.5, 5}));
}

TEST(CostGate, NoiseLevelGapThatCostsMoreThanItSavesIsDropped) {
  // 20% slower than both neighbors on 0.3 ms phases: the filtered policy
  // alone ships ~1 plane each way, saving ~25 us per phase — 0.13 ms
  // over a 5-phase interval, well under a 0.8 ms plan rebuild.
  const auto b = primed("filtered", 0.36e-3, 2048);
  const NodeLoad nb{2048, 0.30e-3};
  const Proposal free = b.decide(nb, 2048, nb);
  ASSERT_GT(free.to_left, 0);
  ASSERT_GT(free.to_right, 0);
  const Proposal gated = b.decide(nb, 2048, nb, MigrationCost{0.8e-3, 5});
  EXPECT_EQ(gated.to_left, 0);
  EXPECT_EQ(gated.to_right, 0);
  EXPECT_EQ(gated.left_why, Suppressed::cost);
  EXPECT_EQ(gated.right_why, Suppressed::cost);
}

TEST(CostGate, FourTimesSlowNodeStillSheds) {
  const auto b = primed("filtered", 1.2e-3, 2048);
  const NodeLoad nb{2048, 0.30e-3};
  const Proposal free = b.decide(nb, 2048, nb);
  const Proposal gated = b.decide(nb, 2048, nb, MigrationCost{0.8e-3, 5});
  EXPECT_GT(gated.to_left + gated.to_right, 0);
  EXPECT_EQ(gated.to_left, free.to_left);
  EXPECT_EQ(gated.to_right, free.to_right);
  EXPECT_EQ(gated.left_why, Suppressed::none);
  EXPECT_EQ(gated.right_why, Suppressed::none);
}

TEST(CostGate, TheReceiversCostIsChargedToo) {
  // the 4x slow node pays for its own 0.8 ms, but not for a neighbor
  // whose last migration took 20 ms
  const auto b = primed("filtered", 1.2e-3, 2048);
  const NodeLoad cheap{2048, 0.30e-3, 0.8e-3};
  const NodeLoad dear{2048, 0.30e-3, 20e-3};
  const MigrationCost mine{0.8e-3, 5};
  EXPECT_GT(b.decide(cheap, 2048, std::nullopt, mine).to_left, 0);
  const Proposal p = b.decide(dear, 2048, std::nullopt, mine);
  EXPECT_EQ(p.to_left, 0);
  EXPECT_EQ(p.left_why, Suppressed::cost);
  // a proposal to both sides is one migration, charged the dearer end
  const Proposal both = b.decide(dear, 2048, cheap, mine);
  EXPECT_EQ(both.to_left + both.to_right, 0);
}

TEST(CostGate, ZeroCostProposalsMatchThePolicyForEveryLocalScheme) {
  for (const char* name : {"conservative", "filtered"}) {
    for (int rep = 0; rep < 200; ++rep) {
      // deterministic spread of speeds and sizes around the balance point
      const double t_me = 0.2e-3 + 1e-5 * rep;
      const long long n_me = 1000 + 37 * rep;
      const auto b = primed(name, t_me, n_me);
      const NodeLoad l{1500.0 + 11 * rep, 0.3e-3};
      const NodeLoad r{800.0 + 23 * (rep % 17), 0.25e-3 + 2e-6 * rep};
      const Proposal want =
          b.policy().decide(l, b.self_load(n_me), r, b.config());
      const Proposal got = b.decide(l, n_me, r, MigrationCost{0.0, 5});
      EXPECT_EQ(got.to_left, want.to_left) << name << " rep " << rep;
      EXPECT_EQ(got.to_right, want.to_right) << name << " rep " << rep;
    }
  }
}

TEST(PlanTransfers, MatchesBoundaryOrderClampedExecution) {
  // 4 nodes, 10-point planes: node 0 is over target, node 3 under.
  const std::vector<long long> cur{400, 100, 100, 100};
  const std::vector<long long> tgt{100, 200, 200, 200};
  std::vector<long long> planes{40, 10, 10, 10};
  const auto plan =
      plan_transfers(boundary_flows(cur, tgt), 10, 15, planes);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].donor, 0);
  EXPECT_EQ(plan[0].receiver, 1);
  EXPECT_EQ(plan[0].planes, 30);
  EXPECT_EQ(plan[2].receiver, 3);
  EXPECT_EQ(plan[2].planes, 10);
  EXPECT_EQ(planes, (std::vector<long long>{10, 20, 20, 20}));
}

TEST(PlanTransfers, SkipsSubThresholdFlowsAndClampsDonors) {
  std::vector<long long> planes{2, 5, 5};
  // boundary 0: 5 points, below the 10-point threshold; boundary 1:
  // node 2 would give 9 planes but must keep one
  const auto plan = plan_transfers({5, -90}, 10, 10, planes);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].donor, 2);
  EXPECT_EQ(plan[0].receiver, 1);
  EXPECT_EQ(plan[0].planes, 4);
  EXPECT_EQ(planes, (std::vector<long long>{2, 9, 1}));
}

// --- one remap round: the steps both runners call ---

TEST(CostGate, ShipsOnlyAfterPayingAtTwoChecks) {
  auto b = primed("filtered", 1.2e-3, 2048);  // 4x slower than both sides
  const NodeLoad nb{2048, 0.30e-3};
  const MigrationCost cheap{0.8e-3, 5};
  const Proposal want = b.decide(nb, 2048, nb, cheap);
  ASSERT_GT(want.to_left + want.to_right, 0);

  // pays at the first check, but did not pay at the one before
  const Proposal first = b.propose(nb, 2048, nb, cheap);
  EXPECT_EQ(first.to_left + first.to_right, 0);
  EXPECT_EQ(first.left_why, Suppressed::cost);
  EXPECT_EQ(first.right_why, Suppressed::cost);
  // pays twice in a row: ships what the saving gate passed
  const Proposal second = b.propose(nb, 2048, nb, cheap);
  EXPECT_EQ(second.to_left, want.to_left);
  EXPECT_EQ(second.to_right, want.to_right);
  EXPECT_EQ(second.left_why, Suppressed::none);
  // a check that does not pay resets the streak
  const Proposal dear = b.propose(nb, 2048, nb, MigrationCost{1.0, 5});
  EXPECT_EQ(dear.to_left + dear.to_right, 0);
  const Proposal again = b.propose(nb, 2048, nb, cheap);
  EXPECT_EQ(again.to_left + again.to_right, 0);
  EXPECT_EQ(again.left_why, Suppressed::cost);
  EXPECT_EQ(b.propose(nb, 2048, nb, cheap).to_left, want.to_left);
}

TEST(CostGate, ZeroCostDisablesPersistence) {
  // the virtual cluster's contract: no measured cost, no gate at all
  auto b = primed("filtered", 0.36e-3, 2048);
  const NodeLoad nb{2048, 0.30e-3};
  const Proposal want = b.decide(nb, 2048, nb);
  ASSERT_GT(want.to_left + want.to_right, 0);
  const Proposal first = b.propose(nb, 2048, nb);
  EXPECT_EQ(first.to_left, want.to_left);
  EXPECT_EQ(first.to_right, want.to_right);
  EXPECT_EQ(first.left_why, Suppressed::none);
}

TEST(CostGate, GlobalPlanShipsOnlyAfterPayingAtTwoChecks) {
  auto b = make_balancer("global");
  // node 1 is 4x slow; 100-point planes, 10 planes each
  const std::vector<std::optional<NodeLoad>> loads{
      NodeLoad{1000, 1e-3, 1e-4}, NodeLoad{1000, 4e-3, 1e-4},
      NodeLoad{1000, 1e-3, 1e-4}};
  const GlobalPlan first = b.plan_global(loads, 100, 10);
  EXPECT_TRUE(first.transfers.empty());
  ASSERT_FALSE(first.suppressed.empty());
  for (const auto& [donor, why] : first.suppressed) {
    EXPECT_EQ(donor, 1);
    EXPECT_EQ(why, Suppressed::cost);
  }
  const GlobalPlan second = b.plan_global(loads, 100, 10);
  ASSERT_EQ(second.transfers.size(), 2u);
  for (const Transfer& tr : second.transfers) EXPECT_EQ(tr.donor, 1);
  // an executed plan must pass twice afresh
  EXPECT_TRUE(b.plan_global(loads, 100, 10).transfers.empty());
  // nothing is planned until every window is full, at zero cost too
  std::vector<std::optional<NodeLoad>> waiting{
      NodeLoad{1000, 1e-3}, std::nullopt, NodeLoad{1000, 1e-3}};
  const GlobalPlan none = b.plan_global(waiting, 100);
  EXPECT_TRUE(none.transfers.empty());
  EXPECT_TRUE(none.suppressed.empty());
}

TEST(DonorClamp, LeftBoundaryFirst) {
  // 10 planes of 100 points, asked for 10 planes left and 5 right: the
  // left boundary takes all but the one plane the donor keeps
  const LocalMoves s = clamp_donor(-1000, 500, 100, 10);
  EXPECT_EQ(s.ship_left, 9);
  EXPECT_EQ(s.ship_right, 0);
  // flows into the node ship nothing; the drain is clamped alone
  const LocalMoves right_only = clamp_donor(300, 500, 100, 10);
  EXPECT_EQ(right_only.ship_left, 0);
  EXPECT_EQ(right_only.ship_right, 5);
}

TEST(DonorClamp, SettleAgreesOnBothBoundaries) {
  // this node proposes 700 left and 200 right; its left neighbor
  // proposes 300 toward it, its right neighbor 900
  Proposal mine;
  mine.to_left = 700;
  mine.to_right = 200;
  const LocalMoves mv = settle_local(mine, 300, 900, 100, 100, 10);
  EXPECT_EQ(mv.net_left, -400);   // ships 4 planes left
  EXPECT_EQ(mv.net_right, -700);  // receives from the right
  EXPECT_EQ(mv.ship_left, 4);
  EXPECT_EQ(mv.ship_right, 0);
  // the threshold is re-applied to each net
  const LocalMoves small = settle_local(mine, 650, 150, 100, 100, 10);
  EXPECT_EQ(small.net_left, 0);
  EXPECT_EQ(small.net_right, 0);
}
