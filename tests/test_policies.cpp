// Remapping policies (Section 3): triplet balance algebra, the lazy
// filters (threshold, never fast-to-slow), over-redistribution scaling,
// conflict resolution and the global proportional assignment.

#include <gtest/gtest.h>

#include <numeric>

#include "balance/policy.hpp"

using namespace slipflow::balance;

namespace {

BalanceConfig cfg(long long min_transfer = 1000) {
  BalanceConfig c;
  c.min_transfer_points = min_transfer;
  return c;
}

NodeLoad load(double points, double time) { return {points, time}; }

}  // namespace

TEST(TripletTargets, EqualSpeedsSplitEvenly) {
  const auto t = triplet_targets(load(100, 1.0), load(200, 2.0),
                                 load(300, 3.0));
  // all speeds are 100 pts/s -> each target = total/3
  EXPECT_NEAR(t.left, 200.0, 1e-9);
  EXPECT_NEAR(t.me, 200.0, 1e-9);
  EXPECT_NEAR(t.right, 200.0, 1e-9);
}

TEST(TripletTargets, ProportionalToSpeed) {
  // speeds 100, 50, 50 -> shares 1/2, 1/4, 1/4 of 400 points
  const auto t = triplet_targets(load(100, 1.0), load(100, 2.0),
                                 load(200, 4.0));
  EXPECT_NEAR(t.left, 200.0, 1e-9);
  EXPECT_NEAR(t.me, 100.0, 1e-9);
  EXPECT_NEAR(t.right, 100.0, 1e-9);
}

TEST(TripletTargets, PreservesTotal) {
  const auto t = triplet_targets(load(123, 0.7), load(456, 1.3),
                                 load(789, 2.9));
  EXPECT_NEAR(t.left + t.me + t.right, 123 + 456 + 789, 1e-6);
}

TEST(TripletTargets, EqualTimeAfterRemap) {
  // the defining property: n'_j / S_j identical for all three
  const NodeLoad a = load(100, 1.0), b = load(300, 1.5), c = load(150, 0.6);
  const auto t = triplet_targets(a, b, c);
  const double ta = t.left / a.speed();
  const double tb = t.me / b.speed();
  const double tc = t.right / c.speed();
  EXPECT_NEAR(ta, tb, 1e-9);
  EXPECT_NEAR(tb, tc, 1e-9);
}

TEST(ResolvePair, NetsOpposingProposals) {
  EXPECT_EQ(resolve_pair(5000, 1000, 1000), 4000);
  EXPECT_EQ(resolve_pair(1000, 5000, 1000), -4000);
}

TEST(ResolvePair, ThresholdSuppressesSmallNets) {
  EXPECT_EQ(resolve_pair(3000, 2500, 1000), 0);
  EXPECT_EQ(resolve_pair(0, 0, 1000), 0);
}

TEST(ResolvePair, ExactThresholdPasses) {
  EXPECT_EQ(resolve_pair(1000, 0, 1000), 1000);
}

TEST(ResolvePair, RejectsNegativeProposals) {
  EXPECT_THROW(resolve_pair(-1, 0, 10), slipflow::contract_error);
}

TEST(NoRemap, NeverProposes) {
  NoRemapPolicy p;
  const auto prop = p.decide(load(10, 10.0), load(10000, 1.0),
                             load(10, 10.0), cfg());
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_EQ(prop.to_right, 0);
}

TEST(Conservative, BalancedTripletProposesNothing) {
  ConservativePolicy p;
  const auto prop =
      p.decide(load(1000, 1.0), load(1000, 1.0), load(1000, 1.0), cfg(10));
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_EQ(prop.to_right, 0);
}

TEST(Conservative, SlowNodeShedsHalfTheImbalance) {
  ConservativePolicy p;
  // me slow (speed 500), neighbors fast (speed 2000 each): targets are
  // 4500*2000/4500=2000 each side, 4500*500/4500=500 for me; delta per
  // side = 2000-1500=500; conservative ships half = 250.
  const auto prop = p.decide(load(1500, 0.75), load(1500, 3.0),
                             load(1500, 0.75), cfg(100));
  EXPECT_EQ(prop.to_left, 250);
  EXPECT_EQ(prop.to_right, 250);
}

TEST(Filtered, OverRedistributesBySpeedRatio) {
  FilteredPolicy p;
  // same setup: filtered scales delta by beta = S_recv/S_me = 4
  const auto prop = p.decide(load(1500, 0.75), load(1500, 3.0),
                             load(1500, 0.75), cfg(100));
  EXPECT_EQ(prop.to_left, prop.to_right);
  EXPECT_GT(prop.to_right, 4 * 250 - 600);  // beta*delta, minus clamping slack
  EXPECT_LE(prop.to_left + prop.to_right, 1500);  // never more than owned
}

TEST(Filtered, ShipsMoreThanConservative) {
  FilteredPolicy f;
  ConservativePolicy c;
  const auto pf = f.decide(load(1000, 0.5), load(1000, 2.0),
                           load(1000, 0.5), cfg(10));
  const auto pc = c.decide(load(1000, 0.5), load(1000, 2.0),
                           load(1000, 0.5), cfg(10));
  EXPECT_GT(pf.to_right, pc.to_right);
  EXPECT_GT(pf.to_left, pc.to_left);
}

TEST(Filtered, NeverMovesFromFastToSlow) {
  FilteredPolicy p;
  // I'm fast and overloaded; both neighbors are slow and nearly empty.
  // The lazy filter forbids feeding slow receivers (Section 3.3).
  const auto prop = p.decide(load(100, 10.0), load(10000, 1.0),
                             load(100, 10.0), cfg(10));
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_EQ(prop.to_right, 0);
}

TEST(Filtered, ThresholdSuppressesSmallMoves) {
  FilteredPolicy p;
  // imbalance of ~200 points against a 4000-point threshold
  const auto prop = p.decide(load(1100, 1.0), load(1300, 1.0),
                             load(1100, 1.0), cfg(4000));
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_EQ(prop.to_right, 0);
}

TEST(Filtered, WorksAtChainEnds) {
  FilteredPolicy p;
  // no left neighbor: 2-node balance with the right one
  const auto prop =
      p.decide(std::nullopt, load(2000, 4.0), load(2000, 1.0), cfg(100));
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_GT(prop.to_right, 0);
}

TEST(Filtered, CapLimitsAggression) {
  FilteredPolicy p;
  BalanceConfig c = cfg(10);
  c.over_redistribution_cap = 1.0;  // cap beta at 1 => ship exactly delta
  const auto prop = p.decide(load(1500, 0.75), load(1500, 3.0),
                             load(1500, 0.75), c);
  EXPECT_EQ(prop.to_right, 500);
}

TEST(Filtered, DeterministicAcrossCalls) {
  FilteredPolicy p;
  const auto a = p.decide(load(900, 0.9), load(1700, 2.1),
                          load(1100, 1.0), cfg(50));
  const auto b = p.decide(load(900, 0.9), load(1700, 2.1),
                          load(1100, 1.0), cfg(50));
  EXPECT_EQ(a.to_left, b.to_left);
  EXPECT_EQ(a.to_right, b.to_right);
}

TEST(Global, ProportionalAssignmentPreservesTotal) {
  GlobalPolicy p;
  const std::vector<NodeLoad> all = {load(400, 1.0), load(400, 2.0),
                                     load(400, 1.0), load(400, 4.0)};
  const auto target = p.decide_global(all, cfg());
  EXPECT_EQ(std::accumulate(target.begin(), target.end(), 0LL), 1600);
}

TEST(Global, FasterNodesGetMorePoints) {
  GlobalPolicy p;
  const std::vector<NodeLoad> all = {load(400, 1.0), load(400, 4.0)};
  const auto target = p.decide_global(all, cfg());
  // speeds 400 vs 100 -> 4:1 split of 800
  EXPECT_EQ(target[0], 640);
  EXPECT_EQ(target[1], 160);
}

TEST(Global, EveryNodeKeepsAtLeastOnePoint) {
  GlobalPolicy p;
  const std::vector<NodeLoad> all = {load(1000, 1.0), load(1000, 1e6)};
  const auto target = p.decide_global(all, cfg());
  EXPECT_GE(target[1], 1);
  EXPECT_EQ(target[0] + target[1], 2000);
}

TEST(Global, UniformLoadsStayPut) {
  GlobalPolicy p;
  const std::vector<NodeLoad> all(5, load(200, 1.0));
  const auto target = p.decide_global(all, cfg());
  for (long long t : target) EXPECT_EQ(t, 200);
}

TEST(Global, LocalDecisionRejected) {
  GlobalPolicy p;
  EXPECT_TRUE(p.global());
  EXPECT_THROW(p.decide(std::nullopt, load(1, 1), std::nullopt, cfg()),
               slipflow::contract_error);
}

TEST(Local, GlobalDecisionRejected) {
  FilteredPolicy p;
  EXPECT_FALSE(p.global());
  EXPECT_THROW(p.decide_global({load(1, 1)}, cfg()),
               slipflow::contract_error);
}

TEST(Factory, CreatesAllPolicies) {
  EXPECT_EQ(RemapPolicy::create("none")->name(), "none");
  EXPECT_EQ(RemapPolicy::create("conservative")->name(), "conservative");
  EXPECT_EQ(RemapPolicy::create("filtered")->name(), "filtered");
  EXPECT_EQ(RemapPolicy::create("global")->name(), "global");
  EXPECT_THROW(RemapPolicy::create("magic"), slipflow::contract_error);
}

class LocalPolicyParam : public ::testing::TestWithParam<const char*> {};

TEST_P(LocalPolicyParam, ProposalsNeverExceedOwnedPoints) {
  auto p = RemapPolicy::create(GetParam());
  for (double mine : {500.0, 2000.0, 9000.0}) {
    for (double t : {0.5, 2.0, 8.0}) {
      const auto prop = p->decide(load(1000, 0.5), load(mine, t),
                                  load(1000, 0.5), cfg(10));
      EXPECT_GE(prop.to_left, 0);
      EXPECT_GE(prop.to_right, 0);
      EXPECT_LE(prop.to_left + prop.to_right,
                static_cast<long long>(mine));
    }
  }
}

TEST_P(LocalPolicyParam, NoProposalWhenPerfectlyBalanced) {
  auto p = RemapPolicy::create(GetParam());
  const auto prop =
      p->decide(load(777, 1.11), load(777, 1.11), load(777, 1.11), cfg(10));
  EXPECT_EQ(prop.to_left, 0);
  EXPECT_EQ(prop.to_right, 0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, LocalPolicyParam,
                         ::testing::Values("none", "conservative",
                                           "filtered"));

TEST(SuppressionReasons, ThresholdAndFastToSlowAreNamed) {
  FilteredPolicy p;
  // a slightly faster neighbor whose share gain (~26 points) is under
  // the threshold
  const auto small = p.decide(load(1000, 0.95), load(1000, 1.0),
                              std::nullopt, cfg(300));
  EXPECT_EQ(small.to_left, 0);
  EXPECT_EQ(small.left_why, Suppressed::threshold);
  // a neighbor owed ~400 points by the triplet balance but slower than
  // this node (833 vs 1000 points/s)
  const auto slow = p.decide(std::nullopt, load(1000, 1.0),
                             load(100, 0.12), cfg(300));
  EXPECT_EQ(slow.to_right, 0);
  EXPECT_EQ(slow.right_why, Suppressed::fast_to_slow);
}

TEST(SuppressionReasons, NoneWhenBalanced) {
  FilteredPolicy p;
  // balanced triplet: nobody wants anything, nothing was suppressed
  const auto prop =
      p.decide(load(1000, 1.0), load(1000, 1.0), load(1000, 1.0), cfg(10));
  EXPECT_EQ(prop.left_why, Suppressed::none);
  EXPECT_EQ(prop.right_why, Suppressed::none);
}
