// Virtual-cluster simulator: closed-form dedicated behavior, the ripple
// effect, plane conservation, and the qualitative policy ordering the
// paper reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "cluster/cluster_sim.hpp"
#include "cluster/load_generator.hpp"
#include "cluster/scenario.hpp"

using namespace slipflow::cluster;
using slipflow::balance::RemapPolicy;

namespace {

ClusterConfig small_config(int nodes = 4) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.planes_total = 40;
  cfg.plane_cells = 100;
  cfg.cost_per_point = 1e-4;  // 1 plane = 10 ms of work
  cfg.balance.min_transfer_points = 100;  // one plane
  cfg.balance.window = 5;
  cfg.remap_interval = 5;
  return cfg;
}

ClusterConfig free_network(ClusterConfig cfg) {
  cfg.net.latency = 0.0;
  cfg.net.bandwidth = 1e18;
  cfg.net.msg_cpu = 0.0;
  cfg.net.sched_quantum = 0.0;
  return cfg;
}

long long planes_sum(const SimResult& r) {
  long long s = 0;
  for (const auto& p : r.profile) s += p.planes_end;
  return s;
}

}  // namespace

TEST(EvenPlanes, SplitsWithRemainderToLowRanks) {
  const auto p = ClusterSim::even_planes(10, 4);
  EXPECT_EQ(p, (std::vector<long long>{3, 3, 2, 2}));
  const auto q = ClusterSim::even_planes(8, 4);
  EXPECT_EQ(q, (std::vector<long long>{2, 2, 2, 2}));
}

TEST(ClusterSim, SequentialTimeClosedForm) {
  ClusterSim sim(small_config(), RemapPolicy::create("none"));
  // 40 planes * 100 cells * 1e-4 s = 0.4 s per phase
  EXPECT_NEAR(sim.sequential_time(10), 4.0, 1e-12);
}

TEST(ClusterSim, DedicatedFreeNetworkIsExact) {
  ClusterSim sim(free_network(small_config()), RemapPolicy::create("none"));
  const auto r = sim.run(10);
  // each node: 10 planes * 100 cells * 1e-4 = 0.1 s per phase
  EXPECT_NEAR(r.makespan, 1.0, 1e-9);
  for (const auto& p : r.profile) {
    EXPECT_NEAR(p.compute, 1.0, 1e-9);
    EXPECT_NEAR(p.comm, 0.0, 1e-12);
    EXPECT_EQ(p.planes_end, 10);
  }
}

TEST(ClusterSim, PerfectSpeedupWithFreeNetwork) {
  ClusterSim sim(free_network(small_config(4)), RemapPolicy::create("none"));
  const auto r = sim.run(20);
  EXPECT_NEAR(sim.sequential_time(20) / r.makespan, 4.0, 1e-6);
}

TEST(ClusterSim, NetworkCostsAppearInCommProfile) {
  ClusterSim sim(small_config(), RemapPolicy::create("none"));
  const auto r = sim.run(10);
  for (const auto& p : r.profile) EXPECT_GT(p.comm, 0.0);
  EXPECT_GT(r.makespan, 1.0);
}

TEST(ClusterSim, SlowNodeDragsEveryoneWithoutRemapping) {
  auto cfg = free_network(small_config());
  ClusterSim sim(cfg, RemapPolicy::create("none"));
  sim.node(1).add_load(std::make_unique<PersistentLoad>(2.0));
  const auto r = sim.run(20);
  // the slow node computes at 1/3 speed; with per-phase synchronization
  // the makespan approaches 3x the dedicated time
  EXPECT_GT(r.makespan, 2.5 * 2.0);
  EXPECT_LT(r.makespan, 3.2 * 2.0);
}

TEST(ClusterSim, RippleSpreadsOneHopPerExchange) {
  // with free network the *first phase* already synchronizes direct
  // neighbors to the slow node (2 exchanges/phase -> distance <= 2), but
  // distant nodes lag behind: node 0 in an 8-node chain with slow node 7
  // is unaffected after one phase.
  auto cfg = free_network(small_config(8));
  cfg.planes_total = 80;
  ClusterSim a(cfg, RemapPolicy::create("none"));
  a.node(7).add_load(std::make_unique<PersistentLoad>(2.0));
  const auto r1 = a.run(1);
  // per-phase dedicated work is 0.1 s; node 0's clock must still be ~0.1
  EXPECT_NEAR(r1.profile[0].compute + r1.profile[0].comm, 0.1, 1e-6);

  // after many phases everyone is dragged to the slow node's pace
  ClusterSim b(cfg, RemapPolicy::create("none"));
  b.node(7).add_load(std::make_unique<PersistentLoad>(2.0));
  const auto r20 = b.run(20);
  EXPECT_GT(r20.makespan, 0.27 * 20);  // ~3x of 0.1 per phase
}

TEST(ClusterSim, FilteredRemappingDrainsTheSlowNode) {
  ClusterSim sim(small_config(), RemapPolicy::create("filtered"));
  sim.node(1).add_load(std::make_unique<PersistentLoad>(2.0));
  const auto r = sim.run(100);
  EXPECT_GT(r.migration_events, 0);
  // slow node ends with (much) fewer planes than the even split
  EXPECT_LT(r.profile[1].planes_end, 6);
  EXPECT_EQ(planes_sum(r), 40);
}

TEST(ClusterSim, NoMigrationsInDedicatedCluster) {
  ClusterSim sim(small_config(), RemapPolicy::create("filtered"));
  const auto r = sim.run(100);
  EXPECT_EQ(r.migration_events, 0);
  for (const auto& p : r.profile) EXPECT_EQ(p.planes_end, 10);
}

TEST(ClusterSim, PolicyOrderingWithOneSlowNode) {
  // the paper's headline (Figures 9/10): filtered < conservative <
  // no-remapping in execution time.
  auto run_policy = [&](const char* name) {
    ClusterSim sim(small_config(), RemapPolicy::create(name));
    sim.node(1).add_load(std::make_unique<PersistentLoad>(2.0));
    return sim.run(200).makespan;
  };
  const double none = run_policy("none");
  const double cons = run_policy("conservative");
  const double filt = run_policy("filtered");
  EXPECT_LT(filt, cons);
  EXPECT_LT(cons, none);
}

TEST(ClusterSim, FilteredBeatsNoneByALot) {
  auto cfg = small_config();
  ClusterSim none(cfg, RemapPolicy::create("none"));
  none.node(2).add_load(std::make_unique<PersistentLoad>(2.0));
  ClusterSim filt(cfg, RemapPolicy::create("filtered"));
  filt.node(2).add_load(std::make_unique<PersistentLoad>(2.0));
  const double tn = none.run(200).makespan;
  const double tf = filt.run(200).makespan;
  EXPECT_LT(tf, 0.7 * tn);
}

TEST(ClusterSim, GlobalPolicyMovesPlanesProportionally) {
  ClusterSim sim(small_config(), RemapPolicy::create("global"));
  sim.node(0).add_load(std::make_unique<PersistentLoad>(2.0));
  const auto r = sim.run(100);
  EXPECT_GT(r.migration_events, 0);
  EXPECT_EQ(planes_sum(r), 40);
  // slow node converges near its proportional share: 40 * (1/3)/(3+1/3)
  EXPECT_LT(r.profile[0].planes_end, 8);
  EXPECT_GE(r.profile[0].planes_end, 1);
}

TEST(ClusterSim, PlanesConservedUnderEveryPolicy) {
  for (const char* name : {"none", "conservative", "filtered", "global"}) {
    ClusterSim sim(small_config(5), RemapPolicy::create(name));
    sim.node(3).add_load(std::make_unique<PersistentLoad>(2.0));
    sim.node(1).add_load(std::make_unique<PeriodicLoad>(1.0, 5.0, 0.5));
    const auto r = sim.run(150);
    EXPECT_EQ(planes_sum(r), 40) << name;
    for (const auto& p : r.profile) EXPECT_GE(p.planes_end, 1) << name;
  }
}

TEST(ClusterSim, ProfileAccountsForMigratedPlanes) {
  ClusterSim sim(small_config(), RemapPolicy::create("filtered"));
  sim.node(1).add_load(std::make_unique<PersistentLoad>(2.0));
  const auto r = sim.run(100);
  long long sent = 0, recv = 0;
  for (const auto& p : r.profile) {
    sent += p.planes_sent;
    recv += p.planes_received;
  }
  EXPECT_EQ(sent, recv);
  EXPECT_EQ(sent, r.planes_moved);
}

TEST(ClusterSim, LazyRemappingIgnoresOneShortSpike) {
  auto cfg = small_config();
  ClusterSim sim(cfg, RemapPolicy::create("filtered"));
  // a single 0.2 s spike early on; the harmonic window must swallow it
  sim.node(1).add_load(std::make_unique<IntervalLoad>(
      2.0, std::vector<IntervalLoad::Interval>{{0.5, 0.7}}));
  const auto r = sim.run(100);
  EXPECT_EQ(r.migration_events, 0);
}

TEST(ClusterSim, SingleNodeDegenerates) {
  auto cfg = small_config(1);
  cfg.planes_total = 10;
  ClusterSim sim(free_network(cfg), RemapPolicy::create("filtered"));
  const auto r = sim.run(10);
  EXPECT_NEAR(r.makespan, 10 * 10 * 100 * 1e-4, 1e-9);
  EXPECT_EQ(r.migration_events, 0);
}

TEST(ClusterSim, ValidatesConfig) {
  ClusterConfig bad = small_config();
  bad.planes_total = 2;  // fewer planes than nodes
  EXPECT_THROW(ClusterSim(bad, RemapPolicy::create("none")),
               slipflow::contract_error);
  ClusterConfig bad2 = small_config();
  bad2.stage_fraction = {0.5, 0.5, 0.5};
  EXPECT_THROW(ClusterSim(bad2, RemapPolicy::create("none")),
               slipflow::contract_error);
}

// Canary for shared balance code: the paper's 20-node Figure 9 scenario
// (node 9 under the 70%-CPU job, 600 phases) must keep its exact virtual
// makespan and plane traffic per scheme. Changes to the policies, the
// predictors or the NodeBalancer that shift the paper reproduction by
// even one ulp fail here.
TEST(ClusterSim, Fig09VirtualResultsArePinned) {
  struct Golden {
    const char* policy;
    bool slow_node;
    double makespan;
    long long planes_moved;
  };
  const Golden golden[] = {
      {"none", false, 0x1.ebdb22d0e56bdp+7, 0},        // 245.928 s
      {"none", true, 0x1.69ccccccccbe6p+9, 0},         // 723.600 s
      {"conservative", true, 0x1.7bd927913e6dbp+8, 16},  // 379.848 s
      {"filtered", true, 0x1.32223f67f4ce7p+8, 49},      // 306.134 s
  };
  for (const Golden& g : golden) {
    ClusterSim sim(paper::base_config(), RemapPolicy::create(g.policy));
    if (g.slow_node) add_fixed_slow_nodes(sim, {paper::kProfiledSlowNode});
    const auto r = sim.run(paper::kShortPhases);
    EXPECT_EQ(r.makespan, g.makespan) << g.policy;
    EXPECT_EQ(r.planes_moved, g.planes_moved) << g.policy;
  }
}

// Canary for the donor clamp: fig09's one slow node never receives and
// ships in the same check, but under trace-driven load on every node a
// donor does. Pins seed 1 of ablation_trace_replay's 10 s-episode
// filtered run (600 phases, busy fraction 0.25) bit for bit.
TEST(ClusterSim, TraceReplayFilteredIsPinned) {
  const int phases = paper::kShortPhases;
  const double episode_s = 10.0;
  ClusterSim base(paper::base_config(), RemapPolicy::create("none"));
  const double horizon = 8.0 * base.run(phases).makespan;
  ClusterSim sim(paper::base_config(), RemapPolicy::create("filtered"));
  slipflow::util::Rng rng(1 * 7919 + static_cast<std::uint64_t>(episode_s));
  for (int node = 0; node < paper::kNodes; ++node)
    sim.node(node).add_load(std::make_unique<TraceLoad>(synthetic_trace(
        horizon, 2.0, rng, 0.25, 1.5, std::min(1.0, 2.0 / episode_s * 2.0))));
  const auto r = sim.run(phases);
  EXPECT_EQ(r.makespan, 0x1.9c6df36b770bep+9);  // 824.859 s
  EXPECT_EQ(r.planes_moved, 6005);
}
