#pragma once
/// \file cluster_sim.hpp
/// Virtual-time simulation of the parallel LBM on a linear array of
/// cluster nodes — the substitution for the paper's 20-node testbed (see
/// DESIGN.md).
///
/// The simulator executes the exact phase structure of Figure 2 (three
/// compute stages separated by two neighbor halo exchanges, plus the
/// periodic remapping step) against a cost model: compute time is points
/// x per-point cost divided by the node's CPU share (integrated exactly
/// across background-job on/off breakpoints), and message costs are
/// latency + share-scaled transfer + the OS wake-up lag of loaded nodes.
/// Neighbor synchronization is by message arrival, so the paper's ripple
/// effect — a slow node delaying nodes k hops away after k exchanges —
/// emerges rather than being assumed.
///
/// Every remapping decision comes from the balance:: steps the real
/// runner (over thread, socket and shm transports) calls; only the
/// transport differs, charged here in virtual time.

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "balance/remapper.hpp"
#include "cluster/network.hpp"
#include "cluster/virtual_node.hpp"
#include "obs/metrics.hpp"

namespace slipflow::cluster {

struct ClusterConfig {
  int nodes = 20;
  /// Global domain planes along x and cells per yz-plane
  /// (paper: 400 x (200*20)).
  long long planes_total = 400;
  long long plane_cells = 200 * 20;
  /// Dedicated-CPU seconds per lattice point per phase on the reference
  /// node. The paper's timings give 43.56 h / (20000 phases * 1.6e6
  /// points) = 4.9 us.
  double cost_per_point = 4.9e-6;
  /// Split of the per-point cost across the three compute stages of a
  /// phase: collide | stream+bounce-back+density | forces+velocity.
  std::array<double, 3> stage_fraction{0.35, 0.30, 0.35};
  /// Message sizes per plane cell: f-halo carries 5 crossing directions
  /// per component, the density halo one scalar per component. Migration
  /// models the paper's per-component record (19 + 1 + 3 doubles per
  /// component), not the real runner's plane record, which also carries
  /// the 4 mixture doubles; the paper figures are calibrated on this.
  double f_halo_bytes_per_cell = 2 * 5 * 8.0;
  double density_halo_bytes_per_cell = 2 * 8.0;
  double migration_bytes_per_cell = 2 * 23 * 8.0;
  NetworkParams net;
  /// Phases between remapping checks (Figure 2's REMAPPING_INTERVAL).
  int remap_interval = 10;
  balance::BalanceConfig balance;

  long long total_points() const { return planes_total * plane_cells; }

  void validate() const;
};

/// Per-node cost breakdown over a run — the data behind Figure 9.
struct NodeProfile {
  double compute = 0.0;  ///< time spent executing the three stages
  double comm = 0.0;     ///< halo-exchange time: packing + waiting
  double remap = 0.0;    ///< load-index exchange + plane migration time
  long long planes_end = 0;
  long long planes_sent = 0;
  long long planes_received = 0;
};

struct SimResult {
  double makespan = 0.0;  ///< wall time until the last node finishes
  std::vector<NodeProfile> profile;
  long long migration_events = 0;  ///< boundary transfers executed
  long long planes_moved = 0;
};

class ClusterSim {
 public:
  ClusterSim(ClusterConfig cfg,
             std::shared_ptr<const balance::RemapPolicy> policy);

  /// Mutable access to a node to attach background loads / set speed.
  VirtualNode& node(int i);

  const ClusterConfig& config() const { return cfg_; }

  /// Attach a metrics sink (one shard per node, ranks() >= nodes).
  /// run() then records every stage / halo / remap span in *virtual*
  /// seconds — deterministically, so identical runs export identical
  /// bytes — using the same stage names as the real runner
  /// (see DESIGN.md "Observability"). Metrics accumulate across run()
  /// calls; pass nullptr to detach.
  void attach_metrics(obs::MetricsRegistry* metrics);

  /// Simulate `phases` LBM phases from virtual time 0.
  SimResult run(int phases);

  /// Wall time of the same problem on one dedicated reference node — the
  /// numerator of the paper's speedup.
  double sequential_time(int phases) const;

  /// The initial static decomposition: planes split as evenly as possible
  /// (remainder to the lowest ranks), as in the paper's slice
  /// decomposition.
  static std::vector<long long> even_planes(long long total, int nodes);

 private:
  void exchange(std::vector<double>& t, double bytes_per_cell,
                std::vector<NodeProfile>& prof, const char* span_name);
  void span(int node, const char* name, double begin, double end);
  void count(int node, const char* name, double delta);
  /// Every node's load at a remap check; nullopt until its window fills.
  using Loads = std::vector<std::optional<balance::NodeLoad>>;
  void remap_local(std::vector<double>& t, std::vector<long long>& planes,
                   std::vector<balance::NodeBalancer>& bal, const Loads& loads,
                   SimResult& res);
  void remap_global(std::vector<double>& t, std::vector<long long>& planes,
                    std::vector<balance::NodeBalancer>& bal,
                    const Loads& loads, SimResult& res);
  void execute_transfer(int donor, int recv, long long k,
                        std::vector<double>& t,
                        std::vector<long long>& planes, SimResult& res);

  ClusterConfig cfg_;
  std::shared_ptr<const balance::RemapPolicy> policy_;
  std::vector<VirtualNode> nodes_;
  obs::MetricsRegistry* metrics_ = nullptr;
  long long phase_ = -1;  ///< phase label for recorded spans
};

}  // namespace slipflow::cluster
