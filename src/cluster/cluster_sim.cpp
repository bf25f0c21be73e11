#include "cluster/cluster_sim.hpp"

#include <algorithm>
#include <cmath>

namespace slipflow::cluster {

void ClusterConfig::validate() const {
  SLIPFLOW_REQUIRE(nodes >= 1);
  SLIPFLOW_REQUIRE_MSG(planes_total >= nodes,
                       "every node needs at least one plane");
  SLIPFLOW_REQUIRE(plane_cells > 0);
  SLIPFLOW_REQUIRE(cost_per_point > 0.0);
  double frac = 0.0;
  for (double f : stage_fraction) {
    SLIPFLOW_REQUIRE(f > 0.0);
    frac += f;
  }
  SLIPFLOW_REQUIRE_MSG(std::abs(frac - 1.0) < 1e-9,
                       "stage fractions must sum to 1");
  SLIPFLOW_REQUIRE(remap_interval >= 1);
  net.validate();
}

ClusterSim::ClusterSim(ClusterConfig cfg,
                       std::shared_ptr<const balance::RemapPolicy> policy)
    : cfg_(std::move(cfg)), policy_(std::move(policy)) {
  cfg_.validate();
  SLIPFLOW_REQUIRE(policy_ != nullptr);
  nodes_.resize(static_cast<std::size_t>(cfg_.nodes));
}

VirtualNode& ClusterSim::node(int i) {
  SLIPFLOW_REQUIRE(i >= 0 && i < cfg_.nodes);
  return nodes_[static_cast<std::size_t>(i)];
}

void ClusterSim::attach_metrics(obs::MetricsRegistry* metrics) {
  if (metrics != nullptr)
    SLIPFLOW_REQUIRE_MSG(metrics->ranks() >= cfg_.nodes,
                         "metrics registry needs one shard per node");
  metrics_ = metrics;
}

void ClusterSim::span(int node, const char* name, double begin, double end) {
  if (metrics_ != nullptr)
    metrics_->record_span(node, name, begin, end, phase_);
}

void ClusterSim::count(int node, const char* name, double delta) {
  if (metrics_ != nullptr) metrics_->add(node, name, delta);
}

std::vector<long long> ClusterSim::even_planes(long long total, int nodes) {
  SLIPFLOW_REQUIRE(nodes >= 1 && total >= nodes);
  std::vector<long long> planes(static_cast<std::size_t>(nodes),
                                total / nodes);
  for (long long r = 0; r < total % nodes; ++r) planes[static_cast<std::size_t>(r)] += 1;
  return planes;
}

double ClusterSim::sequential_time(int phases) const {
  return static_cast<double>(phases) *
         static_cast<double>(cfg_.total_points()) * cfg_.cost_per_point;
}

void ClusterSim::exchange(std::vector<double>& t, double bytes_per_cell,
                          std::vector<NodeProfile>& prof,
                          const char* span_name) {
  const int n = cfg_.nodes;
  const double bytes = bytes_per_cell * static_cast<double>(cfg_.plane_cells);
  const std::vector<double> t_in(t);

  // 1. Every node spends CPU packing/posting its boundary messages; on a
  //    loaded node this takes 1/share longer (integrated exactly).
  std::vector<double> send_done(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    send_done[ui] = nodes_[ui].finish_time(t[ui], cfg_.net.msg_cpu);
    prof[ui].comm += send_done[ui] - t[ui];
    t[ui] = send_done[ui];
  }

  // 2. Each node proceeds once both neighbor messages arrived. Transfer
  //    time is share-scaled at both endpoints; a node that had to *wait*
  //    while loaded additionally pays the scheduler wake-up lag.
  std::vector<double> ready(t);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    double arrive = t[ui];
    for (int j : {i - 1, i + 1}) {
      if (j < 0 || j >= n) continue;
      const auto uj = static_cast<std::size_t>(j);
      const double ss = nodes_[uj].share_at(send_done[uj]);
      const double sr = nodes_[ui].share_at(send_done[uj]);
      const double a = send_done[uj] + cfg_.net.latency +
                       transfer_seconds(cfg_.net, bytes, ss, sr);
      arrive = std::max(arrive, a);
    }
    double done = arrive;
    if (done > t[ui] + 1e-12) {
      const double share = nodes_[ui].share_at(done);
      if (share < 1.0)
        done += cfg_.net.sched_quantum * (1.0 / share - 1.0);
    }
    prof[ui].comm += done - t[ui];
    ready[ui] = done;
  }
  t = ready;
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    span(i, span_name, t_in[ui], t[ui]);
    count(i, "time/comm", t[ui] - t_in[ui]);
    const int neighbors = (i > 0 ? 1 : 0) + (i + 1 < n ? 1 : 0);
    count(i, "halo_bytes", bytes * static_cast<double>(neighbors));
  }
}

void ClusterSim::execute_transfer(int donor, int recv, long long k,
                                  std::vector<double>& t,
                                  std::vector<long long>& planes,
                                  SimResult& res) {
  SLIPFLOW_REQUIRE(k > 0);
  const auto ud = static_cast<std::size_t>(donor);
  const auto ur = static_cast<std::size_t>(recv);
  const double bytes = cfg_.migration_bytes_per_cell *
                       static_cast<double>(cfg_.plane_cells) *
                       static_cast<double>(k);
  const double start = std::max(t[ud], t[ur]);
  const double ss = nodes_[ud].share_at(start);
  const double sr = nodes_[ur].share_at(start);
  const double done =
      start + cfg_.net.latency + transfer_seconds(cfg_.net, bytes, ss, sr);
  res.profile[ud].remap += done - t[ud];
  res.profile[ur].remap += done - t[ur];
  t[ud] = t[ur] = done;
  planes[ud] -= k;
  planes[ur] += k;
  res.profile[ud].planes_sent += k;
  res.profile[ur].planes_received += k;
  res.migration_events += 1;
  res.planes_moved += k;
  count(donor, "planes_sent", static_cast<double>(k));
  count(recv, "planes_received", static_cast<double>(k));
  count(donor, "migration_bytes", bytes);
}

void ClusterSim::remap_local(std::vector<double>& t,
                             std::vector<long long>& planes,
                             std::vector<balance::NodeBalancer>& bal,
                             const Loads& loads, SimResult& res) {
  const int n = cfg_.nodes;
  const long long pc = cfg_.plane_cells;

  // Load-index + proposal exchange with neighbors (two small round
  // trips): neighbors synchronize on max of their clocks.
  std::vector<double> synced(t);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    double m = t[ui];
    if (i > 0) m = std::max(m, t[static_cast<std::size_t>(i - 1)]);
    if (i + 1 < n) m = std::max(m, t[static_cast<std::size_t>(i + 1)]);
    synced[ui] = m + 2.0 * cfg_.net.latency;
    res.profile[ui].remap += synced[ui] - t[ui];
  }
  t = synced;

  // The runner's decision steps at zero cost, from the pre-transfer
  // snapshot; node order, left side first, is boundary order.
  std::vector<balance::Proposal> props(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    props[ui] = bal[ui].propose(i > 0 ? loads[ui - 1] : std::nullopt,
                                planes[ui] * pc,
                                i + 1 < n ? loads[ui + 1] : std::nullopt);
  }
  const std::vector<long long> at_check(planes);
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    const balance::LocalMoves mv = balance::settle_local(
        props[ui], i > 0 ? props[ui - 1].to_right : 0,
        i + 1 < n ? props[ui + 1].to_left : 0,
        cfg_.balance.min_transfer_points, pc, at_check[ui]);
    if (mv.ship_left > 0)
      execute_transfer(i, i - 1, mv.ship_left, t, planes, res);
    if (mv.ship_right > 0)
      execute_transfer(i, i + 1, mv.ship_right, t, planes, res);
  }
}

void ClusterSim::remap_global(std::vector<double>& t,
                              std::vector<long long>& planes,
                              std::vector<balance::NodeBalancer>& bal,
                              const Loads& loads, SimResult& res) {
  const int n = cfg_.nodes;

  // Allgather of load indexes: every node first spends (share-scaled)
  // CPU contributing, then all synchronize on the slowest, plus a
  // logarithmic latency term for the collective.
  double tmax = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    tmax = std::max(tmax, nodes_[ui].finish_time(t[ui], cfg_.net.msg_cpu));
  }
  const double rounds = n > 1 ? std::ceil(std::log2(static_cast<double>(n))) : 1.0;
  double sync = tmax + 2.0 * rounds * cfg_.net.latency;
  // Group communication is sensitive to loaded nodes (the paper's stated
  // reason global remapping degrades, Section 4.2.3/4.2.4): each tree
  // level of the gather/scatter stalls on the OS wake-up lag of any
  // descheduled node it routes through, and a remap step traverses the
  // tree several times (index gather, decision broadcast, transfer
  // coordination, completion). At most `rounds` levels can stall.
  {
    const int depth = static_cast<int>(rounds);
    int stalled_levels = 0;
    for (int i = 0; i < n && stalled_levels < depth; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const double share = nodes_[ui].share_at(sync);
      if (share < 1.0) {
        sync += 4.0 * cfg_.net.sched_quantum * (1.0 / share - 1.0);
        ++stalled_levels;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    res.profile[ui].remap += sync - t[ui];
    t[ui] = sync;
  }

  // Every node computes the same plan; node 0's balancer stands for all.
  for (const balance::Transfer& tr :
       bal.front().plan_global(loads, cfg_.plane_cells).transfers)
    execute_transfer(tr.donor, tr.receiver, tr.planes, t, planes, res);
}

SimResult ClusterSim::run(int phases) {
  SLIPFLOW_REQUIRE(phases >= 1);
  const int n = cfg_.nodes;
  const long long pc = cfg_.plane_cells;

  std::vector<long long> planes = even_planes(cfg_.planes_total, n);
  std::vector<double> t(static_cast<std::size_t>(n), 0.0);
  std::vector<balance::NodeBalancer> bal;
  bal.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) bal.emplace_back(cfg_.balance, policy_);

  SimResult res;
  res.profile.resize(static_cast<std::size_t>(n));

  const bool remapping =
      policy_->name() != "none";  // "none" skips the whole remap step

  for (int phase = 1; phase <= phases; ++phase) {
    phase_ = phase;
    std::vector<double> phase_compute(static_cast<std::size_t>(n), 0.0);

    auto stage = [&](double fraction, const char* name) {
      for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        const double work = static_cast<double>(planes[ui] * pc) *
                            cfg_.cost_per_point * fraction;
        const double done = nodes_[ui].finish_time(t[ui], work);
        res.profile[ui].compute += done - t[ui];
        phase_compute[ui] += done - t[ui];
        span(i, name, t[ui], done);
        count(i, "time/compute", done - t[ui]);
        t[ui] = done;
      }
    };

    stage(cfg_.stage_fraction[0], "collide");
    exchange(t, cfg_.f_halo_bytes_per_cell, res.profile, "halo_f");
    stage(cfg_.stage_fraction[1], "stream_density");
    exchange(t, cfg_.density_halo_bytes_per_cell, res.profile,
             "halo_density");
    stage(cfg_.stage_fraction[2], "force_velocity");

    for (int i = 0; i < n; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      bal[ui].record_phase(std::max(phase_compute[ui], 1e-12),
                           planes[ui] * pc);
    }

    if (remapping && phase % cfg_.remap_interval == 0) {
      const std::vector<double> t_in(t);
      Loads loads(static_cast<std::size_t>(n));  // nullopt: window not full
      for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        if (bal[ui].ready()) loads[ui] = bal[ui].self_load(planes[ui] * pc);
      }
      if (policy_->global())
        remap_global(t, planes, bal, loads, res);
      else
        remap_local(t, planes, bal, loads, res);
      for (int i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        // span() folds the duration into the "time/remap" counter
        span(i, "remap", t_in[ui], t[ui]);
        count(i, "remap_invocations", 1.0);
      }
    }
  }
  phase_ = -1;

  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    res.profile[ui].planes_end = planes[ui];
    res.makespan = std::max(res.makespan, t[ui]);
    if (metrics_ != nullptr) {
      metrics_->set(i, "planes_end", static_cast<double>(planes[ui]));
      metrics_->set(i, "time/total", t[ui]);
    }
  }
  return res;
}

}  // namespace slipflow::cluster
