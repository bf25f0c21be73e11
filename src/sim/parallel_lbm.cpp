#include "sim/parallel_lbm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "lbm/checkpoint.hpp"
#include "lbm/observables.hpp"
#include "lbm/vtk.hpp"

namespace slipflow::sim {

namespace {
// Tags of the runner's protocol. Rightward = toward higher rank.
constexpr int kTagFRight = 10;
constexpr int kTagFLeft = 11;
constexpr int kTagNRight = 12;
constexpr int kTagNLeft = 13;
constexpr int kTagInfo = 20;
constexpr int kTagProposal = 21;
constexpr int kTagPlanes = 22;
constexpr int kTagProfile = 23;

/// Wire bytes of one halo exchange: one message per direction (left and
/// right), sizeof(double) bytes per payload double.
constexpr double kHaloMessagesPerExchange = 2.0;
double halo_exchange_bytes(lbm::index_t doubles_per_message) {
  return kHaloMessagesPerExchange * static_cast<double>(sizeof(double)) *
         static_cast<double>(doubles_per_message);
}

/// The count heading a remap frame from `peer` (a proposal's points, a
/// transfer's planes). Peer frames are untrusted: unless the count is an
/// integer in [0, limit) and the frame holds 1 + doubles_per_count x
/// count doubles, throw comm_error naming the peer and the message.
long long decode_count(std::span<const double> frame, int peer,
                       const char* what, long long limit,
                       long long doubles_per_count) {
  const double k = frame.empty() ? -1.0 : frame[0];
  if (std::isfinite(k) && k >= 0.0 && k < static_cast<double>(limit) &&
      k == std::floor(k) &&
      frame.size() == static_cast<std::size_t>(
                          1 + doubles_per_count * static_cast<long long>(k)))
    return static_cast<long long>(k);
  throw transport::comm_error(
      "remap " + std::string(what) + " from peer " + std::to_string(peer) +
      ": malformed frame of " + std::to_string(frame.size()) +
      " doubles, count " + (frame.empty() ? "missing" : std::to_string(k)));
}
}  // namespace

std::pair<lbm::index_t, lbm::index_t> initial_extent(lbm::index_t planes_total,
                                                     int size, int rank) {
  SLIPFLOW_REQUIRE(size >= 1 && rank >= 0 && rank < size);
  SLIPFLOW_REQUIRE(planes_total >= size);
  const lbm::index_t base = planes_total / size;
  const lbm::index_t rem = planes_total % size;
  const lbm::index_t mine = base + (rank < rem ? 1 : 0);
  const lbm::index_t begin =
      static_cast<lbm::index_t>(rank) * base + std::min<lbm::index_t>(rank, rem);
  return {begin, mine};
}

/// Halo exchange over the periodic ring of ranks, split into a
/// nonblocking post half (irecv + extract + isend, staged through two
/// persistent per-direction buffers — no per-step allocation and no
/// serialization of the two extractions through one scratch) and a
/// finish half (wait + insert), so message contents and the per-(src,
/// tag) arrival order are identical across all backends.
class ParallelLbm::RingExchanger {
 public:
  explicit RingExchanger(transport::Communicator& comm) : comm_(comm) {}

  void post_f(lbm::Slab& slab) {
    const auto n = static_cast<std::size_t>(slab.f_halo_doubles());
    from_left_ = comm_.irecv(left_peer(), kTagFRight);
    from_right_ = comm_.irecv(right_peer(), kTagFLeft);
    // my right-boundary populations travel rightward to my right peer
    right_buf_.resize(n);
    slab.extract_f_halo(lbm::Side::right, right_buf_);
    comm_.isend(right_peer(), kTagFRight, right_buf_);
    left_buf_.resize(n);
    slab.extract_f_halo(lbm::Side::left, left_buf_);
    comm_.isend(left_peer(), kTagFLeft, left_buf_);
  }

  void finish_f(lbm::Slab& slab) {
    slab.insert_f_halo(lbm::Side::left, from_left_->wait());
    slab.insert_f_halo(lbm::Side::right, from_right_->wait());
    from_left_.reset();
    from_right_.reset();
  }

  void post_density(lbm::Slab& slab) {
    const auto n = static_cast<std::size_t>(slab.density_halo_doubles());
    from_left_ = comm_.irecv(left_peer(), kTagNRight);
    from_right_ = comm_.irecv(right_peer(), kTagNLeft);
    right_buf_.resize(n);
    slab.extract_density_halo(lbm::Side::right, right_buf_);
    comm_.isend(right_peer(), kTagNRight, right_buf_);
    left_buf_.resize(n);
    slab.extract_density_halo(lbm::Side::left, left_buf_);
    comm_.isend(left_peer(), kTagNLeft, left_buf_);
  }

  void finish_density(lbm::Slab& slab) {
    slab.insert_density_halo(lbm::Side::left, from_left_->wait());
    slab.insert_density_halo(lbm::Side::right, from_right_->wait());
    from_left_.reset();
    from_right_.reset();
  }

 private:
  int left_peer() const {
    return (comm_.rank() + comm_.size() - 1) % comm_.size();
  }
  int right_peer() const { return (comm_.rank() + 1) % comm_.size(); }

  transport::Communicator& comm_;
  // Staging for the two directions' isends; every backend copies the
  // payload before isend returns, so reusing them next phase is safe.
  std::vector<double> right_buf_, left_buf_;
  transport::RecvHandlePtr from_left_, from_right_;
};

std::shared_ptr<const lbm::ChannelGeometry> make_geometry(
    const RunnerConfig& cfg) {
  auto geom = std::make_shared<lbm::ChannelGeometry>(
      cfg.global, cfg.obstacle, cfg.walls_y, cfg.walls_z);
  for (int w = 0; w < 4; ++w) {
    const lbm::Vec3& u = cfg.wall_velocity[static_cast<std::size_t>(w)];
    if (u.norm2() > 0.0)
      geom->set_wall_velocity(static_cast<lbm::ChannelGeometry::Wall>(w), u);
  }
  return geom;
}

ParallelLbm::ParallelLbm(RunnerConfig cfg, transport::Communicator& comm)
    : cfg_(std::move(cfg)), comm_(comm) {
  SLIPFLOW_REQUIRE(cfg_.remap_interval >= 1);
  SLIPFLOW_REQUIRE(cfg_.threads >= 1);
  const OutputOptions& out = cfg_.output;
  SLIPFLOW_REQUIRE_MSG(
      out.checkpoint_every <= 0 || !out.checkpoint_prefix.empty(),
      "checkpoint_every needs a checkpoint_prefix");
  SLIPFLOW_REQUIRE_MSG(out.vtk_every <= 0 || !out.vtk_prefix.empty(),
                       "vtk_every needs a vtk_prefix");
  geom_ = make_geometry(cfg_);
  const auto [begin, mine] =
      initial_extent(cfg_.global.nx, comm_.size(), comm_.rank());
  slab_ = std::make_unique<lbm::Slab>(geom_, cfg_.fluid, begin, mine);
  halo_ = std::make_unique<RingExchanger>(comm_);
  pool_ = std::make_unique<util::ThreadPool>(cfg_.threads);
  thread_cells_.assign(static_cast<std::size_t>(cfg_.threads), 0.0);
  policy_ = balance::RemapPolicy::create(cfg_.policy);
  balancer_ = std::make_unique<balance::NodeBalancer>(cfg_.balance, policy_);
  stats_.rank = comm_.rank();
  if (cfg_.metrics != nullptr)
    SLIPFLOW_REQUIRE_MSG(cfg_.metrics->ranks() >= comm_.size(),
                         "metrics registry needs one shard per rank");
  prof_ = std::make_unique<obs::PhaseProfiler>(
      cfg_.metrics, cfg_.metrics != nullptr ? comm_.rank() : 0,
      cfg_.clock_factory ? cfg_.clock_factory(comm_.rank()) : nullptr);
  if (!cfg_.slowdown.empty()) {
    SLIPFLOW_REQUIRE(cfg_.slowdown.size() ==
                     static_cast<std::size_t>(comm_.size()));
    slowdown_factor_ = cfg_.slowdown[static_cast<std::size_t>(comm_.rank())];
    SLIPFLOW_REQUIRE(slowdown_factor_ >= 0.0);
  }
}

ParallelLbm::~ParallelLbm() = default;

void ParallelLbm::initialize(
    const std::function<double(std::size_t, lbm::index_t, lbm::index_t,
                               lbm::index_t)>& init_density) {
  slab_->initialize(init_density);
  prime();
}

void ParallelLbm::initialize_uniform() {
  slab_->initialize_uniform();
  prime();
}

void ParallelLbm::prime() {
  ensure_plan();
  halo_->post_density(*slab_);
  halo_->finish_density(*slab_);
  lbm::compute_forces_and_velocity_plan(*slab_);
  phases_done_ = 0;
  initialized_ = true;
}

double ParallelLbm::ensure_plan() {
  if (slab_->has_plan()) return 0.0;
  const double t0 = prof_->now();
  slab_->plan();
  const double t1 = prof_->now();
  prof_->record_span("plan", t0, t1);
  // Until this rank has paid for a migration, a plan build is the best
  // measure of what one costs.
  if (!migration_measured_) migration_cost_ = t1 - t0;
  return t1 - t0;
}

void ParallelLbm::run(int phases) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "call initialize() before run()");
  SLIPFLOW_REQUIRE(phases >= 0);
  // All timing below reads the injected clock through the profiler —
  // never util::Stopwatch — so the compute times that feed the load
  // predictor come from the same (possibly deterministic) source the
  // trace records.
  ensure_plan();
  for (int p = 1; p <= phases; ++p) {
    prof_->begin_phase(++phases_done_);
    comm_.note_progress(phases_done_);
    step_phase();

    // --- lattice point remapping --- (lines 20-32)
    if (cfg_.policy != "none" && phases_done_ % cfg_.remap_interval == 0) {
      const long long moved_before =
          stats_.planes_sent + stats_.planes_received;
      prof_->set("remap/migration_cost_seconds", migration_charge());
      const double r0 = prof_->now();
      const double transfers =
          policy_->global() ? remap_global() : remap_local();
      const double r1 = prof_->now();
      // record_span folds the duration into the "time/remap" counter
      prof_->record_span("remap", r0, r1);
      prof_->add("remap_invocations", 1.0);
      stats_.remap_seconds += r1 - r0;
      // A migration rebuilt the slab and dropped its plan; rebuild it
      // under the "plan" span so the cost is visible but never mixed
      // into the remap numbers.
      const double rebuilt = ensure_plan();
      if (stats_.planes_sent + stats_.planes_received != moved_before) {
        // What the cost gate charges the next proposal: this migration's
        // plane transfers plus the plan rebuild they forced — not
        // the rest of the remap span, whose wait for the neighbors to
        // reach the check is the imbalance itself, paid with or without
        // a migration.
        migration_cost_ = transfers + rebuilt;
        migration_measured_ = true;
      }
    }

    // --- periodic output --- written inline, under the "io" span.
    if (cfg_.output.checkpoint_every > 0 || cfg_.output.vtk_every > 0)
      write_outputs();
  }
  stats_.planes = slab_->nx_local();
  prof_->set("planes_end", static_cast<double>(slab_->nx_local()));
  prof_->set("phases_done", static_cast<double>(phases_done_));
  if (stats_.compute_seconds > 0.0)
    prof_->set("mlups", cells_updated_ / stats_.compute_seconds / 1e6);
  // The efficiency of the overlap: of the time the phase had to cover
  // communication, the fraction spent computing (halo waits are the comm
  // that compute could not hide).
  const double window = interior_seconds_ + halo_wait_seconds_;
  if (window > 0.0)
    prof_->set("overlap_efficiency", interior_seconds_ / window);
  // Per-lane fold of the threaded sweeps, published from the owning
  // thread (lanes never touch the registry themselves).
  for (std::size_t lane = 0; lane < thread_cells_.size(); ++lane) {
    if (thread_cells_[lane] == 0.0) continue;
    prof_->add("thread/" + std::to_string(lane) + "/cells_updated",
               thread_cells_[lane]);
    thread_cells_[lane] = 0.0;
  }
}

void ParallelLbm::step_phase() {
  lbm::Slab& slab = *slab_;
  // built on this thread, not under the pool
  const lbm::StreamingPlan& plan = slab.plan();
  // Which kernel backend this step runs, read once so every slice of the
  // phase agrees. The pool slices *row* indices, never cells: a slice
  // boundary can then never split a row, so each cell takes the same
  // vector-lane code path for any rank x thread count.
  const lbm::KernelBackend backend = lbm::active_kernel_backend();
  const lbm::index_t nxl = slab.nx_local();
  const lbm::index_t pc = slab.storage().plane_cells();
  const double phase_begin = prof_->now();

  // --- collide the exchange-facing planes --- (their post-collision
  // populations are the f-halo payload, so they must exist first)
  lbm::collide_boundary_planes(slab);
  double t = prof_->now();
  prof_->record_span("collide", phase_begin, t);
  double compute = t - phase_begin;
  double comm = 0.0, interior = 0.0, halo_wait = 0.0;

  // --- post the f halos --- irecvs, then extract + isend both planes
  double t0 = t;
  halo_->post_f(slab);
  t = prof_->now();
  prof_->record_span("halo_post_f", t0, t);
  comm += t - t0;
  prof_->add("halo_bytes", halo_exchange_bytes(slab.f_halo_doubles()));

  // --- the collide+stream sweep, threaded, while frames fly --- every
  // row lane and per-cell cell reads owned state only and owns
  // a disjoint set of f_post slots; the exchanged planes enter the phase
  // through the finish pulls below, never here.
  t0 = t;
  const std::vector<lbm::RowTile>& rows = plan.rows();
  const std::span<const lbm::StreamBoundaryCell> scells = plan.stream_cells();
  pool_->run([&](int lane, int lanes) {
    const auto [rb, re] = util::ThreadPool::slice(rows.size(), lane, lanes);
    const auto [cb, ce] = util::ThreadPool::slice(scells.size(), lane, lanes);
    lbm::fused_collide_stream_tiles(slab, backend, rb, re);
    lbm::fused_collide_stream_range(slab, scells.subspan(cb, ce - cb));
    double cells = static_cast<double>(ce - cb);
    for (std::size_t ri = rb; ri < re; ++ri)
      cells += static_cast<double>(rows[ri].count);
    thread_cells_[static_cast<std::size_t>(lane)] += cells;
  });
  t = prof_->now();
  prof_->record_span("interior_stream", t0, t);
  compute += t - t0;
  interior += t - t0;

  // --- wait for the neighbor planes ---
  t0 = t;
  halo_->finish_f(slab);
  t = prof_->now();
  prof_->record_span("halo_wait_f", t0, t);
  comm += t - t0;
  halo_wait += t - t0;

  // --- finish streaming (halo pulls, swap, solids) and the densities of
  // the exchange-facing planes — the payload of the second exchange
  t0 = t;
  lbm::fused_collide_stream_finish(slab);
  lbm::compute_density_planes(slab, 1, 2);
  if (nxl > 1) lbm::compute_density_planes(slab, nxl, nxl + 1);
  t = prof_->now();
  prof_->record_span("boundary_stream", t0, t);
  compute += t - t0;

  // --- post the density halos ---
  t0 = t;
  halo_->post_density(slab);
  t = prof_->now();
  prof_->record_span("halo_post_density", t0, t);
  comm += t - t0;
  prof_->add("halo_bytes", halo_exchange_bytes(slab.density_halo_doubles()));

  // --- inner densities + owned psi + the inner force sweep --- the
  // force cells of planes [2, nx_local-1] gather psi from owned planes
  // only, so the whole chain runs while the density halo is in flight.
  t0 = t;
  if (nxl > 2) {
    const auto inner_planes = static_cast<std::size_t>(nxl - 2);
    pool_->run([&](int lane, int lanes) {
      const auto [pb, pe] = util::ThreadPool::slice(inner_planes, lane, lanes);
      if (pb < pe)
        lbm::compute_density_planes(slab,
                                    2 + static_cast<lbm::index_t>(pb),
                                    2 + static_cast<lbm::index_t>(pe));
    });
  }
  lbm::force_psi_prepare(slab, psi_cache_, pc, (nxl + 1) * pc,
                         /*reset=*/true);
  // Rows and per-cell force cells, each split into the inner slice swept
  // now and the edge remainder swept after the wait.
  const std::span<const lbm::ForceBoundaryCell> fcells = plan.force_cells();
  const std::size_t fc_b = plan.force_cells_inner_begin();
  const std::size_t fc_e = plan.force_cells_inner_end();
  const std::size_t fu_b = plan.inner_begin();
  const std::size_t fu_e = plan.inner_end();
  // Force rows [ub, ue) plus per-cell entries [cb, ce).
  const auto forces = [&](std::size_t ub, std::size_t ue, std::size_t cb,
                          std::size_t ce) {
    lbm::compute_forces_tiles(slab, psi_cache_, backend, ub, ue);
    lbm::compute_forces_plan_range(slab, psi_cache_,
                                   fcells.subspan(cb, ce - cb));
  };
  pool_->run([&](int lane, int lanes) {
    const auto [ub, ue] = util::ThreadPool::slice(fu_e - fu_b, lane, lanes);
    const auto [cb, ce] = util::ThreadPool::slice(fc_e - fc_b, lane, lanes);
    forces(fu_b + ub, fu_b + ue, fc_b + cb, fc_b + ce);
  });
  t = prof_->now();
  prof_->record_span("interior_force", t0, t);
  compute += t - t0;
  interior += t - t0;

  // --- wait for the neighbor densities ---
  t0 = t;
  halo_->finish_density(slab);
  t = prof_->now();
  prof_->record_span("halo_wait_density", t0, t);
  comm += t - t0;
  halo_wait += t - t0;

  // --- halo psi + the edge force planes (1 and nx_local) ---
  t0 = t;
  lbm::force_psi_prepare(slab, psi_cache_, 0, pc, /*reset=*/false);
  lbm::force_psi_prepare(slab, psi_cache_, (nxl + 1) * pc, (nxl + 2) * pc,
                         /*reset=*/false);
  forces(0, fu_b, 0, fc_b);
  forces(fu_e, rows.size(), fc_e, fcells.size());
  t = prof_->now();
  prof_->record_span("boundary_force", t0, t);
  compute += t - t0;

  stats_.comm_seconds += comm;
  prof_->add("time/comm", comm);
  interior_seconds_ += interior;
  halo_wait_seconds_ += halo_wait;
  prof_->add("time/interior", interior);
  prof_->add("time/halo_wait", halo_wait);

  if (slowdown_factor_ > 0.0) {
    // emulate a node that keeps only 1/(1+s) of its CPU
    const double extra = slowdown_factor_ * compute;
    std::this_thread::sleep_for(std::chrono::duration<double>(extra));
    prof_->record_span("slowdown", t, prof_->now());
    compute += extra;
  }
  stats_.compute_seconds += compute;
  prof_->add("time/compute", compute);
  prof_->observe("phase_seconds", prof_->now() - phase_begin);
  balancer_->record_phase(std::max(compute, 1e-9), slab_->owned_cells());
  const auto phase_cells = static_cast<double>(plan.fluid_cells());
  cells_updated_ += phase_cells;
  prof_->add("cells_updated", phase_cells);
}

void ParallelLbm::write_outputs() {
  const OutputOptions& out = cfg_.output;
  const bool ckpt =
      out.checkpoint_every > 0 && phases_done_ % out.checkpoint_every == 0;
  const bool vtk = out.vtk_every > 0 && phases_done_ % out.vtk_every == 0;
  if (!ckpt && !vtk) return;
  const double t0 = prof_->now();
  const std::string tag = std::to_string(phases_done_);
  if (ckpt)
    save_checkpoint(out.checkpoint_prefix + "." + tag + ".ckpt",
                    phases_done_);
  if (vtk)
    lbm::write_vtk(*slab_, out.vtk_prefix + "." + tag + ".r" +
                               std::to_string(comm_.rank()) + ".vtk");
  prof_->record_span("io", t0, prof_->now());
}

void ParallelLbm::count_suppressed(balance::Suppressed why) {
  switch (why) {
    case balance::Suppressed::none:
      return;
    case balance::Suppressed::threshold:
      prof_->add("remap/suppressed_threshold", 1.0);
      return;
    case balance::Suppressed::fast_to_slow:
      prof_->add("remap/suppressed_fast_to_slow", 1.0);
      return;
    case balance::Suppressed::cost:
      prof_->add("remap/suppressed_cost", 1.0);
      return;
  }
}

void ParallelLbm::send_planes(int peer, lbm::Side side, long long k) {
  std::vector<double> msg(1 +
                          static_cast<std::size_t>(slab_->migration_doubles(k)));
  msg[0] = static_cast<double>(k);
  if (k > 0) {
    slab_->detach_planes(side, k, std::span<double>(msg).subspan(1));
    stats_.planes_sent += k;
    prof_->add("planes_sent", static_cast<double>(k));
    prof_->add("migration_bytes", 8.0 * static_cast<double>(msg.size()));
  }
  comm_.send(peer, kTagPlanes, msg);
}

void ParallelLbm::recv_planes(int peer, lbm::Side side) {
  const std::vector<double> msg = comm_.recv(peer, kTagPlanes);
  const long long k = decode_count(msg, peer, "planes", cfg_.global.nx,
                                   slab_->migration_doubles(1));
  if (k > 0) {
    slab_->attach_planes(side, k,
                         std::span<const double>(msg).subspan(1));
    stats_.planes_received += k;
    prof_->add("planes_received", static_cast<double>(k));
  }
}

ParallelLbm::LoadInfo ParallelLbm::load_info() const {
  const long long points = slab_->owned_cells();
  const bool ready = balancer_->ready();
  return {static_cast<double>(points),
          ready ? balancer_->predicted_time(points) : 0.0, ready ? 1.0 : 0.0,
          migration_charge()};
}

double ParallelLbm::migration_charge() const {
  if (migration_measured_ || !balancer_->ready()) return migration_cost_;
  // Before its first move a rank has timed only a plan build. A
  // migration also rebuilds the slab, copying every field of every owned
  // plane, about the memory one phase sweeps; without that term the
  // charge tracks the plan build alone and per-phase noise pays for
  // moves on an idle host.
  return migration_cost_ + balancer_->predicted_time(slab_->owned_cells());
}

std::optional<balance::NodeLoad> ParallelLbm::load_of(
    std::span<const double> info) {
  SLIPFLOW_REQUIRE(info.size() == std::tuple_size_v<LoadInfo>);
  if (info[2] == 0.0) return std::nullopt;  // window not full yet
  return balance::NodeLoad{info[0], info[1], info[3]};
}

double ParallelLbm::remap_local() {
  // 1. Exchange load infos with chain neighbors.
  const LoadInfo info = load_info();
  const int ln = left_neighbor();
  const int rn = right_neighbor();
  if (ln >= 0) comm_.send(ln, kTagInfo, info);
  if (rn >= 0) comm_.send(rn, kTagInfo, info);
  std::optional<balance::NodeLoad> left, right;
  if (ln >= 0) left = load_of(comm_.recv(ln, kTagInfo));
  if (rn >= 0) right = load_of(comm_.recv(rn, kTagInfo));

  // 2. Local decision, cost-gated on this rank's side before anything is
  //    exchanged, then proposals cross each boundary.
  const balance::Proposal prop = balancer_->propose(
      left, slab_->owned_cells(), right,
      {migration_charge(), balance::kGateIntervals * cfg_.remap_interval});
  count_suppressed(prop.left_why);
  count_suppressed(prop.right_why);
  if (ln >= 0) {
    const double v = static_cast<double>(prop.to_left);
    comm_.send(ln, kTagProposal, std::span<const double>(&v, 1));
  }
  if (rn >= 0) {
    const double v = static_cast<double>(prop.to_right);
    comm_.send(rn, kTagProposal, std::span<const double>(&v, 1));
  }
  const long long max_points = cfg_.global.nx * slab_->plane_cells();
  const auto proposal_from = [&](int peer) {
    return decode_count(comm_.recv(peer, kTagProposal), peer, "proposal",
                        max_points, 0);
  };
  const long long left_to_me = ln >= 0 ? proposal_from(ln) : 0;
  const long long right_to_me = rn >= 0 ? proposal_from(rn) : 0;

  // 3. Both sides of a boundary agree on its net; the donor clamps on
  //    its own (the header carries the actual k). All sends first
  //    (buffered), then receives — deadlock-free.
  const balance::LocalMoves mv = balance::settle_local(
      prop, left_to_me, right_to_me, cfg_.balance.min_transfer_points,
      slab_->plane_cells(), slab_->nx_local());
  if (mv.net_left == 0 && mv.net_right == 0) return 0.0;
  const double t0 = prof_->now();
  if (mv.net_right > 0) send_planes(rn, lbm::Side::right, mv.ship_right);
  if (mv.net_left < 0) send_planes(ln, lbm::Side::left, mv.ship_left);
  if (mv.net_right < 0) recv_planes(rn, lbm::Side::right);
  if (mv.net_left > 0) recv_planes(ln, lbm::Side::left);
  return prof_->now() - t0;
}

double ParallelLbm::remap_global() {
  const std::vector<double> all = comm_.allgather(load_info());
  constexpr std::size_t kInfo = std::tuple_size_v<LoadInfo>;
  std::vector<std::optional<balance::NodeLoad>> loads;
  for (std::size_t o = 0; o < all.size(); o += kInfo)
    loads.push_back(load_of(std::span(all).subspan(o, kInfo)));
  // Every rank plans the same transfers from the allgathered inputs.
  const balance::GlobalPlan plan = balancer_->plan_global(
      loads, slab_->plane_cells(),
      balance::kGateIntervals * cfg_.remap_interval);
  const int me = comm_.rank();
  for (const auto& [donor, why] : plan.suppressed)
    if (donor == me) count_suppressed(why);
  if (plan.transfers.empty()) return 0.0;

  const double t0 = prof_->now();
  for (const balance::Transfer& tr : plan.transfers) {
    if (tr.donor != me) continue;
    send_planes(tr.receiver,
                tr.receiver > me ? lbm::Side::right : lbm::Side::left,
                tr.planes);
  }
  for (const balance::Transfer& tr : plan.transfers) {
    if (tr.receiver != me) continue;
    recv_planes(tr.donor, tr.donor > me ? lbm::Side::right : lbm::Side::left);
  }
  return prof_->now() - t0;
}

std::vector<RankStats> ParallelLbm::gather_stats() {
  stats_.planes = slab_->nx_local();
  const double mine[6] = {static_cast<double>(stats_.planes),
                          stats_.compute_seconds,
                          stats_.comm_seconds,
                          stats_.remap_seconds,
                          static_cast<double>(stats_.planes_sent),
                          static_cast<double>(stats_.planes_received)};
  const std::vector<double> all =
      comm_.allgather(std::span<const double>(mine, 6));
  std::vector<RankStats> out(static_cast<std::size_t>(comm_.size()));
  for (int r = 0; r < comm_.size(); ++r) {
    const std::size_t o = 6 * static_cast<std::size_t>(r);
    auto& s = out[static_cast<std::size_t>(r)];
    s.rank = r;
    s.planes = static_cast<long long>(all[o]);
    s.compute_seconds = all[o + 1];
    s.comm_seconds = all[o + 2];
    s.remap_seconds = all[o + 3];
    s.planes_sent = static_cast<long long>(all[o + 4]);
    s.planes_received = static_cast<long long>(all[o + 5]);
  }
  return out;
}

std::vector<int> ParallelLbm::gather_plane_owners() {
  const double ext[2] = {static_cast<double>(slab_->x_begin()),
                         static_cast<double>(slab_->nx_local())};
  const std::vector<double> all =
      comm_.allgather(std::span<const double>(ext, 2));
  std::vector<int> owners(static_cast<std::size_t>(cfg_.global.nx), -1);
  for (int r = 0; r < comm_.size(); ++r) {
    const auto b = static_cast<lbm::index_t>(all[2 * static_cast<std::size_t>(r)]);
    const auto nl =
        static_cast<lbm::index_t>(all[2 * static_cast<std::size_t>(r) + 1]);
    SLIPFLOW_REQUIRE_MSG(b >= 0 && b + nl <= cfg_.global.nx,
                         "rank " << r << " slab [" << b << ", " << b + nl
                                 << ") outside the domain");
    for (lbm::index_t gx = b; gx < b + nl; ++gx) {
      int& owner = owners[static_cast<std::size_t>(gx)];
      SLIPFLOW_REQUIRE_MSG(owner < 0, "plane " << gx << " owned by ranks "
                                                << owner << " and " << r);
      owner = r;
    }
  }
  return owners;
}

std::vector<double> ParallelLbm::gather_profile(
    std::span<const int> owners, lbm::index_t gx,
    const std::function<std::vector<double>()>& local_profile) {
  std::vector<int> gathered;
  if (owners.empty()) owners = gathered = gather_plane_owners();
  const int owner = gx >= 0 && gx < static_cast<lbm::index_t>(owners.size())
                        ? owners[static_cast<std::size_t>(gx)]
                        : -1;
  SLIPFLOW_REQUIRE_MSG(owner >= 0, "no rank owns plane " << gx);
  if (comm_.rank() == owner) {
    std::vector<double> prof = local_profile();
    if (owner == 0) return prof;
    comm_.send(0, kTagProfile, prof);
    return {};
  }
  if (comm_.rank() == 0) return comm_.recv(owner, kTagProfile);
  return {};
}

std::vector<double> ParallelLbm::gather_velocity_profile_y(
    lbm::index_t gx, lbm::index_t z, std::span<const int> owners) {
  return gather_profile(owners, gx, [&] {
    return lbm::velocity_profile_y(*slab_, gx, z);
  });
}

std::vector<double> ParallelLbm::gather_density_profile_y(
    std::size_t component, lbm::index_t gx, lbm::index_t z,
    std::span<const int> owners) {
  return gather_profile(owners, gx, [&] {
    return lbm::density_profile_y(*slab_, component, gx, z);
  });
}

std::vector<double> ParallelLbm::global_masses() {
  const std::size_t comps = slab_->num_components();
  const std::size_t nx = static_cast<std::size_t>(cfg_.global.nx);
  // One slot per (global plane, component); only the owner writes it, so
  // the element-wise allreduce adds exact zeros and the slot value is
  // independent of the reduction's rank order.
  std::vector<double> per_plane(nx * comps, 0.0);
  for (lbm::index_t gx = slab_->x_begin(); gx < slab_->x_end(); ++gx)
    for (std::size_t c = 0; c < comps; ++c)
      per_plane[static_cast<std::size_t>(gx) * comps + c] =
          lbm::plane_mass(*slab_, c, gx) *
          cfg_.fluid.components[c].molecular_mass;
  const std::vector<double> all =
      comm_.allreduce_sum(std::span<const double>(per_plane));
  std::vector<double> masses(comps, 0.0);
  for (std::size_t gx = 0; gx < nx; ++gx)
    for (std::size_t c = 0; c < comps; ++c) masses[c] += all[gx * comps + c];
  return masses;
}

void ParallelLbm::save_checkpoint(const std::string& path, long long phase) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "nothing to checkpoint yet");
  // Recovery and the warm cache seed only from complete files, so the
  // planes go to a sibling and the final name appears by rename: a crash
  // mid-write leaves at worst a stale .tmp, never a torn `path`, and an
  // old file under `path` is replaced rather than truncated in place.
  const std::string tmp = path + ".tmp";
  if (comm_.rank() == 0) {
    lbm::begin_checkpoint(cfg_.global, slab_->num_components(), phase,
                          slab_->migration_doubles(1), tmp);
  }
  comm_.barrier();  // the file must exist before anyone writes planes
  lbm::write_checkpoint_planes(*slab_, tmp);
  comm_.barrier();  // every rank's planes are down before the publish
  if (comm_.rank() == 0 && std::rename(tmp.c_str(), path.c_str()) != 0)
    throw transport::comm_error("cannot publish checkpoint " + path);
  comm_.barrier();  // and `path` is complete before anyone reads it back
}

long long ParallelLbm::load_checkpoint(const std::string& path) {
  const long long phase = lbm::load_checkpoint_planes(*slab_, path);
  comm_.barrier();
  initialized_ = true;
  // Adopt the stored phase: subsequent run() calls continue the absolute
  // numbering, so heartbeat phases and periodic-output file names stay
  // consistent across a resume — which is what lets the campaign
  // server's recovery pick the newest checkpoint by file name across
  // attempts.
  phases_done_ = phase;
  return phase;
}

}  // namespace slipflow::sim
