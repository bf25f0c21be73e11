#include "transport/peer_comm.hpp"

#include <signal.h>

#include <chrono>
#include <limits>
#include <thread>

#include "transport/collectives.hpp"
#include "transport/fdio.hpp"
#include "transport/heartbeat.hpp"

namespace slipflow::transport {

using fdio::mono_now;

PeerComm::PeerComm(const PeerCommConfig& cfg, std::string prefix)
    : cfg_(cfg), prefix_(std::move(prefix)), created_at_(mono_now()) {
  SLIPFLOW_REQUIRE(cfg_.nranks >= 1);
  SLIPFLOW_REQUIRE(cfg_.rank >= 0 && cfg_.rank < cfg_.nranks);
  drop_remaining_ = cfg_.fault.drop_dest == -2 ? 0 : cfg_.fault.drop_count;
  throttle_last_ = mono_now();
  // 0.1 s of burst allowance; see FaultInjection::throttle_bytes_per_sec.
  throttle_tokens_ = 0.1 * cfg_.fault.throttle_bytes_per_sec;
  if (cfg_.heartbeat_fd >= 0)
    hb_ = std::make_unique<HeartbeatSender>(cfg_.rank, cfg_.heartbeat_fd,
                                            cfg_.heartbeat_interval);
}

PeerComm::~PeerComm() = default;

void PeerComm::stop_heartbeat() { hb_.reset(); }

void PeerComm::mesh_ready() {
  stats_.connect_seconds = mono_now() - created_at_;
}

void PeerComm::throttle(std::size_t bytes) {
  const double bps = cfg_.fault.throttle_bytes_per_sec;
  if (bps <= 0.0) return;
  const double now = mono_now();
  throttle_tokens_ = std::min(0.1 * bps,
                              throttle_tokens_ + (now - throttle_last_) * bps);
  throttle_last_ = now;
  const double need = static_cast<double>(bytes);
  if (need > throttle_tokens_) {
    const double wait = (need - throttle_tokens_) / bps;
    stats_.throttle_wait_seconds += wait;
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    throttle_last_ = mono_now();
  }
  throttle_tokens_ -= need;
}

void PeerComm::send(int dest, int tag, std::span<const double> data) {
  SLIPFLOW_REQUIRE(dest >= 0 && dest < cfg_.nranks);
  if (drop_remaining_ > 0 &&
      (cfg_.fault.drop_dest == -1 || cfg_.fault.drop_dest == dest) &&
      (cfg_.fault.drop_tag == -1 || cfg_.fault.drop_tag == tag)) {
    --drop_remaining_;
    ++stats_.frames_dropped;
    return;
  }
  if (cfg_.fault.send_delay > 0.0)
    std::this_thread::sleep_for(
        std::chrono::duration<double>(cfg_.fault.send_delay));
  ++stats_.messages_sent;
  if (dest == cfg_.rank) {
    deliver(cfg_.rank, tag, {data.begin(), data.end()});
    return;
  }
  append(dest, tag, data);
}

void PeerComm::deliver(int src, int tag, std::vector<double> payload) {
  mail_[{src, tag}].push_back(std::move(payload));
  ++stats_.messages_received;
}

void PeerComm::throw_closed(int src, int tag) const {
  throw comm_error("rank " + std::to_string(cfg_.rank) +
                   ": connection to rank " + std::to_string(src) +
                   " closed while waiting for (src=" + std::to_string(src) +
                   ", tag=" + std::to_string(tag) + ")");
}

bool PeerComm::try_pop(int src, int tag, std::vector<double>& out) {
  const auto it = mail_.find({src, tag});
  if (it == mail_.end() || it->second.empty()) return false;
  out = std::move(it->second.front());
  it->second.pop_front();
  return true;
}

std::vector<double> PeerComm::recv(int src, int tag) {
  SLIPFLOW_REQUIRE(src >= 0 && src < cfg_.nranks);
  const double t0 = mono_now();
  const double timeout = cfg_.comm.recv_timeout;
  const double deadline =
      timeout > 0.0 ? t0 + timeout : std::numeric_limits<double>::infinity();
  for (;;) {
    std::vector<double> out;
    if (try_pop(src, tag, out)) {
      stats_.recv_wait_seconds += mono_now() - t0;
      return out;
    }
    if (src == cfg_.rank)
      throw comm_error("rank " + std::to_string(cfg_.rank) +
                       ": blocking self-recv with empty mailbox would "
                       "deadlock (tag " + std::to_string(tag) + ")");
    if (peer_closed(src)) throw_closed(src, tag);
    const double now = mono_now();
    if (now >= deadline)
      throw comm_timeout(
          "rank " + std::to_string(cfg_.rank) + ": recv timeout after " +
          std::to_string(timeout) + "s waiting for (src=" +
          std::to_string(src) + ", tag=" + std::to_string(tag) + ")");
    progress(std::min(0.1, deadline - now), src);
  }
}

/// Completion = the matching frame has been drained into the mailbox.
/// test() makes one nonblocking progress pass before giving up, so a
/// rank that only ever calls test() between compute chunks still moves
/// its pending sends and drains arrivals. A departed peer surfaces from
/// test() as the same named comm_error a blocking recv would throw; a
/// pending self-receive just stays incomplete (the matching self-send
/// may come later from this same thread).
class PeerComm::Handle final : public RecvHandle {
 public:
  Handle(PeerComm& comm, int src, int tag)
      : comm_(comm), src_(src), tag_(tag) {}

  bool test() override {
    if (done_) return true;
    if (comm_.try_pop(src_, tag_, payload_)) return done_ = true;
    if (src_ != comm_.cfg_.rank) {
      comm_.progress(0.0, -1);
      if (comm_.try_pop(src_, tag_, payload_)) return done_ = true;
      if (comm_.peer_closed(src_)) comm_.throw_closed(src_, tag_);
    }
    return false;
  }

  std::vector<double> wait() override {
    if (!done_) {
      payload_ = comm_.recv(src_, tag_);
      done_ = true;
    }
    return std::move(payload_);
  }

 private:
  PeerComm& comm_;
  const int src_, tag_;
  bool done_ = false;
  std::vector<double> payload_;
};

RecvHandlePtr PeerComm::irecv(int src, int tag) {
  SLIPFLOW_REQUIRE(src >= 0 && src < cfg_.nranks);
  return std::make_unique<Handle>(*this, src, tag);
}

// det-lint: rank-ordered — delegates to binomial_allgather, which
// concatenates contributions by rank index (collectives.hpp).
std::vector<double> PeerComm::allgather(std::span<const double> mine) {
  return binomial_allgather(*this, mine);
}

void PeerComm::barrier() { (void)allgather({}); }

// det-lint: rank-ordered — folds the rank-ordered allgather result
// left to right in rank index order.
double PeerComm::allreduce_sum(double x) {
  const std::vector<double> all = allgather(std::span<const double>(&x, 1));
  double s = 0.0;
  for (double v : all) s += v;
  return s;
}

// det-lint: rank-ordered — max over the rank-ordered allgather.
double PeerComm::allreduce_max(double x) {
  const std::vector<double> all = allgather(std::span<const double>(&x, 1));
  double m = all.front();
  for (double v : all) m = v > m ? v : m;
  return m;
}

void PeerComm::note_progress(long long phase) {
  if (hb_) hb_->note_phase(phase);
  if (cfg_.fault.kill_at_phase >= 0 && phase >= cfg_.fault.kill_at_phase)
    ::raise(SIGKILL);
  if (cfg_.fault.stop_at_phase >= 0 && phase >= cfg_.fault.stop_at_phase)
    ::raise(SIGSTOP);
}

PeerStats PeerComm::stats() const {
  PeerStats s = stats_;
  s.heartbeats_sent = hb_ ? hb_->count() : 0;
  return s;
}

void PeerComm::publish(const std::string& name, double value) const {
  cfg_.metrics->add(cfg_.rank, prefix_ + "/" + name, value);
}

void PeerComm::publish_stats() {
  if (cfg_.metrics == nullptr) return;
  const PeerStats s = stats();
  publish("bytes_sent", static_cast<double>(s.bytes_sent));
  publish("bytes_received", static_cast<double>(s.bytes_received));
  publish("messages_sent", static_cast<double>(s.messages_sent));
  publish("messages_received", static_cast<double>(s.messages_received));
  publish("heartbeats", static_cast<double>(s.heartbeats_sent));
  publish("frames_dropped", static_cast<double>(s.frames_dropped));
  publish("recv_wait_seconds", s.recv_wait_seconds);
  publish("throttle_wait_seconds", s.throttle_wait_seconds);
  // A gauge, not a trace span: a span before the first phase would
  // stretch the traced extent that per-phase timings divide.
  cfg_.metrics->set(cfg_.rank, prefix_ + "/connect_seconds",
                    s.connect_seconds);
}

std::vector<PeerCommConfig> harness_configs(int nranks, const std::string& dir,
                                            const PeerRunOptions& opts) {
  SLIPFLOW_REQUIRE(nranks >= 1);
  std::vector<PeerCommConfig> cfgs(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    PeerCommConfig& cfg = cfgs[static_cast<std::size_t>(r)];
    cfg.rank = r;
    cfg.nranks = nranks;
    cfg.dir = dir;
    cfg.comm = opts.comm;
    cfg.connect_timeout = opts.connect_timeout;
    if (opts.faults) cfg.fault = opts.faults(r);
    SLIPFLOW_REQUIRE_MSG(
        cfg.fault.kill_at_phase < 0 && cfg.fault.stop_at_phase < 0,
        "rank " << r
                << ": a kill/stop fault signals the whole process, so it "
                   "runs only in workers started by launch_workers");
  }
  return cfgs;
}

}  // namespace slipflow::transport
