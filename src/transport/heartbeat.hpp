#pragma once
/// \file heartbeat.hpp
/// HeartbeatSender — the worker-side half of the launcher's liveness
/// protocol, run by the process transports' endpoint core (PeerComm).
/// Connects to the monitor socket and sends kHeartbeat frames carrying
/// {last reported phase, sequence number} at a fixed interval from its
/// own thread, so a rank wedged inside a blocking recv (or connection
/// setup) is still visible to the monitor.

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "transport/fdio.hpp"
#include "transport/frame.hpp"

namespace slipflow::transport {

class HeartbeatSender {
 public:
  /// Connects to the monitor socket (blocking, bounded by
  /// connect_timeout) and starts beating immediately — before any mesh
  /// rendezvous, so a rank stuck in connection setup is already visible.
  HeartbeatSender(int rank, const std::string& monitor_path,
                  double interval_seconds, double connect_timeout)
      : rank_(rank), interval_(interval_seconds) {
    const double deadline = fdio::mono_now() + connect_timeout;
    fd_ = fdio::connect_retry(monitor_path, deadline,
                              "rank " + std::to_string(rank_) + ": heartbeat");
    thread_ = std::thread([this] { beat_loop(); });
  }

  ~HeartbeatSender() { stop(); }

  HeartbeatSender(const HeartbeatSender&) = delete;
  HeartbeatSender& operator=(const HeartbeatSender&) = delete;

  /// Record the phase the next beat reports. Safe from any thread.
  void note_phase(long long phase) {
    phase_.store(phase, std::memory_order_relaxed);
  }

  long long count() const { return count_.load(std::memory_order_relaxed); }

  /// Stop the beats and close the monitor connection. Idempotent.
  void stop() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  void beat_loop() {
    long long seq = 0;
    for (;;) {
      FrameHeader h;
      h.kind = FrameKind::kHeartbeat;
      h.src = rank_;
      h.count = 2;
      const double payload[2] = {
          static_cast<double>(phase_.load(std::memory_order_relaxed)),
          static_cast<double>(seq++)};
      const auto hdr = encode_frame_header(h);
      std::byte frame[kFrameHeaderBytes + 2 * sizeof(double)];
      std::memcpy(frame, hdr.data(), hdr.size());
      std::memcpy(frame + hdr.size(), payload, sizeof(payload));
      // Blocking write on the heartbeat's own fd; the monitor always
      // drains, and a dead monitor (EPIPE) just ends the beats.
      if (::send(fd_, frame, sizeof(frame), MSG_NOSIGNAL) < 0) return;
      count_.fetch_add(1, std::memory_order_relaxed);
      std::unique_lock<std::mutex> lk(mu_);
      if (cv_.wait_for(lk, std::chrono::duration<double>(interval_),
                       [this] { return stop_; }))
        return;
    }
  }

  const int rank_;
  const double interval_;
  int fd_ = -1;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<long long> count_{0};
  std::atomic<long long> phase_{-1};
};

}  // namespace slipflow::transport
