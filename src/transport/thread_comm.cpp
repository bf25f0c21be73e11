#include "transport/thread_comm.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "transport/peer_comm.hpp"

namespace slipflow::transport {

namespace {

/// One message on the in-process wire; `closes` marks the sender's end
/// of stream (no tag or payload).
struct Letter {
  int src = 0;
  int tag = 0;
  std::vector<double> payload;
  bool closes = false;
};

/// A rank's inbox: every peer pushes, only the owning rank drains.
struct Inbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Letter> queue;

  void push(Letter letter) {
    std::lock_guard<std::mutex> lk(mu);
    queue.push_back(std::move(letter));
    cv.notify_one();
  }
};

/// The threads-as-ranks wire under the shared endpoint core: append
/// pushes onto the destination's inbox, progress drains this rank's own
/// into the mailbox, and destruction sends every peer an end-of-stream
/// marker. Per-sender FIFO order means a peer drains all of a rank's
/// messages before its close.
class ThreadComm final : public PeerComm {
 public:
  ThreadComm(const PeerCommConfig& cfg, std::vector<Inbox>& inboxes)
      : PeerComm(cfg, "thread"),
        inboxes_(inboxes),
        closed_(static_cast<std::size_t>(cfg.nranks), false) {}

  ~ThreadComm() override {
    for (int p = 0; p < cfg_.nranks; ++p)
      if (p != cfg_.rank)
        inboxes_[static_cast<std::size_t>(p)].push(
            {cfg_.rank, 0, {}, /*closes=*/true});
  }

 private:
  void append(int dest, int tag, std::span<const double> data) override {
    inboxes_[static_cast<std::size_t>(dest)].push(
        {cfg_.rank, tag, {data.begin(), data.end()}});
  }

  /// Waits (when max_wait_seconds > 0 and the inbox is empty) until a
  /// letter arrives, then moves everything queued into the mailbox.
  void progress(double max_wait_seconds, int /*src_hint*/) override {
    Inbox& box = inboxes_[static_cast<std::size_t>(cfg_.rank)];
    {
      std::unique_lock<std::mutex> lk(box.mu);
      if (max_wait_seconds > 0.0)
        box.cv.wait_for(lk, std::chrono::duration<double>(max_wait_seconds),
                        [&box] { return !box.queue.empty(); });
      drained_.swap(box.queue);
    }
    for (Letter& l : drained_) {
      if (l.closes)
        closed_[static_cast<std::size_t>(l.src)] = true;
      else
        deliver(l.src, l.tag, std::move(l.payload));
    }
    drained_.clear();
  }

  bool peer_closed(int src) const override {
    return closed_[static_cast<std::size_t>(src)];
  }

  std::vector<Inbox>& inboxes_;
  std::vector<bool> closed_;  ///< end of stream drained, per peer
  std::deque<Letter> drained_;  ///< reused swap buffer of progress()
};

}  // namespace

void run_rank_threads(
    int nranks,
    const std::function<std::unique_ptr<Communicator>(int rank)>& make,
    const std::function<void(Communicator&)>& fn) {
  SLIPFLOW_REQUIRE(nranks >= 1);
  SLIPFLOW_REQUIRE(fn != nullptr);
  std::mutex mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      std::unique_ptr<Communicator> comm;
      try {
        comm = make(r);
        fn(*comm);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        if (!first_error) first_error = std::current_exception();
      }
      // Close only now: the peers' "closed" errors come after the cause.
      comm.reset();
    });
  }
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void run_ranks(int nranks, const std::function<void(Communicator&)>& fn) {
  run_ranks(nranks, fn, CommOptions{});
}

void run_ranks(int nranks, const std::function<void(Communicator&)>& fn,
               const CommOptions& opts) {
  PeerRunOptions ro;
  ro.comm = opts;
  const std::vector<PeerCommConfig> cfgs =
      harness_configs(nranks, /*dir=*/"", ro);
  std::vector<Inbox> inboxes(static_cast<std::size_t>(nranks));
  run_rank_threads(
      nranks,
      [&](int r) {
        return std::make_unique<ThreadComm>(
            cfgs[static_cast<std::size_t>(r)], inboxes);
      },
      fn);
}

}  // namespace slipflow::transport
