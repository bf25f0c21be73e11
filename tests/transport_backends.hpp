#pragma once
/// Shared harness for running one transport test body over every
/// Communicator backend. Serial, Thread and Shm run in-process (Shm on
/// threads over mmap'd rings — run_ranks_shm — so it works under
/// ThreadSanitizer, which cannot follow forks); Socket forks real child
/// processes (run_ranks_sockets), so test bodies used with it must make
/// ALL assertions in-rank — a gtest failure inside a forked child is
/// converted to a nonzero exit below and resurfaces in the parent as a
/// comm_error carrying the child's stderr. For symmetry the Shm runner
/// applies the same in-rank conversion, so one body serves all four.

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "transport/serial_comm.hpp"
#include "transport/shm_comm.hpp"
#include "transport/socket_comm.hpp"
#include "transport/thread_comm.hpp"

namespace slipflow::transport::backend_testing {

enum class Backend { kSerial, kThread, kSocket, kShm };

inline const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kSerial: return "Serial";
    case Backend::kThread: return "Thread";
    case Backend::kSocket: return "Socket";
    case Backend::kShm: return "Shm";
  }
  return "?";
}

/// SerialComm only exists at one rank; the others scale.
inline bool supports(Backend b, int nranks) {
  return b != Backend::kSerial || nranks == 1;
}

inline void run_backend(Backend b, int nranks,
                        const std::function<void(Communicator&)>& fn,
                        const CommOptions& opts = {}) {
  // A hung multi-process/multi-endpoint test must fail in ctest, never
  // wedge it; bodies that test the timeout itself pass their own bound.
  const auto guard = [&opts] {
    CommOptions o = opts;
    if (o.recv_timeout <= 0.0) o.recv_timeout = 20.0;
    return o;
  };
  switch (b) {
    case Backend::kSerial: {
      SerialComm c;
      fn(c);
      return;
    }
    case Backend::kThread:
      run_ranks(nranks, fn, opts);
      return;
    case Backend::kSocket: {
      PeerRunOptions ro;
      ro.comm = guard();
      ro.wall_timeout = 90.0;
      run_ranks_sockets(
          nranks,
          [&fn](Communicator& c) {
            fn(c);
            if (::testing::Test::HasFailure())
              throw std::runtime_error(
                  "gtest assertion failed in this rank (see messages above)");
          },
          ro);
      return;
    }
    case Backend::kShm: {
      ShmRunOptions ro;
      ro.comm = guard();
      run_ranks_shm(
          nranks,
          [&fn](Communicator& c) {
            fn(c);
            if (::testing::Test::HasFailure())
              throw std::runtime_error(
                  "gtest assertion failed in this rank (see messages above)");
          },
          ro);
      return;
    }
  }
}

#define SLIPFLOW_SKIP_IF_UNSUPPORTED(nranks)                               \
  do {                                                                     \
    if (!slipflow::transport::backend_testing::supports(GetParam(),        \
                                                        (nranks)))         \
      GTEST_SKIP() << "backend does not support " << (nranks) << " ranks"; \
  } while (0)

}  // namespace slipflow::transport::backend_testing
