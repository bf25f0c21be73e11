#pragma once
/// Shared harness for running one transport test body over every
/// Communicator backend. Every multi-rank backend runs its ranks as
/// threads of the test process (run_ranks, run_ranks_sockets,
/// run_ranks_shm), so gtest records a failing assertion from a rank
/// thread directly and the whole matrix runs under ThreadSanitizer.

#include <gtest/gtest.h>

#include <functional>

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
  // A hung multi-endpoint test must fail in ctest, never
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
      run_ranks_sockets(nranks, fn, ro);
      return;
    }
    case Backend::kShm: {
      ShmRunOptions ro;
      ro.comm = guard();
      run_ranks_shm(nranks, fn, ro);
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
