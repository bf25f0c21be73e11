#pragma once
/// \file collectives.hpp
/// Deterministic collectives built from point-to-point send/recv,
/// shared by the real-process transports (SocketComm, ShmComm).
///
/// allgather runs as a binomial gather tree to rank 0 followed by a
/// binomial broadcast, concatenating contributions in rank order — the
/// exact layout ThreadComm's shared-memory allgather produces. Because
/// both process transports delegate here, their collective results are
/// byte-identical to each other by construction, not by coincidence.

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "transport/communicator.hpp"

namespace slipflow::transport {

/// Reserved tags of the collective trees; user tags are non-negative.
inline constexpr int kTagGatherTree = -101;
inline constexpr int kTagBcastTree = -102;

/// Unpack the gather-tree frame `peer` sent, which must carry the
/// contributions of exactly ranks peer .. peer+k-1, into `parts`. The
/// frame is the peer's bytes: unless every count and rank is a finite
/// integer in range and the length is exact, throw comm_error naming
/// the peer and the tree tag.
inline void decode_gather_frame(std::span<const double> msg, int peer, int k,
                                std::map<int, std::vector<double>>& parts) {
  const auto bad = [&](const std::string& what) {
    return comm_error("allgather: malformed gather-tree frame (tag " +
                      std::to_string(kTagGatherTree) + ") from rank " +
                      std::to_string(peer) + ": " + what);
  };
  const auto is = [](double v, double want) {
    return std::isfinite(v) && v == want;
  };
  if (msg.empty() || !is(msg[0], k))
    throw bad(msg.empty() ? "empty"
                          : "count " + std::to_string(msg[0]) + ", expected " +
                                std::to_string(k));
  std::size_t off = 1 + 2 * static_cast<std::size_t>(k);
  if (msg.size() < off)
    throw bad(std::to_string(msg.size()) + " doubles, shorter than its " +
              std::to_string(off) + "-double index");
  for (int i = 0; i < k; ++i) {
    const double r = msg[1 + 2 * static_cast<std::size_t>(i)];
    const double cnt = msg[2 + 2 * static_cast<std::size_t>(i)];
    if (!is(r, peer + i))
      throw bad("entry " + std::to_string(i) + " names rank " +
                std::to_string(r) + ", expected " + std::to_string(peer + i));
    if (!std::isfinite(cnt) || cnt < 0.0 || cnt != std::floor(cnt) ||
        cnt > static_cast<double>(msg.size() - off))
      throw bad("rank " + std::to_string(peer + i) + "'s count " +
                std::to_string(cnt) + " runs past the frame");
    const auto n = static_cast<std::size_t>(cnt);
    parts[peer + i].assign(msg.begin() + static_cast<std::ptrdiff_t>(off),
                           msg.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
  }
  if (off != msg.size())
    throw bad(std::to_string(msg.size() - off) + " trailing doubles");
}

/// Rank-ordered allgather over `comm`'s point-to-point primitives.
/// Handles ragged per-rank contribution sizes exactly.
// det-lint: rank-ordered — contributions are keyed by rank in an
// ordered map and concatenated 0..n-1 regardless of arrival order.
inline std::vector<double> binomial_allgather(Communicator& comm,
                                              std::span<const double> mine) {
  const int n = comm.size();
  const int me = comm.rank();
  if (n == 1) return {mine.begin(), mine.end()};

  // Binomial gather toward rank 0. Each message packs the sender's
  // collected contiguous rank range as [k, (rank_i, count_i)*k, payloads
  // in listed order], which keeps ragged contribution sizes exact.
  std::map<int, std::vector<double>> parts;
  parts[me] = {mine.begin(), mine.end()};
  for (int step = 1; step < n; step <<= 1) {
    if (me & step) {
      std::vector<double> msg;
      msg.push_back(static_cast<double>(parts.size()));
      for (const auto& [r, v] : parts) {
        msg.push_back(static_cast<double>(r));
        msg.push_back(static_cast<double>(v.size()));
      }
      for (const auto& [r, v] : parts) {
        (void)r;
        msg.insert(msg.end(), v.begin(), v.end());
      }
      comm.send(me - step, kTagGatherTree, msg);
      parts.clear();
      break;
    }
    if (me + step < n) {
      // The sender has gathered ranks peer .. peer+step-1, clipped at n.
      const int peer = me + step;
      decode_gather_frame(comm.recv(peer, kTagGatherTree), peer,
                          std::min(step, n - peer), parts);
    }
  }

  // Rank 0 concatenates in rank order (every rank's contribution is
  // there: each frame was checked to cover its sender's whole range),
  // then a binomial broadcast.
  std::vector<double> result;
  if (me == 0) {
    for (int r = 0; r < n; ++r) {
      const auto& v = parts.at(r);
      result.insert(result.end(), v.begin(), v.end());
    }
  }
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  bool have = me == 0;
  for (int step = 1 << (rounds - 1); step >= 1; step >>= 1) {
    if (have && me % (2 * step) == 0 && me + step < n)
      comm.send(me + step, kTagBcastTree, result);
    else if (!have && me % (2 * step) == step) {
      result = comm.recv(me - step, kTagBcastTree);
      have = true;
    }
  }
  return result;
}

}  // namespace slipflow::transport
