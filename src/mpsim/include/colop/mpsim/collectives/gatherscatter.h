#pragma once
// Data-movement collectives that round out the substrate: scatter, gather,
// allgather, alltoall and a message-based dissemination barrier.  The
// optimization rules themselves only need bcast/reduce/scan, but a usable
// collective-operations library (and the paper's intro: "scatter, etc.")
// provides these as well.

#include <cstdint>
#include <utility>
#include <vector>

#include "colop/mpsim/comm.h"
#include "colop/mpsim/schedule.h"

namespace colop::mpsim {

/// Scatter: root holds [b_0, ..., b_{p-1}]; rank i receives b_i.
/// Binomial-tree schedule: each internal step forwards the half of the
/// blocks destined for the subtree, so total traffic is O(p) blocks.
template <typename T>
[[nodiscard]] T scatter(const Comm& comm, std::vector<T> blocks, int root = 0) {
  const int p = comm.size();
  const int r = comm.rank();
  const Schedule& s = shared_schedule(Algo::scatter_binomial, p, {.root = root});
  if (p == 1) {
    COLOP_REQUIRE(blocks.size() == 1, "scatter: root needs one block per rank");
    return std::move(blocks[0]);
  }
  const int tag = comm.next_collective_tag();

  // `payload` holds the blocks of the consecutive virtual ranks (root = 0)
  // this rank still serves; a send ships its upper `len` of them.
  std::vector<T> payload;
  if (r == root) {
    COLOP_REQUIRE(static_cast<int>(blocks.size()) == p,
                  "scatter: root needs one block per rank");
    payload.reserve(static_cast<std::size_t>(p));
    for (int j = 0; j < p; ++j)
      payload.push_back(std::move(blocks[static_cast<std::size_t>((j + root) % p)]));
  }
  walk(s, r,
       [&](const Step& st) {
         const auto at = payload.end() - st.len;
         std::vector<T> upper(std::make_move_iterator(at),
                              std::make_move_iterator(payload.end()));
         payload.erase(at, payload.end());
         comm.send_raw(st.dst, std::move(upper), tag);
       },
       [&](const Step& st) {
         payload = comm.recv_raw<std::vector<T>>(st.src, tag);
       });
  COLOP_ASSERT(!payload.empty(), "scatter: rank received no block");
  return std::move(payload[0]);
}

/// Gather: rank i contributes x_i; root returns [x_0, ..., x_{p-1}] (others
/// return an empty vector).  Binomial tree mirrored from scatter.
template <typename T>
[[nodiscard]] std::vector<T> gather(const Comm& comm, T value, int root = 0) {
  const int p = comm.size();
  const int r = comm.rank();
  const Schedule& s = shared_schedule(Algo::gather_binomial, p, {.root = root});
  const int tag = comm.next_collective_tag();

  // acc holds the values of consecutive virtual ranks from this one up.
  std::vector<T> acc;
  acc.push_back(std::move(value));
  walk(s, r, [&](const Step& st) { comm.send_raw(st.dst, std::move(acc), tag); },
       [&](const Step& st) {
         auto part = comm.recv_raw<std::vector<T>>(st.src, tag);
         acc.insert(acc.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
       });
  if (r != root) return {};
  // Rotate from virtual to real rank order.
  std::vector<T> result(static_cast<std::size_t>(p));
  for (int v = 0; v < p; ++v)
    result[static_cast<std::size_t>((v + root) % p)] =
        std::move(acc[static_cast<std::size_t>(v)]);
  return result;
}

/// Allgather via the Bruck dissemination algorithm (works for any p in
/// ceil(log2 p) phases): every rank returns [x_0, ..., x_{p-1}].
template <typename T>
[[nodiscard]] std::vector<T> allgather(const Comm& comm, T value) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return {std::move(value)};
  const int tag = comm.next_collective_tag();

  // have[j] = value originating at rank (r + j) % p; a message carries the
  // sender's first `len` values, which land after the receiver's own.
  std::vector<T> have;
  have.push_back(std::move(value));
  walk(shared_schedule(Algo::allgather_bruck, p), r,
       [&](const Step& st) {
         comm.send_raw(st.dst, std::vector<T>(have.begin(), have.begin() + st.len),
                       tag);
       },
       [&](const Step& st) {
         for (auto& v : comm.recv_raw<std::vector<T>>(st.src, tag))
           have.push_back(std::move(v));
       });
  std::vector<T> result(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j)
    result[static_cast<std::size_t>((r + j) % p)] =
        std::move(have[static_cast<std::size_t>(j)]);
  return result;
}

/// Alltoall: rank i sends blocks[j] to rank j; returns the received blocks
/// indexed by source.  Direct pairwise exchange (p-1 messages per rank).
template <typename T>
[[nodiscard]] std::vector<T> alltoall(const Comm& comm, std::vector<T> blocks) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(static_cast<int>(blocks.size()) == p,
                "alltoall: need one block per rank");
  const int tag = comm.next_collective_tag();
  std::vector<T> result(static_cast<std::size_t>(p));
  result[static_cast<std::size_t>(r)] = std::move(blocks[static_cast<std::size_t>(r)]);
  walk(shared_schedule(Algo::alltoall_pairwise, p), r,
       [&](const Step& st) {
         comm.send_raw(st.dst, std::move(blocks[static_cast<std::size_t>(st.lo)]),
                       tag);
       },
       [&](const Step& st) {
         result[static_cast<std::size_t>(st.src)] = comm.recv_raw<T>(st.src, tag);
       });
  return result;
}

/// Dissemination barrier implemented with messages (so it is visible in
/// traffic statistics, unlike Group::barrier's shared-memory barrier).
inline void barrier_dissemination(const Comm& comm) {
  const int p = comm.size();
  const int r = comm.rank();
  const int tag = comm.next_collective_tag();
  for (int step = 1; step < p; step <<= 1) {
    comm.send_raw((r + step) % p, std::uint8_t{1}, tag);
    (void)comm.recv_raw<std::uint8_t>((r - step % p + p) % p, tag);
  }
}

}  // namespace colop::mpsim
