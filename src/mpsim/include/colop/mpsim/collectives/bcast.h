#pragma once
// Broadcast (Eq 8 of the paper): [x1, _, ..., _] -> [x1, x1, ..., x1].
//
// Two schedules (colop/mpsim/schedule.h):
//   * bcast_binomial  — log2(p) rounds, the MPICH default for small/medium p;
//   * bcast_butterfly — pairwise-exchange dissemination, the implementation
//                       the paper's cost model (Eq 15) assumes.
// Both take ceil(log2 p) phases, matching T_bcast = log p * (ts + m*tw).

#include <optional>
#include <utility>

#include "colop/mpsim/comm.h"
#include "colop/mpsim/schedule.h"

namespace colop::mpsim {

/// Broadcast `value` from `root` to all ranks; every rank returns the
/// root's value.  Non-root inputs are ignored (the paper's `_`).
template <typename T>
[[nodiscard]] T bcast(const Comm& comm, T value, int root = 0,
                      Algo algo = Algo::bcast_binomial) {
  COLOP_REQUIRE(algo == Algo::bcast_binomial || algo == Algo::bcast_butterfly,
                "bcast: runs bcast_binomial or bcast_butterfly");
  const int r = comm.rank();
  const Schedule& s = shared_schedule(algo, comm.size(), {.root = root});
  if (comm.size() == 1) return value;
  const int tag = comm.next_collective_tag();

  if (algo == Algo::bcast_binomial) {
    walk(s, r, [&](const Step& st) { comm.send_raw(st.dst, value, tag); },
         [&](const Step& st) { value = comm.recv_raw<T>(st.src, tag); });
    return value;
  }
  // Butterfly: a rank that does not hold the value yet sends an empty half.
  std::optional<T> held;
  if (r == root) held = std::move(value);
  walk(s, r, [&](const Step& st) { comm.send_raw(st.dst, held, tag); },
       [&](const Step& st) {
         auto other = comm.recv_raw<std::optional<T>>(st.src, tag);
         if (!held && other) held = std::move(other);
       });
  COLOP_ASSERT(held.has_value(), "butterfly bcast did not reach this rank");
  return std::move(*held);
}

}  // namespace colop::mpsim
