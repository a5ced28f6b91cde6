#pragma once
// Inclusive scan / parallel prefix (Eq 7 of the paper):
//   [x1, x2, ..., xn] -> [x1, x1#x2, ..., x1#x2#...#xn]
//
// Two schedules (colop/mpsim/schedule.h):
//   * scan_butterfly (default) — each rank maintains (prefix, block-total)
//     and exchanges totals with rank XOR 2^k; two operator applications per
//     element per phase, matching the paper's T_scan = log p*(ts+m*(tw+2)).
//     Works for any p: a rank whose upper partner does not exist simply
//     keeps going — its block total becomes stale, but stale totals are
//     only ever produced in the topmost incomplete block and are never
//     consumed as a lower-block total (proved in tests).
//   * scan_doubling (Hillis–Steele) — one-directional sends, one operator
//     application per phase; alternative cost profile used in ablations.
//
// Operators need only be associative; combinations happen in rank order.

#include <utility>

#include "colop/mpsim/comm.h"
#include "colop/mpsim/schedule.h"

namespace colop::mpsim {

template <typename T, typename Op>
[[nodiscard]] T scan(const Comm& comm, T value, Op op,
                     Algo algo = Algo::scan_butterfly) {
  COLOP_REQUIRE(algo == Algo::scan_butterfly || algo == Algo::scan_doubling,
                "scan: runs scan_butterfly or scan_doubling");
  const int p = comm.size();
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();
  const Schedule& s = shared_schedule(algo, p);

  if (algo == Algo::scan_doubling) {
    walk(s, comm.rank(),
         [&](const Step& st) { comm.send_raw(st.dst, value, tag); },
         [&](const Step& st) {
           value = land(st, std::move(value), comm.recv_raw<T>(st.src, tag), op);
         });
    return value;
  }
  T prefix = value;
  T total = std::move(value);
  walk(s, comm.rank(),
       [&](const Step& st) { comm.send_raw(st.dst, total, tag); },
       [&](const Step& st) {
         T other = comm.recv_raw<T>(st.src, tag);
         if (st.land == Land::lower) prefix = op(other, std::move(prefix));
         total = land(st, std::move(total), std::move(other), op);
       });
  return prefix;
}

}  // namespace colop::mpsim
