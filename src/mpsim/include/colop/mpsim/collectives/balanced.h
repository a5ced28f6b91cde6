#pragma once
// The paper's special collective operations (Sections 3.2, 3.3):
//
//   reduce_balanced(op, unit)  — reduction over the unique balanced tree,
//       for operators that are NOT associative (e.g. op_sr of rule
//       SR-Reduction).  `op(lo, hi)` combines two sibling values; `unit(x)`
//       is the paper's op((), x) case applied at unit nodes (nodes with an
//       empty left subtree).
//
//   allreduce_balanced         — same, plus redistribution of the result.
//       For p = 2^k the balanced tree *is* the complete tree and the
//       computation runs as a single butterfly (every rank computes the
//       root value locally); otherwise reduce_balanced + bcast.
//
//   scan_balanced(op2, degrade) — butterfly scan with a non-associative
//       operator producing a PAIR of results per exchange (rule SS-Scan):
//       op2(lo, hi) = (new_lo, new_hi).  `degrade(x)` is applied when a
//       rank has no partner in a phase (partner id >= p): the paper keeps
//       the first tuple component and marks the rest undefined.

#include <cstddef>
#include <type_traits>
#include <utility>

#include "colop/mpsim/collectives/bcast.h"
#include "colop/mpsim/collectives/reduce.h"
#include "colop/mpsim/comm.h"
#include "colop/support/bits.h"

namespace colop::mpsim {

/// Balanced-tree reduction (Fig. 4).  The root rank (0, or `root`) returns
/// the combined value; other ranks return their input unchanged.
template <typename T, typename Op, typename UnitOp>
[[nodiscard]] T reduce_balanced(const Comm& comm, T value, Op op,
                                UnitOp unit_op, int root = 0) {
  const Schedule& s =
      shared_schedule(Algo::reduce_balanced, comm.size(), {.root = root});
  return detail::run_reduce(comm, s, std::move(value), op, unit_op, root);
}

/// Balanced all-reduction ("the tree can be extended to a butterfly").
template <typename T, typename Op, typename UnitOp>
[[nodiscard]] T allreduce_balanced(const Comm& comm, T value, Op op,
                                   UnitOp unit_op) {
  const int p = comm.size();
  if (p == 1) return value;
  if (!is_pow2(static_cast<std::uint64_t>(p))) {
    value = reduce_balanced(comm, std::move(value), op, unit_op);
    return bcast(comm, std::move(value));
  }
  // Complete tree: the butterfly computes the identical combination on
  // every rank (both partners combine (lower, upper) in block order).
  const int tag = comm.next_collective_tag();
  walk(shared_schedule(Algo::allreduce_balanced, p), comm.rank(),
       [&](const Step& st) { comm.send_raw(st.dst, value, tag); },
       [&](const Step& st) {
         value = land(st, std::move(value), comm.recv_raw<T>(st.src, tag), op);
       });
  return value;
}

/// Balanced butterfly scan (Fig. 5).  Returns each rank's final value; the
/// caller extracts the scan result (first tuple component) afterwards.
///
/// `strip` is applied to the value before transmission: components that the
/// partner never reads (the scan component s) need not travel — this is why
/// the paper charges 3*tw, not 4*tw, for rule SS-Scan.  Defaults to the
/// identity (transmit everything).
template <typename T, typename Op2, typename Degrade,
          typename Strip = std::nullptr_t>
[[nodiscard]] T scan_balanced(const Comm& comm, T value, Op2 op2,
                              Degrade degrade, Strip strip = nullptr) {
  const int p = comm.size();
  const int r = comm.rank();
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();
  const Schedule& s = shared_schedule(Algo::scan_balanced, p);

  // A round in which this rank receives nothing has no partner for it:
  // keep the scan component, the auxiliary components become undefined
  // (paper: op((s,t,u,v), ()) = ((s,_,_,_),())).
  std::size_t done = 0;  // rounds this rank has finished
  for (const Visit& v : s.parts[static_cast<std::size_t>(r)]) {
    if (v.send) continue;
    for (; done < v.round; ++done) value = degrade(std::move(value));
    ++done;
    const Step& st = s.steps[v.step];
    if constexpr (std::is_same_v<Strip, std::nullptr_t>)
      comm.send_raw(st.src, value, tag);
    else
      comm.send_raw(st.src, strip(value), tag);
    T other = comm.recv_raw<T>(st.src, tag);
    if (st.land == Land::upper) {
      auto [lo, hi] = op2(std::move(value), std::move(other));
      value = std::move(lo);
    } else {
      auto [lo, hi] = op2(std::move(other), std::move(value));
      value = std::move(hi);
    }
  }
  for (; done < s.rounds(); ++done) value = degrade(std::move(value));
  return value;
}

}  // namespace colop::mpsim
