#pragma once
// Reduction (Eq 5/6 of the paper).
//
//   reduce:    [x1, ..., xn] -> [y, x2, ..., xn],   y = x1 # x2 # ... # xn
//   allreduce: [x1, ..., xn] -> [y, y, ..., y]
//
// Operators only need to be ASSOCIATIVE: every schedule here combines
// values strictly in rank (list) order, so non-commutative operators (e.g.
// matrix multiply, function composition) are safe — same guarantee MPI
// gives for user ops.

#include <utility>

#include "colop/mpsim/comm.h"
#include "colop/mpsim/schedule.h"

namespace colop::mpsim {

namespace detail {

/// Run a rooted reduction schedule: senders hand their accumulator over,
/// receivers land what arrives.  The root returns the combined value, every
/// other rank its own input unchanged (Eq 5).
template <typename T, typename Op, typename UnitOp>
[[nodiscard]] T run_reduce(const Comm& comm, const Schedule& s, T value, Op& op,
                           UnitOp& unit_op, int root) {
  const int r = comm.rank();
  const int tag = comm.next_collective_tag();
  T original = value;
  T acc = std::move(value);
  walk(s, r, [&](const Step& st) { comm.send_raw(st.dst, std::move(acc), tag); },
       [&](const Step& st) {
         acc = st.land == Land::local
                   ? unit_op(std::move(acc))
                   : land(st, std::move(acc), comm.recv_raw<T>(st.src, tag), op);
       });
  return r == root ? std::move(acc) : std::move(original);
}

}  // namespace detail

/// Tree reduction to `root` (reduce_binomial): a binomial tree toward rank
/// 0 combines in rank order, so associativity suffices; then one extra hop
/// if root != 0.
template <typename T, typename Op>
[[nodiscard]] T reduce(const Comm& comm, T value, Op op, int root = 0) {
  const Schedule& s =
      shared_schedule(Algo::reduce_binomial, comm.size(), {.root = root});
  if (comm.size() == 1) return value;
  auto no_unit = [](T x) { return x; };
  return detail::run_reduce(comm, s, std::move(value), op, no_unit, root);
}

/// All-reduce via recursive doubling (allreduce_butterfly).  Non-power-of-
/// two ranks are handled with an order-preserving pre-fold: among the first
/// 2*rem ranks, odd ranks fold into their even neighbour (keeping segments
/// contiguous), the remaining q = 2^k virtual ranks run the butterfly, and
/// the folded ranks receive the result back at the end.
template <typename T, typename Op>
[[nodiscard]] T allreduce(const Comm& comm, T value, Op op) {
  const int p = comm.size();
  if (p == 1) return value;
  const int tag = comm.next_collective_tag();
  // The pre-fold hands the value over; exchanges and the post-fold keep it.
  walk(shared_schedule(Algo::allreduce_butterfly, p), comm.rank(),
       [&](const Step& st) {
         const bool keep = st.pair || st.land == Land::replace;
         comm.send_raw(st.dst, keep ? T(value) : std::move(value), tag);
       },
       [&](const Step& st) {
         value = land(st, std::move(value), comm.recv_raw<T>(st.src, tag), op);
       });
  return value;
}

}  // namespace colop::mpsim
