#pragma once
// Exclusive scan and reduce-scatter: the remaining members of MPI's
// reduction family, rounding out the substrate (MPI_Exscan,
// MPI_Reduce_scatter_block).

#include <optional>
#include <utility>
#include <vector>

#include "colop/mpsim/collectives/gatherscatter.h"
#include "colop/mpsim/comm.h"
#include "colop/mpsim/schedule.h"
#include "colop/support/bits.h"

namespace colop::mpsim {

/// Exclusive scan: rank r > 0 returns x_0 # ... # x_{r-1}; rank 0 returns
/// nullopt (MPI leaves its buffer undefined).  Doubling schedule, combines
/// strictly in rank order (associativity suffices).
template <typename T, typename Op>
[[nodiscard]] std::optional<T> exscan(const Comm& comm, T value, Op op) {
  const int tag = comm.next_collective_tag();

  // buf covers [r - 2^k + 1, r] after phase k; acc covers [.., r-1].
  T buf = std::move(value);
  std::optional<T> acc;
  walk(shared_schedule(Algo::exscan_doubling, comm.size()), comm.rank(),
       [&](const Step& st) { comm.send_raw(st.dst, buf, tag); },
       [&](const Step& st) {
         T got = comm.recv_raw<T>(st.src, tag);  // the d inputs up to src
         acc = acc ? op(got, std::move(*acc)) : got;
         buf = op(std::move(got), std::move(buf));
       });
  return acc;
}

/// Reduce-scatter (block variant): every rank contributes one block per
/// destination; rank i returns the rank-ordered reduction of the blocks
/// addressed to it.
///
/// Schedules: recursive halving for p = 2^k — but halving interleaves
/// non-contiguous rank sets, so (exactly as in MPICH) it is used only when
/// the operator is declared COMMUTATIVE.  Non-commutative operators and
/// non-powers of two use alltoall + a strictly rank-ordered local fold.
template <typename T, typename Op>
[[nodiscard]] T reduce_scatter(const Comm& comm, std::vector<T> blocks, Op op,
                               bool commutative = true) {
  const int p = comm.size();
  const int r = comm.rank();
  COLOP_REQUIRE(static_cast<int>(blocks.size()) == p,
                "reduce_scatter: need one block per rank");
  if (p == 1) return std::move(blocks[0]);

  if (commutative && is_pow2(static_cast<std::uint64_t>(p))) {
    const int tag = comm.next_collective_tag();
    // `mine` holds the segments [base, base + mine.size()) this rank is
    // still responsible for; each level ships the half the partner keeps.
    int base = 0;
    std::vector<T> mine = std::move(blocks);
    walk(shared_schedule(Algo::reduce_scatter_halving, p), r,
         [&](const Step& st) {
           const auto at = mine.begin() + (st.lo - base);
           std::vector<T> out(std::make_move_iterator(at),
                              std::make_move_iterator(at + st.len));
           mine.erase(at, at + st.len);
           if (st.lo == base) base += st.len;
           comm.send_raw(st.dst, std::move(out), tag);
         },
         [&](const Step& st) {
           auto in = comm.recv_raw<std::vector<T>>(st.src, tag);
           for (std::size_t j = 0; j < in.size(); ++j)
             mine[j] = land(st, std::move(mine[j]), std::move(in[j]), op);
         });
    COLOP_ASSERT(base == r, "reduce_scatter: range did not converge to rank");
    return std::move(mine[0]);
  }

  // General p: alltoall then a rank-ordered local fold.
  auto received = alltoall(comm, std::move(blocks));
  T acc = std::move(received[0]);
  for (int i = 1; i < p; ++i)
    acc = op(std::move(acc), std::move(received[static_cast<std::size_t>(i)]));
  return acc;
}

}  // namespace colop::mpsim
