#pragma once
// Large-block collective schedules after van de Geijn ("On global combine
// operations", JPDC 22, 1994 — the paper's reference [17]):
//
//   bcast_vdg     = binomial scatter of block segments + Bruck allgather:
//                   ~2 log p start-ups but only ~2*(1 - 1/p)*m words per
//                   link, vs the butterfly's log p * m words.
//   allreduce_vdg = reduce-scatter (recursive halving) + allgather:
//                   each processor combines only its m/p segment.
//
// These beat the butterfly for large blocks and lose for small ones —
// exactly the kind of implementation choice Section 4.1 says the cost
// calculus must be re-run for.  Payloads are vectors (segments must be
// addressable); the operator for allreduce_vdg must be COMMUTATIVE
// (recursive halving interleaves rank sets, as in reduce_scatter).

#include <utility>
#include <vector>

#include "colop/mpsim/collectives/exscan.h"
#include "colop/mpsim/collectives/gatherscatter.h"
#include "colop/mpsim/comm.h"
#include "colop/mpsim/schedule.h"

namespace colop::mpsim {

namespace detail {

/// Split `block` into p nearly equal contiguous segments (first r get one
/// extra element when p does not divide the size).
template <typename E>
std::vector<std::vector<E>> split_segments(std::vector<E> block, int p) {
  std::vector<std::vector<E>> segs(static_cast<std::size_t>(p));
  const std::size_t n = block.size();
  const std::size_t base = n / static_cast<std::size_t>(p);
  const std::size_t extra = n % static_cast<std::size_t>(p);
  std::size_t at = 0;
  for (int i = 0; i < p; ++i) {
    const std::size_t len = base + (static_cast<std::size_t>(i) < extra ? 1 : 0);
    segs[static_cast<std::size_t>(i)].assign(
        std::make_move_iterator(block.begin() + static_cast<std::ptrdiff_t>(at)),
        std::make_move_iterator(block.begin() + static_cast<std::ptrdiff_t>(at + len)));
    at += len;
  }
  return segs;
}

template <typename E>
std::vector<E> join_segments(std::vector<std::vector<E>> segs) {
  std::vector<E> out;
  for (auto& s : segs)
    out.insert(out.end(), std::make_move_iterator(s.begin()),
               std::make_move_iterator(s.end()));
  return out;
}

}  // namespace detail

/// Scatter-allgather broadcast of a vector block (van de Geijn).
template <typename E>
[[nodiscard]] std::vector<E> bcast_vdg(const Comm& comm, std::vector<E> block,
                                       int root = 0) {
  const int p = comm.size();
  if (p == 1) return block;
  // Non-roots need the segment count only; sizes are carried by the data.
  auto segs = comm.rank() == root ? detail::split_segments(std::move(block), p)
                                  : std::vector<std::vector<E>>{};
  std::vector<E> mine = scatter(comm, std::move(segs), root);
  auto all = allgather(comm, std::move(mine));
  return detail::join_segments(std::move(all));
}

/// Pipelined chain broadcast: the block is cut into `segments` chunks that
/// flow down the processor chain 0 -> 1 -> ... -> p-1; chunk k+1 overlaps
/// chunk k's forwarding.  T ~ (p - 2 + segments) * (ts + (m/segments)*tw):
/// for large m and many segments the per-link traffic approaches 1*m*tw —
/// competitive with trees for huge blocks, at the price of O(p) start-ups
/// in the latency term.
template <typename E>
[[nodiscard]] std::vector<E> bcast_pipelined(const Comm& comm,
                                             std::vector<E> block,
                                             int segments, int root = 0) {
  const int p = comm.size();
  const Schedule& s = shared_schedule(Algo::bcast_pipelined, p,
                              {.root = root, .segments = segments});
  if (p == 1) return block;
  const int tag = comm.next_collective_tag();
  const bool at_root = comm.rank() == root;

  // The root sends its own cut; every other rank forwards what it gets.
  auto segs = at_root ? detail::split_segments(block, segments)  // keep `block`
                      : std::vector<std::vector<E>>(static_cast<std::size_t>(segments));
  walk(s, comm.rank(),
       [&](const Step& st) {
         auto& seg = segs[static_cast<std::size_t>(st.lo)];
         comm.send_raw(st.dst, at_root ? std::move(seg) : std::vector<E>(seg),
                       tag);
       },
       [&](const Step& st) {
         segs[static_cast<std::size_t>(st.lo)] =
             comm.recv_raw<std::vector<E>>(st.src, tag);
       });
  return at_root ? block : detail::join_segments(std::move(segs));
}

/// Reduce-scatter + allgather allreduce of a vector block (van de Geijn).
/// `op` combines two ELEMENTS and must be commutative.
template <typename E, typename Op>
[[nodiscard]] std::vector<E> allreduce_vdg(const Comm& comm,
                                           std::vector<E> block, Op op) {
  const int p = comm.size();
  if (p == 1) return block;
  auto segs = detail::split_segments(std::move(block), p);
  auto seg_op = [&op](std::vector<E> a, const std::vector<E>& b) {
    COLOP_ASSERT(a.size() == b.size(), "allreduce_vdg: segment size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = op(std::move(a[i]), b[i]);
    return a;
  };
  std::vector<E> mine = reduce_scatter(comm, std::move(segs), seg_op,
                                       /*commutative=*/true);
  auto all = allgather(comm, std::move(mine));
  return detail::join_segments(std::move(all));
}

}  // namespace colop::mpsim
