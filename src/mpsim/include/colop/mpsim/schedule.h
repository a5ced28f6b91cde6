#pragma once
// One description per collective algorithm.
//
// A Schedule is a list of rounds; a round is a list of steps.  A step
// moves a range of a block's segments from `src` to `dst`, where it
// replaces the destination's copy or is combined as the lower or upper
// operand, charging `ops` operator applications per element.  A `local`
// step moves nothing and only charges work on `dst`.  Within a round a rank
// performs its sends, then its receives and local steps, each in step
// order; a step flagged `pair` and the next one (its mirror b -> a) form
// one exchange over one link.
//
// A schedule also carries each rank's part, its steps in that order, so
// the mpsim collectives (collectives/*.h) walk only their own rank's steps
// on real data; simnet::price (simnet/schedules.h) charges the same value on
// virtual clocks.  A new algorithm is one Algo value and one generator
// case in schedule.cpp; simnet prices it with no code of its own.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace colop::mpsim {

enum class Algo : std::uint8_t {
  bcast_binomial,     ///< binomial tree (the thread executor's default)
  bcast_butterfly,    ///< pairwise-exchange dissemination (the paper's model)
  bcast_vdg,          ///< van de Geijn: scatter_binomial + allgather_bruck
  bcast_pipelined,    ///< chain 0 -> 1 -> ... in `segments` chunks
  reduce_binomial,    ///< binomial tree to 0, one more hop to another root
  reduce_balanced,    ///< the paper's balanced tree (Section 3.2)
  allreduce_butterfly,///< recursive doubling with an order-preserving fold
  allreduce_vdg,      ///< van de Geijn: reduce_scatter_halving + allgather
  allreduce_balanced, ///< butterfly at 2^k, else reduce_balanced + bcast
  scan_butterfly,     ///< (prefix, total) butterfly (Eq 17)
  scan_doubling,      ///< Hillis-Steele doubling
  scan_balanced,      ///< the paper's pair-valued butterfly (Fig. 5)
  exscan_doubling,
  scatter_binomial,
  gather_binomial,
  allgather_bruck,
  alltoall_pairwise,
  reduce_scatter_halving,   ///< recursive halving at 2^k, else the next
  reduce_scatter_alltoall,  ///< alltoall_pairwise + a rank-ordered fold
  comcast_naive,      ///< bcast, then rank k applies g k times
  comcast_repeat,     ///< bcast, then `repeat` over the digits of k (Fig. 6)
  comcast_costopt,    ///< the paper's cost-optimal doubling
};

enum class Land : std::uint8_t { replace, lower, upper, local };

struct Step {
  int src = 0;
  int dst = 0;
  int lo = 0;   ///< first segment carried; ranges wrap modulo `segments`
  int len = 1;  ///< number of segments carried
  Land land = Land::replace;
  int ops = 0;  ///< operator applications per element charged at dst
  int op = 0;   ///< which operator: 0, or 1 for comcast_costopt's e
  bool pair = false;
};

/// One entry of a rank's part of a schedule: it sends `step`, or it
/// receives or works on it, in round `round`.
struct Visit {
  std::size_t step = 0;
  std::size_t round = 0;
  bool send = false;
};

struct Schedule {
  int p = 1;
  int segments = 1;  ///< a block is cut into this many equal segments
  std::vector<Step> steps;        ///< all rounds, back to back
  std::vector<std::size_t> ends;  ///< ends[i]: one past round i's last step
  /// parts[r]: rank r's visits in walk order, per round its sends, then
  /// its receives and local steps, each in step order.
  std::vector<std::vector<Visit>> parts;

  [[nodiscard]] std::size_t rounds() const noexcept { return ends.size(); }
};

struct Spec {
  int root = 0;      ///< 0 <= root < p, checked for every algorithm
  int segments = 1;  ///< bcast_pipelined's chunk count (>= 1)
  Algo bcast = Algo::bcast_binomial;  ///< comcast_naive/_repeat's bcast
};

/// The one generator of every algorithm; throws colop::Error on an
/// invalid root or segment count.
[[nodiscard]] Schedule schedule(Algo algo, int p, const Spec& spec = {});

/// schedule(algo, p, spec), built once per argument set and kept for the
/// life of the process: the collectives look theirs up on every call.
[[nodiscard]] const Schedule& shared_schedule(Algo algo, int p,
                                              const Spec& spec = {});

/// Walk `rank`'s part of `s`: per round, `send(step)` for each step it
/// sends, then `recv(step)` for each step it receives or works on.  Visits
/// only the rank's own steps.
template <typename Send, typename Recv>
void walk(const Schedule& s, int rank, Send&& send, Recv&& recv) {
  for (const Visit& v : s.parts[static_cast<std::size_t>(rank)])
    v.send ? send(s.steps[v.step]) : recv(s.steps[v.step]);
}

/// Land a received value on this rank's own as `st` says.
template <typename T, typename Op>
[[nodiscard]] T land(const Step& st, T own, T in, Op& op) {
  if (st.land == Land::lower) return op(std::move(in), std::move(own));
  if (st.land == Land::upper) return op(std::move(own), std::move(in));
  return in;
}

}  // namespace colop::mpsim
