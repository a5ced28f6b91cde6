#include "colop/mpsim/schedule.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <tuple>
#include <utility>

#include "colop/mpsim/balanced_tree.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::mpsim {
namespace {

struct Builder {
  Schedule s;

  void step(Step st) { s.steps.push_back(st); }
  void pair(Step ab, Step ba) {
    ab.pair = ba.pair = true;
    step(ab);
    step(ba);
  }
  void end_round() { s.ends.push_back(s.steps.size()); }
};

/// Round k pairs virtual ranks v and v ^ 2^k (both < q; real(v) maps them
/// to ranks).  At the upper partner the received value lands as `at_hi`
/// (the lower partner sees its mirror) with ops_hi / ops_lo charged.
template <typename Real>
void butterfly(Builder& b, int q, Real real, Land at_hi, int ops_hi,
               int ops_lo) {
  const Land at_lo = at_hi == Land::lower ? Land::upper : at_hi;
  for (int bit = 1; bit < q; bit <<= 1) {
    for (int v = 0; v < q; ++v) {
      const int w = v ^ bit;
      if (w < v || w >= q) continue;
      b.pair({.src = real(v), .dst = real(w), .land = at_hi, .ops = ops_hi},
             {.src = real(w), .dst = real(v), .land = at_lo, .ops = ops_lo});
    }
    b.end_round();
  }
}

int same(int r) { return r; }

/// Append `algo`'s rounds to `b`; a composed algorithm appends its parts in
/// turn (the parts that cut the block agree on the segment count).
void generate(Builder& b, Algo algo, int p, const Spec& spec = {}) {
  COLOP_REQUIRE(p >= 1, "schedule: need at least one rank");
  const int root = spec.root;
  COLOP_REQUIRE(root >= 0 && root < p,
                "collective: invalid root " + std::to_string(root) +
                    " for p=" + std::to_string(p));
  auto real = [&](int v) { return (v + root) % p; };  // virtual rank 0 = root
  switch (algo) {
    case Algo::bcast_binomial:
      for (int mask = 1; mask < p; mask <<= 1) {
        for (int v = 0; v < mask && v + mask < p; ++v)
          b.step({.src = real(v), .dst = real(v + mask)});
        b.end_round();
      }
      return;
    case Algo::bcast_butterfly:
      // A rank holds the value once its virtual rank is below 2^(k+1);
      // ranks without a partner (partner >= p) idle.
      butterfly(b, p, real, Land::replace, 0, 0);
      return;
    case Algo::bcast_vdg:
      generate(b, Algo::scatter_binomial, p, spec);
      return generate(b, Algo::allgather_bruck, p);
    case Algo::bcast_pipelined:
      COLOP_REQUIRE(spec.segments >= 1,
                    "bcast_pipelined: need at least one segment");
      b.s.segments = spec.segments;
      for (int k = 0; k < spec.segments; ++k)
        for (int v = 0; v + 1 < p; ++v) {
          b.step({.src = real(v), .dst = real(v + 1), .lo = k});
          b.end_round();
        }
      return;
    case Algo::reduce_binomial:
    case Algo::reduce_balanced:
      if (algo == Algo::reduce_binomial) {
        // Toward rank 0 in rank order, so associativity suffices.
        for (int mask = 1; mask < p; mask <<= 1) {
          for (int r = 0; r + mask < p; r += 2 * mask)
            b.step({.src = r + mask, .dst = r, .land = Land::upper, .ops = 1});
          b.end_round();
        }
      } else {
        // Height levels of the balanced tree are the rounds; a unit node
        // charges its owner the unit case op((), x).
        const BalancedTree tree = BalancedTree::build(p);
        int height = 0;
        for (const int ni : tree.internal_by_height()) {
          const BalancedNode& node = tree.node(ni);
          if (node.height != height && height != 0) b.end_round();
          height = node.height;
          b.step(node.is_unit()
                     ? Step{.src = node.owner(), .dst = node.owner(),
                            .land = Land::local, .ops = 1}
                     : Step{.src = tree.node(node.right).owner(),
                            .dst = node.owner(), .land = Land::upper, .ops = 1});
        }
        if (height != 0) b.end_round();
      }
      if (root != 0) {  // another root gets the result one hop on
        b.step({.src = 0, .dst = root});
        b.end_round();
      }
      return;
    case Algo::allreduce_butterfly: {
      // Among the first 2*rem ranks odd ones fold into their even
      // neighbour, q = 2^k run the butterfly, the folded ranks get the
      // result back.
      const int q = 1 << log2_floor(static_cast<std::uint64_t>(p));
      const int rem = p - q;
      for (int r = 0; r < 2 * rem; r += 2)
        b.step({.src = r + 1, .dst = r, .land = Land::upper, .ops = 1});
      if (rem > 0) b.end_round();
      butterfly(b, q, [&](int v) { return v < rem ? 2 * v : v + rem; },
                Land::lower, 1, 1);
      for (int r = 0; r < 2 * rem; r += 2) b.step({.src = r, .dst = r + 1});
      if (rem > 0) b.end_round();
      return;
    }
    case Algo::allreduce_vdg:
      generate(b, Algo::reduce_scatter_halving, p);
      return generate(b, Algo::allgather_bruck, p);
    case Algo::allreduce_balanced:
      // At 2^k the balanced tree is complete and the butterfly computes it
      // on every rank.
      if (is_pow2(static_cast<std::uint64_t>(p)))
        return generate(b, Algo::allreduce_butterfly, p);
      generate(b, Algo::reduce_balanced, p);
      return generate(b, Algo::bcast_binomial, p);
    case Algo::scan_butterfly:
      // The upper partner updates prefix and total, the lower its total.
      butterfly(b, p, same, Land::lower, 2, 1);
      return;
    case Algo::scan_balanced:
      butterfly(b, p, same, Land::lower, 1, 1);
      return;
    case Algo::scan_doubling:
    case Algo::exscan_doubling:
      // After round d a rank holds the last 2d inputs up to its own.  An
      // exclusive scan's first receipt only starts its accumulator.
      for (int d = 1; d < p; d <<= 1) {
        for (int r = 0; r + d < p; ++r)
          b.step({.src = r, .dst = r + d, .land = Land::lower,
                  .ops = algo == Algo::exscan_doubling && d > 1 ? 2 : 1});
        b.end_round();
      }
      return;
    case Algo::scatter_binomial:
      // At mask, virtual rank v (v % 2mask == 0) ships the upper part
      // [v + mask, min(v + 2mask, p)) of the segments it serves.
      b.s.segments = p;
      for (int mask = static_cast<int>(next_pow2(static_cast<std::uint64_t>(p)) / 2);
           mask >= 1; mask >>= 1) {
        for (int v = 0; v + mask < p; v += 2 * mask)
          b.step({.src = real(v), .dst = real(v + mask), .lo = real(v + mask),
                  .len = std::min(v + 2 * mask, p) - v - mask});
        b.end_round();
      }
      return;
    case Algo::gather_binomial:
      b.s.segments = p;
      for (int mask = 1; mask < p; mask <<= 1) {
        for (int v = 0; v + mask < p; v += 2 * mask)
          b.step({.src = real(v + mask), .dst = real(v), .lo = real(v + mask),
                  .len = std::min(mask, p - v - mask)});
        b.end_round();
      }
      return;
    case Algo::allgather_bruck:
      // Entering distance `step` a rank holds the values of ranks
      // [r, r + step) and sends the first min(step, p - step) to r - step.
      b.s.segments = p;
      for (int step = 1; step < p; step <<= 1) {
        for (int r = 0; r < p; ++r)
          b.step({.src = r, .dst = (r - step + p) % p, .lo = r,
                  .len = std::min(step, p - step)});
        b.end_round();
      }
      return;
    case Algo::reduce_scatter_halving:
      if (is_pow2(static_cast<std::uint64_t>(p))) {
        // Halving interleaves rank sets (the combine must commute); each
        // level ships the half of a rank's range its partner keeps.
        b.s.segments = p;
        for (int half = p / 2; half >= 1; half /= 2) {
          for (int r = 0; r < p; ++r)
            if (const int w = r ^ half; w > r)
              b.pair({.src = r, .dst = w, .lo = w & ~(half - 1), .len = half,
                      .land = Land::lower, .ops = 1},
                     {.src = w, .dst = r, .lo = r & ~(half - 1), .len = half,
                      .land = Land::upper, .ops = 1});
          b.end_round();
        }
        return;
      }
      [[fallthrough]];
    case Algo::reduce_scatter_alltoall:
    case Algo::alltoall_pairwise:
      b.s.segments = p;
      for (int i = 1; i < p; ++i) {
        for (int r = 0; r < p; ++r)
          b.step({.src = r, .dst = (r + i) % p, .lo = (r + i) % p,
                  .ops = algo == Algo::alltoall_pairwise ? 0 : 1});
        b.end_round();
      }
      return;
    case Algo::comcast_naive:
    case Algo::comcast_repeat:
      // bcast, then rank k (relative to root) applies the step function k
      // times, or once per binary digit of k.
      generate(b, spec.bcast, p, {.root = root});
      for (int r = 0; r < p; ++r) {
        const int k = (r - root + p) % p;
        b.step({.src = r, .dst = r, .land = Land::local,
                .ops = algo == Algo::comcast_naive
                           ? k
                           : static_cast<int>(binary_digits(
                                 static_cast<std::uint64_t>(k)))});
      }
      b.end_round();
      return;
    case Algo::comcast_costopt:
      // At step 2^k every rank i < 2^k computes o(s) (operator 0) for
      // i + 2^k, ships it, and keeps e(s) (operator 1).
      for (int step = 1; step < p; step <<= 1) {
        for (int r = 0; r < step && r + step < p; ++r)
          b.step({.src = r, .dst = r, .land = Land::local, .ops = 1});
        b.end_round();
        for (int r = 0; r < step; ++r) {
          if (r + step < p) b.step({.src = r, .dst = r + step});
          b.step({.src = r, .dst = r, .land = Land::local, .ops = 1, .op = 1});
        }
        b.end_round();
      }
      return;
  }
  COLOP_REQUIRE(false, "schedule: unknown algorithm");
}

}  // namespace

Schedule schedule(Algo algo, int p, const Spec& spec) {
  Builder b{{.p = p}};
  generate(b, algo, p, spec);
  // Sort every step into its ranks' parts in walk order.
  Schedule& s = b.s;
  s.parts.resize(static_cast<std::size_t>(p));
  auto add = [&](int rank, std::size_t step, std::size_t round, bool send) {
    s.parts[static_cast<std::size_t>(rank)].push_back({step, round, send});
  };
  for (std::size_t i = 0, begin = 0; i < s.rounds(); begin = s.ends[i++]) {
    for (std::size_t k = begin; k < s.ends[i]; ++k)
      if (s.steps[k].land != Land::local) add(s.steps[k].src, k, i, true);
    for (std::size_t k = begin; k < s.ends[i]; ++k)
      add(s.steps[k].dst, k, i, false);
  }
  return std::move(s);
}

const Schedule& shared_schedule(Algo algo, int p, const Spec& spec) {
  // std::map never moves a kept schedule.
  static std::shared_mutex mu;
  static std::map<std::tuple<Algo, int, int, int, Algo>, Schedule> kept;
  const auto key = std::tuple{algo, p, spec.root, spec.segments, spec.bcast};
  {  // every rank thread looks up at every collective: readers share
    const std::shared_lock read(mu);
    if (const auto it = kept.find(key); it != kept.end()) return it->second;
  }
  const std::lock_guard write(mu);
  auto it = kept.find(key);
  if (it == kept.end()) it = kept.emplace(key, schedule(algo, p, spec)).first;
  return it->second;
}

}  // namespace colop::mpsim
