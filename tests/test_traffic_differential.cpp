// Threads-vs-simnet traffic differential.  One schedule per algorithm
// (colop/mpsim/schedule.h): the mpsim collectives run it on real data and
// simnet prices it.  These tests check by measurement that the two sides
// read it alike: the messages the threads really send must be the
// messages simnet charges for, exactly, and the bytes on the wire must be
// 8 bytes per simnet word.
//
// Bytes may fall below 8 * words, never above, and only where a payload
// carries an undefined `_` (or nothing) that travels free while simnet
// charges the full block.  Each such case is named where it is checked:
//   * the butterfly bcast's empty halves (ranks without the value yet
//     send an empty optional);
//   * van de Geijn's integer segments (a block of m elements split into p
//     whole segments when p does not divide m);
//   * scan_balanced at a p that is not a power of two (partnerless ranks
//     degrade their auxiliary components to `_`).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/mpsim/mpsim.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"
#include "colop/simnet/schedules.h"
#include "colop/support/bits.h"

namespace colop {
namespace {

using i64 = std::int64_t;
using Block = std::vector<i64>;

constexpr int kMaxP = 9;
constexpr int kM = 12;  // elements per block, divisible by 1..4 and 6
const simnet::NetParams kNet{.ts = 100, .tw = 2};

/// The roots a rooted schedule is checked at: 0, 1 and p-1 (deduplicated).
std::vector<int> roots_for(int p) {
  std::vector<int> roots{0};
  if (p > 1) roots.push_back(1);
  if (p > 2) roots.push_back(p - 1);
  return roots;
}

Block plus(Block a, const Block& b) {
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
  return a;
}

Block same(Block b) { return b; }

Block input(const mpsim::Comm& comm) {
  return Block(kM, static_cast<i64>(comm.rank() + 1));
}

template <typename Schedule>
exec::SimRunResult simulate(int p, Schedule schedule) {
  simnet::SimMachine mach(p, kNet);
  schedule(mach);
  return {mach.makespan(), mach.messages(), mach.words_sent()};
}

enum class Bytes {
  exact,    ///< every simnet word is 8 bytes on the wire
  at_most,  ///< a named case where `_` or an empty payload travels free
};

void expect_traffic(const std::string& what, const mpsim::TrafficCounters& t,
                    const exec::SimRunResult& sim, Bytes bytes) {
  EXPECT_EQ(t.messages, sim.messages) << what;
  const double wire = static_cast<double>(t.bytes);
  if (bytes == Bytes::exact)
    EXPECT_DOUBLE_EQ(wire, 8 * sim.words) << what;
  else
    EXPECT_LE(wire, 8 * sim.words + 1e-9) << what;
}

std::string at(const char* name, int p, int root = 0) {
  return std::string(name) + " p=" + std::to_string(p) +
         " root=" + std::to_string(root);
}

// --- per algorithm: threads vs simnet on the same schedule ----------------

TEST(TrafficDifferential, BcastBinomialAtEveryRoot) {
  for (int p = 1; p <= kMaxP; ++p)
    for (const int root : roots_for(p)) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::bcast(comm, input(comm), root,
                           mpsim::Algo::bcast_binomial);
      });
      expect_traffic(at("bcast_binomial", p, root), t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::price(m, mpsim::Algo::bcast_binomial, kM, 1, 0,
                                              {.root = root});
                              }),
                     Bytes::exact);
    }
}

TEST(TrafficDifferential, BcastButterflyAtEveryRoot) {
  // Butterfly-bcast empty halves: a rank that does not hold the value yet
  // sends an empty optional, which simnet charges as a full block.
  for (int p = 1; p <= kMaxP; ++p)
    for (const int root : roots_for(p)) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::bcast(comm, input(comm), root,
                           mpsim::Algo::bcast_butterfly);
      });
      expect_traffic(at("bcast_butterfly", p, root), t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::price(m, mpsim::Algo::bcast_butterfly, kM, 1, 0,
                                              {.root = root});
                              }),
                     Bytes::at_most);
    }
}

TEST(TrafficDifferential, BcastVdg) {
  // vdg's integer segments: exact where p divides the block, otherwise the
  // whole-element segments may carry less than simnet's m/p words.
  for (int p = 1; p <= kMaxP; ++p) {
    const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::bcast_vdg(comm, input(comm));
    });
    expect_traffic(at("bcast_vdg", p), t,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::bcast_vdg, kM, 1);
                            }),
                   kM % p == 0 ? Bytes::exact : Bytes::at_most);
  }
}

TEST(TrafficDifferential, BcastPipelined) {
  for (int p = 1; p <= kMaxP; ++p)
    for (const int segments : {1, 3, 4}) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::bcast_pipelined(comm, input(comm), segments);
      });
      expect_traffic(at("bcast_pipelined", p) + " segments=" +
                         std::to_string(segments),
                     t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::price(m, mpsim::Algo::bcast_pipelined, kM, 1, 0,
                                              {.segments = segments});
                              }),
                     Bytes::exact);
    }
}

TEST(TrafficDifferential, AllreduceVdg) {
  for (int p = 1; p <= kMaxP; ++p) {
    const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::allreduce_vdg(comm, input(comm),
                                 [](i64 a, i64 b) { return a + b; });
    });
    expect_traffic(at("allreduce_vdg", p), t,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::allreduce_vdg, kM, 1, 1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, ReduceBinomialAtEveryRoot) {
  // A root other than 0 costs one more hop from rank 0 on both sides.
  for (int p = 1; p <= kMaxP; ++p)
    for (const int root : roots_for(p)) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::reduce(comm, input(comm), plus, root);
      });
      expect_traffic(at("reduce_binomial", p, root), t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::price(m, mpsim::Algo::reduce_binomial, kM, 1, 1,
                                              {.root = root});
                              }),
                     Bytes::exact);
    }
}

TEST(TrafficDifferential, AllreduceButterfly) {
  for (int p = 1; p <= kMaxP; ++p) {
    const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::allreduce(comm, input(comm), plus);
    });
    expect_traffic(at("allreduce_butterfly", p), t,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::allreduce_butterfly, kM, 1,
                                            1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, ScanButterflyAndDoubling) {
  for (int p = 1; p <= kMaxP; ++p) {
    const auto tb = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::scan(comm, input(comm), plus, mpsim::Algo::scan_butterfly);
    });
    expect_traffic(at("scan_butterfly", p), tb,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::scan_butterfly, kM, 1, 1);
                            }),
                   Bytes::exact);
    const auto td = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::scan(comm, input(comm), plus, mpsim::Algo::scan_doubling);
    });
    expect_traffic(at("scan_doubling", p), td,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::scan_doubling, kM, 1, 1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, ReduceBalancedAtEveryRoot) {
  for (int p = 1; p <= kMaxP; ++p)
    for (const int root : roots_for(p)) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::reduce_balanced(comm, input(comm), plus, same, root);
      });
      expect_traffic(at("reduce_balanced", p, root), t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::price(m, mpsim::Algo::reduce_balanced, kM, 1, 1,
                                              {.root = root});
                              }),
                     Bytes::exact);
    }
}

TEST(TrafficDifferential, ScanBalanced) {
  // The template transmits whatever the value holds; with no strip and no
  // undefined components every word travels.
  const auto op2 = [](const Block& lo, const Block& hi) {
    return std::make_pair(plus(lo, hi), plus(lo, hi));
  };
  for (int p = 1; p <= kMaxP; ++p) {
    const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::scan_balanced(comm, input(comm), op2, same);
    });
    expect_traffic(at("scan_balanced", p), t,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::scan_balanced, kM, 1, 1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, AllreduceBalanced) {
  // Off powers of two both sides run reduce_balanced + a binomial bcast.
  for (int p = 1; p <= kMaxP; ++p) {
    const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::allreduce_balanced(comm, input(comm), plus, same);
    });
    expect_traffic(at("allreduce_balanced", p), t,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::allreduce_balanced, kM, 1,
                                            1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, ComcastVariants) {
  for (int p = 1; p <= kMaxP; ++p) {
    for (const auto algo :
         {mpsim::Algo::bcast_binomial, mpsim::Algo::bcast_butterfly}) {
      const bool butterfly = algo == mpsim::Algo::bcast_butterfly;
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::comcast_repeat(comm, input(comm), same, same, same, same,
                                    0, algo);
      });
      // The butterfly variant inherits the butterfly bcast's empty halves.
      expect_traffic(at(butterfly ? "comcast_repeat(butterfly)"
                                  : "comcast_repeat(binomial)",
                        p),
                     t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::price(m, mpsim::Algo::comcast_repeat, kM,
                                              1, 1, {.bcast = algo});
                              }),
                     butterfly ? Bytes::at_most : Bytes::exact);
    }
    const auto tc = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::comcast_costopt(comm, input(comm), same, same, same, same);
    });
    expect_traffic(at("comcast_costopt", p), tc,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::comcast_costopt, kM, 1, 1,
                                            {}, 1);
                            }),
                   Bytes::exact);
    // mpsim's naive comcast always broadcasts binomially.
    const auto tn = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::comcast_naive(comm, input(comm), same);
    });
    expect_traffic(at("comcast_naive", p), tn,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::price(m, mpsim::Algo::comcast_naive, kM, 1, 1,
                                            {.bcast = mpsim::Algo::bcast_binomial});
                            }),
                   Bytes::exact);
  }
}

// The building blocks of van de Geijn's schedules and the rest of the
// substrate, priced straight from their generators.  A message carries
// whole blocks of kM elements: simnet's block is the p blocks of a rank.

exec::SimRunResult price(int p, mpsim::Algo algo, int root = 0,
                         double m = static_cast<double>(kM)) {
  return simulate(p, [&](simnet::SimMachine& mach) {
    simnet::price(mach, algo, m, 1, 1, {.root = root});
  });
}

std::vector<Block> blocks(const mpsim::Comm& comm) {
  return std::vector<Block>(static_cast<std::size_t>(comm.size()), input(comm));
}

TEST(TrafficDifferential, ScatterAndGatherAtEveryRoot) {
  for (int p = 1; p <= kMaxP; ++p)
    for (const int root : roots_for(p)) {
      const auto ts = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::scatter(comm, comm.rank() == root ? blocks(comm)
                                                       : std::vector<Block>{},
                             root);
      });
      expect_traffic(at("scatter_binomial", p, root), ts,
                     price(p, mpsim::Algo::scatter_binomial, root, p * kM),
                     Bytes::exact);
      const auto tg = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::gather(comm, input(comm), root);
      });
      expect_traffic(at("gather_binomial", p, root), tg,
                     price(p, mpsim::Algo::gather_binomial, root, p * kM),
                     Bytes::exact);
      EXPECT_EQ(ts.messages, static_cast<std::uint64_t>(p - 1));
      EXPECT_EQ(tg.messages, static_cast<std::uint64_t>(p - 1));
    }
}

TEST(TrafficDifferential, AllgatherAndAlltoall) {
  for (int p = 1; p <= kMaxP; ++p) {
    const auto tg = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::allgather(comm, input(comm));
    });
    expect_traffic(at("allgather_bruck", p), tg,
                   price(p, mpsim::Algo::allgather_bruck, 0, p * kM),
                   Bytes::exact);
    const auto ta = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::alltoall(comm, blocks(comm));
    });
    expect_traffic(at("alltoall_pairwise", p), ta,
                   price(p, mpsim::Algo::alltoall_pairwise, 0, p * kM),
                   Bytes::exact);
    EXPECT_EQ(tg.messages, static_cast<std::uint64_t>(
                               p * log2_ceil(static_cast<std::uint64_t>(p))));
    EXPECT_EQ(ta.messages, static_cast<std::uint64_t>(p * (p - 1)));
  }
}

TEST(TrafficDifferential, ReduceScatterBothOrders) {
  // Commutative operators halve at 2^k; the rest (and other p) go through
  // alltoall and a rank-ordered fold.
  for (int p = 1; p <= kMaxP; ++p)
    for (const bool commutative : {true, false}) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::reduce_scatter(comm, blocks(comm), plus, commutative);
      });
      const auto algo = commutative ? mpsim::Algo::reduce_scatter_halving
                                    : mpsim::Algo::reduce_scatter_alltoall;
      expect_traffic(at(commutative ? "reduce_scatter_halving"
                                    : "reduce_scatter_alltoall",
                        p),
                     t, price(p, algo, 0, p * kM), Bytes::exact);
    }
}

TEST(TrafficDifferential, Exscan) {
  for (int p = 1; p <= kMaxP; ++p) {
    const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::exscan(comm, input(comm), plus);
    });
    expect_traffic(at("exscan_doubling", p), t,
                   price(p, mpsim::Algo::exscan_doubling), Bytes::exact);
    std::uint64_t sends = 0;  // round d: every rank below p - d sends
    for (int d = 1; d < p; d <<= 1) sends += static_cast<std::uint64_t>(p - d);
    EXPECT_EQ(t.messages, sends);
  }
}

TEST(TrafficDifferential, RootAndSegmentChecksLiveInTheGenerator) {
  // One check serves both sides: the generator rejects the root before
  // either a rank thread or a simulated clock moves.
  for (const auto algo :
       {mpsim::Algo::bcast_binomial, mpsim::Algo::bcast_butterfly,
        mpsim::Algo::bcast_vdg, mpsim::Algo::reduce_binomial,
        mpsim::Algo::reduce_balanced, mpsim::Algo::scatter_binomial,
        mpsim::Algo::gather_binomial, mpsim::Algo::comcast_repeat})
    for (const int root : {-1, 4}) {
      EXPECT_THROW((void)mpsim::schedule(algo, 4, {.root = root}), Error);
      simnet::SimMachine mach(4, kNet);
      EXPECT_THROW(simnet::price(mach, algo, kM, 1, 0, {.root = root}), Error);
    }
  EXPECT_THROW((void)mpsim::schedule(mpsim::Algo::bcast_pipelined, 4,
                                     {.segments = 0}),
               Error);
  // Even a single rank, which sends nothing, rejects a root it lacks.
  EXPECT_THROW(mpsim::run_spmd(1, [](mpsim::Comm& comm) {
                 (void)mpsim::bcast(comm, i64{1}, 1);
               }),
               Error);
}

// --- per program: Table-1 LHS and greedy RHS, threads vs simnet ----------

std::vector<ir::Program> table1_lhs() {
  const auto add = ir::op_add();
  const auto mul = ir::op_mul();
  std::vector<ir::Program> out(13);
  out[0].scan(mul).reduce(add);
  out[1].scan(add).reduce(add);
  out[2].scan(mul).scan(add);
  out[3].scan(add).scan(add);
  out[4].bcast().scan(add);
  out[5].bcast().scan(mul).scan(add);
  out[6].bcast().scan(add).scan(add);
  out[7].bcast().reduce(add);
  out[8].bcast().scan(mul).reduce(add);
  out[9].bcast().scan(add).reduce(add);
  out[10].bcast().allreduce(add);
  out[11].scan(add).allreduce(add);
  out[12].reduce(add).bcast();
  return out;
}

// The thread executor runs mpsim's binomial bcast and binomial reduce;
// simnet prices the same trees under these schedules.
constexpr exec::SimSchedules kThreadSchedules{
    .bcast = mpsim::Algo::bcast_binomial,
    .reduce = mpsim::Algo::reduce_binomial};

TEST(TrafficDifferential, DefaultSchedulesAgreeOnTimeNotOnMessages) {
  // simnet's default prices the model's butterflies, the threads run
  // binomial trees: equal makespans at every power of two, different
  // message counts.
  ir::Program bcast;
  bcast.bcast();
  ir::Program reduce;
  reduce.reduce(ir::op_add());
  for (const int p : {2, 4, 8, 16, 32, 64})
    for (const ir::Program* prog : {&bcast, &reduce}) {
      const model::Machine mach{.p = p, .m = kM, .ts = 100, .tw = 2};
      const auto model = exec::run_on_simnet(*prog, mach);
      const auto threads = exec::run_on_simnet(*prog, mach, kThreadSchedules);
      EXPECT_DOUBLE_EQ(model.time, threads.time) << prog->show() << p;
      EXPECT_EQ(threads.messages, static_cast<std::uint64_t>(p - 1));
      EXPECT_GT(model.messages, threads.messages) << prog->show() << p;
    }
  const model::Machine p8{.p = 8, .m = kM, .ts = 100, .tw = 2};
  EXPECT_EQ(exec::run_on_simnet(bcast, p8).messages, 24u);
  EXPECT_EQ(exec::run_on_simnet(bcast, p8, kThreadSchedules).messages, 7u);
}

TEST(TrafficDifferential, Table1ProgramsOnThreadsMatchSimnet) {
  // A high start-up machine, so the greedy optimizer applies a rule to
  // every left-hand side.
  const rules::Optimizer greedy({.p = 64, .m = kM, .ts = 5000, .tw = 1});
  int runs = 0;
  for (const auto& lhs : table1_lhs()) {
    const ir::Program rhs = greedy.optimize(lhs).program;
    EXPECT_NE(rhs.show(), lhs.show()) << "no rule applied to " << lhs.show();
    for (const ir::Program* prog : {&lhs, &rhs}) {
      for (int p = 1; p <= kMaxP; ++p) {
        ir::Dist in;
        for (int r = 0; r < p; ++r)
          in.push_back(ir::Block(kM, ir::Value(static_cast<i64>(r % 3 + 1))));
        const auto threads = exec::run_on_threads_instrumented(*prog, in);
        const model::Machine mach{.p = p, .m = kM, .ts = 100, .tw = 2};
        const auto sim = exec::run_on_simnet(*prog, mach, kThreadSchedules);
        // scan_balanced at p not a power of two: partnerless ranks degrade
        // their auxiliary components to `_`, which travel free.
        const bool degrades =
            !is_pow2(static_cast<std::uint64_t>(p)) &&
            prog->show().find("scan_balanced") != std::string::npos;
        expect_traffic(prog->show() + " p=" + std::to_string(p),
                       threads.traffic, sim,
                       degrades ? Bytes::at_most : Bytes::exact);
        ++runs;
      }
    }
  }
  EXPECT_EQ(runs, 13 * 2 * kMaxP);
}

}  // namespace
}  // namespace colop
