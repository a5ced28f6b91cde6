// Threads-vs-simnet traffic differential.  The mpsim templates move the
// data and the simnet schedules price it; nothing else describes a
// collective.  These tests hold the two descriptions together by
// measurement: the messages the threads really send must be the messages
// simnet charges for, exactly, and the bytes on the wire must be 8 bytes
// per simnet word.
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

// --- per algorithm: each schedule in simnet/schedules.h vs its template --

TEST(TrafficDifferential, BcastBinomialAtEveryRoot) {
  for (int p = 1; p <= kMaxP; ++p)
    for (const int root : roots_for(p)) {
      const auto t = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
        (void)mpsim::bcast(comm, input(comm), root,
                           mpsim::BcastAlgo::binomial);
      });
      expect_traffic(at("bcast_binomial", p, root), t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::bcast_binomial(m, kM, 1, root);
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
                           mpsim::BcastAlgo::butterfly);
      });
      expect_traffic(at("bcast_butterfly", p, root), t,
                     simulate(p,
                              [&](simnet::SimMachine& m) {
                                simnet::bcast_butterfly(m, kM, 1, root);
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
                              simnet::bcast_vdg(m, kM, 1);
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
                                simnet::bcast_pipelined(m, kM, 1, segments);
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
                              simnet::allreduce_vdg(m, kM, 1, 1);
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
                                simnet::reduce_binomial(m, kM, 1, 1, root);
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
                              simnet::allreduce_butterfly(m, kM, 1, 1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, ScanButterflyAndDoubling) {
  for (int p = 1; p <= kMaxP; ++p) {
    const auto tb = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::scan(comm, input(comm), plus, mpsim::ScanAlgo::butterfly);
    });
    expect_traffic(at("scan_butterfly", p), tb,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::scan_butterfly(m, kM, 1, 1);
                            }),
                   Bytes::exact);
    const auto td = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::scan(comm, input(comm), plus, mpsim::ScanAlgo::doubling);
    });
    expect_traffic(at("scan_doubling", p), td,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::scan_doubling(m, kM, 1, 1);
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
                                simnet::reduce_balanced(m, kM, 1, 1, root);
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
                              simnet::scan_balanced(m, kM, 1, 1);
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
                              simnet::allreduce_balanced(m, kM, 1, 1);
                            }),
                   Bytes::exact);
  }
}

TEST(TrafficDifferential, ComcastVariants) {
  for (int p = 1; p <= kMaxP; ++p) {
    for (const auto algo :
         {mpsim::BcastAlgo::binomial, mpsim::BcastAlgo::butterfly}) {
      const bool butterfly = algo == mpsim::BcastAlgo::butterfly;
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
                                simnet::comcast_repeat(m, kM, 1, 1, butterfly);
                              }),
                     butterfly ? Bytes::at_most : Bytes::exact);
    }
    const auto tc = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::comcast_costopt(comm, input(comm), same, same, same, same);
    });
    expect_traffic(at("comcast_costopt", p), tc,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::comcast_costopt(m, kM, 1, 1, 1);
                            }),
                   Bytes::exact);
    // mpsim's naive comcast always broadcasts binomially.
    const auto tn = mpsim::run_spmd_traffic(p, [&](mpsim::Comm& comm) {
      (void)mpsim::comcast_naive(comm, input(comm), same);
    });
    expect_traffic(at("comcast_naive", p), tn,
                   simulate(p,
                            [&](simnet::SimMachine& m) {
                              simnet::comcast_naive(m, kM, 1, 1,
                                                    /*butterfly_bcast=*/false);
                            }),
                   Bytes::exact);
  }
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
    .bcast = exec::SimSchedules::Bcast::binomial,
    .reduce = exec::SimSchedules::Reduce::binomial};

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
