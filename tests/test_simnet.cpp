// The discrete-event simulator: machine primitives, schedule makespans vs
// the paper's closed forms (Eqs 15-17) at powers of two, and consistency
// between exec::run_on_simnet and the analytic model::program_time.

#include <gtest/gtest.h>

#include "colop/exec/sim_executor.h"
#include "colop/ir/ir.h"
#include "colop/model/cost.h"
#include "colop/rules/rules.h"
#include "colop/simnet/schedules.h"
#include "colop/support/bits.h"

namespace colop::simnet {
namespace {

constexpr NetParams kNet{.ts = 37, .tw = 3};

TEST(SimMachine, ComputeAdvancesOneClock) {
  SimMachine m(4, kNet);
  m.compute(2, 10);
  EXPECT_DOUBLE_EQ(m.clock(2), 10);
  EXPECT_DOUBLE_EQ(m.clock(0), 0);
  EXPECT_DOUBLE_EQ(m.makespan(), 10);
}

TEST(SimMachine, SendChargesSenderRecvWaits) {
  SimMachine m(2, kNet);
  m.send(0, 1, 5);  // ts + 5*tw = 37 + 15 = 52
  EXPECT_DOUBLE_EQ(m.clock(0), 52);
  EXPECT_DOUBLE_EQ(m.clock(1), 0);  // not yet received
  m.recv(1, 0);
  EXPECT_DOUBLE_EQ(m.clock(1), 52);
  EXPECT_EQ(m.messages(), 1u);
  EXPECT_DOUBLE_EQ(m.words_sent(), 5);
}

TEST(SimMachine, RecvAfterLocalWorkTakesMax) {
  SimMachine m(2, kNet);
  m.compute(1, 1000);  // receiver is busy past the arrival
  m.send(0, 1, 1);
  m.recv(1, 0);
  EXPECT_DOUBLE_EQ(m.clock(1), 1000);
}

TEST(SimMachine, ExchangeSynchronizesPartners) {
  SimMachine m(2, kNet);
  m.compute(0, 100);
  m.exchange(0, 1, 2);  // start at max(100,0)=100, +37+6
  EXPECT_DOUBLE_EQ(m.clock(0), 143);
  EXPECT_DOUBLE_EQ(m.clock(1), 143);
  EXPECT_EQ(m.messages(), 2u);
}

TEST(SimMachine, FifoChannelsAndMissingMessageThrows) {
  SimMachine m(2, kNet);
  m.send(0, 1, 1);
  m.send(0, 1, 2);
  m.recv(1, 0);
  m.recv(1, 0);
  EXPECT_THROW(m.recv(1, 0), Error);
}

TEST(SimMachine, ResetClearsState) {
  SimMachine m(2, kNet);
  m.send(0, 1, 1);
  m.reset();
  EXPECT_DOUBLE_EQ(m.makespan(), 0);
  EXPECT_EQ(m.messages(), 0u);
}

// --- schedules vs closed forms at powers of two ---------------------------

class SimPow2P : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Pow2, SimPow2P, ::testing::Values(2, 4, 8, 16, 32, 64),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(SimPow2P, BcastMatchesEq15) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  for (bool butterfly : {false, true}) {
    SimMachine mach(p, kNet);
    if (butterfly)
      price(mach, mpsim::Algo::bcast_butterfly, m, 1);
    else
      price(mach, mpsim::Algo::bcast_binomial, m, 1);
    EXPECT_DOUBLE_EQ(mach.makespan(), lg * (kNet.ts + m * kNet.tw))
        << (butterfly ? "butterfly" : "binomial");
  }
}

TEST_P(SimPow2P, ReduceMatchesEq16) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  SimMachine butterfly(p, kNet);
  price(butterfly, mpsim::Algo::allreduce_butterfly, m, 1, 1);
  EXPECT_DOUBLE_EQ(butterfly.makespan(), lg * (kNet.ts + m * (kNet.tw + 1)));

  SimMachine binomial(p, kNet);
  price(binomial, mpsim::Algo::reduce_binomial, m, 1, 1);
  EXPECT_DOUBLE_EQ(binomial.makespan(), lg * (kNet.ts + m * (kNet.tw + 1)));
}

TEST_P(SimPow2P, ScanMatchesEq17) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  SimMachine mach(p, kNet);
  price(mach, mpsim::Algo::scan_butterfly, m, 1, 1);
  EXPECT_DOUBLE_EQ(mach.makespan(), lg * (kNet.ts + m * (kNet.tw + 2)));
}

TEST_P(SimPow2P, BalancedCollectivesMatchTheirModelRows) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  // reduce_balanced with op_sr: 2 words, 4 ops -> log p (ts + m(2tw + 4)).
  SimMachine rb(p, kNet);
  price(rb, mpsim::Algo::reduce_balanced, m, 2, 4);
  EXPECT_DOUBLE_EQ(rb.makespan(), lg * (kNet.ts + m * (2 * kNet.tw + 4)));
  // scan_balanced with op_ss: 3 words, 8 ops -> log p (ts + m(3tw + 8)).
  SimMachine sb(p, kNet);
  price(sb, mpsim::Algo::scan_balanced, m, 3, 8);
  EXPECT_DOUBLE_EQ(sb.makespan(), lg * (kNet.ts + m * (3 * kNet.tw + 8)));
}

TEST_P(SimPow2P, ComcastRepeatMatchesBsComcastAfterRow) {
  const int p = GetParam();
  const double m = 10, lg = colop::log2_floor(static_cast<std::uint64_t>(p));
  SimMachine mach(p, kNet);
  price(mach, mpsim::Algo::comcast_repeat, m, 1, 2,
        {.bcast = mpsim::Algo::bcast_butterfly});
  EXPECT_DOUBLE_EQ(mach.makespan(), lg * (kNet.ts + m * (kNet.tw + 2)));
}

TEST(SimSchedules, NonPowerOfTwoStillCompletes) {
  for (int p : {3, 5, 6, 7, 11, 24, 63}) {
    SimMachine mach(p, kNet);
    price(mach, mpsim::Algo::bcast_binomial, 4, 1);
    price(mach, mpsim::Algo::allreduce_butterfly, 4, 1, 1);
    price(mach, mpsim::Algo::scan_butterfly, 4, 1, 1);
    price(mach, mpsim::Algo::reduce_balanced, 4, 2, 4);
    price(mach, mpsim::Algo::scan_balanced, 4, 3, 8);
    price(mach, mpsim::Algo::comcast_repeat, 4, 1, 2,
          {.bcast = mpsim::Algo::bcast_butterfly});
    price(mach, mpsim::Algo::comcast_costopt, 4, 2, 2, {}, 1);
    EXPECT_GT(mach.makespan(), 0) << "p=" << p;
  }
}

TEST(SimSchedules, CostoptSendsMoreWordsThanRepeat) {
  // Section 3.4: the cost-optimal comcast ships the auxiliary tuples.
  const int p = 64;
  const double m = 1000;
  SimMachine rep(p, kNet), opt(p, kNet);
  // Binomial bcast for the words comparison: the butterfly variant charges
  // full-size exchanges in both directions, which would mask the effect.
  price(rep, mpsim::Algo::comcast_repeat, m, 1, 2,
        {.bcast = mpsim::Algo::bcast_binomial});
  price(opt, mpsim::Algo::comcast_costopt, m, 2, 2, {}, 1);
  EXPECT_GT(opt.words_sent(), rep.words_sent());
  // ...and for large blocks it is slower (the paper's measurement).
  EXPECT_GT(opt.makespan(), rep.makespan());
}

// --- executor consistency ---------------------------------------------------

TEST(SimExecutor, MatchesAnalyticModelForPow2Programs) {
  using ir::Program;
  Program prog;
  prog.bcast().scan(ir::op_add()).reduce(ir::op_mul());
  for (int p : {2, 8, 64}) {
    const model::Machine mach{.p = p, .m = 50, .ts = 80, .tw = 2};
    const auto sim = exec::run_on_simnet(prog, mach);
    EXPECT_DOUBLE_EQ(sim.time, model::program_time(prog, mach)) << "p=" << p;
  }
}

TEST(SimExecutor, MatchesModelForRewrittenPrograms) {
  using ir::Program;
  Program lhs;
  lhs.scan(ir::op_mul()).scan(ir::op_add());
  const Program rhs = rules::rule_ss2_scan()->match(lhs, 0)->apply(lhs);
  for (int p : {4, 16, 64}) {
    const model::Machine mach{.p = p, .m = 30, .ts = 200, .tw = 1};
    EXPECT_DOUBLE_EQ(exec::run_on_simnet(lhs, mach).time,
                     model::program_time(lhs, mach));
    EXPECT_DOUBLE_EQ(exec::run_on_simnet(rhs, mach).time,
                     model::program_time(rhs, mach));
  }
}

TEST(SimExecutor, LocalRuleEliminatesAllTraffic) {
  using ir::Program;
  Program lhs;
  lhs.bcast().scan(ir::op_mul()).reduce(ir::op_add());
  const Program rhs = rules::rule_bsr2_local()->match(lhs, 0)->apply(lhs);
  const model::Machine mach{.p = 32, .m = 10, .ts = 100, .tw = 2};
  EXPECT_GT(exec::run_on_simnet(lhs, mach).messages, 0u);
  EXPECT_EQ(exec::run_on_simnet(rhs, mach).messages, 0u);
}

TEST(SimExecutor, ScheduleChoiceChangesTrafficNotPhases) {
  using ir::Program;
  Program prog;
  prog.bcast();
  const model::Machine mach{.p = 16, .m = 10, .ts = 100, .tw = 2};
  const auto butterfly = exec::run_on_simnet(
      prog, mach, {.bcast = mpsim::Algo::bcast_butterfly});
  const auto binomial = exec::run_on_simnet(
      prog, mach, {.bcast = mpsim::Algo::bcast_binomial});
  EXPECT_DOUBLE_EQ(butterfly.time, binomial.time);  // same log p phases
  EXPECT_GT(butterfly.messages, binomial.messages); // pairwise exchanges cost
}

}  // namespace
}  // namespace colop::simnet

namespace colop::simnet {
namespace {

TEST(SimExecutor, VdgSchedulesBeatButterflyForHugeBlocks) {
  using ir::Program;
  Program prog;
  prog.bcast().allreduce(ir::op_add());
  const model::Machine mach{.p = 64, .m = 32000, .ts = 100, .tw = 2};
  const auto butterfly = exec::run_on_simnet(prog, mach);
  const auto vdg = exec::run_on_simnet(
      prog, mach,
      {.bcast = mpsim::Algo::bcast_vdg,
       .reduce = mpsim::Algo::allreduce_vdg});
  EXPECT_LT(vdg.time, butterfly.time);

  // ...and lose for tiny blocks (more start-ups).
  const model::Machine tiny{.p = 64, .m = 1, .ts = 100, .tw = 2};
  EXPECT_GT(exec::run_on_simnet(prog, tiny,
                                {.bcast = mpsim::Algo::bcast_vdg,
                                 .reduce = mpsim::Algo::allreduce_vdg})
                .time,
            exec::run_on_simnet(prog, tiny).time);
}

TEST(SimExecutor, RootedVdgAndPipelinedBcastsStartAtTheStageRoot) {
  // As in mpsim, a rooted bcast stage scatters (vdg) or starts its chain
  // (pipelined) at the stage's root.
  const int p = 5;
  const int root = 2;
  const double m = 64;
  for (const auto algo :
       {mpsim::Algo::bcast_vdg, mpsim::Algo::bcast_pipelined}) {
    const mpsim::Spec spec{
        .root = root,
        .segments = algo == mpsim::Algo::bcast_pipelined
                        ? optimal_segments(p, m, kNet.ts, kNet.tw)
                        : 1};
    // From equal clocks every rank ends where the root-0 run's rank
    // `root` places before it does.
    SimMachine at0(p, kNet), rooted(p, kNet);
    price(at0, algo, m, 1, 0, {.segments = spec.segments});
    ir::Program bcast;
    bcast.bcast(root);
    exec::run_on_simnet(bcast, rooted, m, {.bcast = algo});
    for (int r = 0; r < p; ++r)
      EXPECT_DOUBLE_EQ(rooted.clock((r + root) % p), at0.clock(r))
          << "rank " << r;

    // After an uneven stage (a scan) the rooted schedule is what is priced,
    // and it ends elsewhere than the root-0 one.
    ir::Program prog;
    prog.scan(ir::op_add()).bcast(root);
    SimMachine run(p, kNet), want(p, kNet), want0(p, kNet);
    exec::run_on_simnet(prog, run, m, {.bcast = algo});
    for (SimMachine* mach : {&want, &want0})
      price(*mach, mpsim::Algo::scan_butterfly, m, 1, 1);
    price(want, algo, m, 1, 0, spec);
    price(want0, algo, m, 1, 0, {.segments = spec.segments});
    for (int r = 0; r < p; ++r)
      EXPECT_DOUBLE_EQ(run.clock(r), want.clock(r)) << "rank " << r;
    EXPECT_NE(run.makespan(), want0.makespan());
  }
}

TEST(SimExecutor, RejectsAlgorithmsOutsideEachStageFamily) {
  ir::Program prog;
  prog.reduce(ir::op_add()).bcast();
  const model::Machine mach{.p = 4, .m = 8, .ts = 100, .tw = 2};
  EXPECT_THROW((void)exec::run_on_simnet(
                   prog, mach, {.bcast = mpsim::Algo::scan_butterfly}),
               Error);
  EXPECT_THROW((void)exec::run_on_simnet(
                   prog, mach, {.reduce = mpsim::Algo::scan_butterfly}),
               Error);
  EXPECT_THROW((void)exec::run_on_simnet(
                   prog, mach, {.reduce = mpsim::Algo::reduce_balanced}),
               Error);
}

}  // namespace
}  // namespace colop::simnet
