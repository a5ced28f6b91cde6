// Pipelined chain broadcast + the broadcast-schedule autotuner.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/ir/ir.h"
#include "colop/mpsim/mpsim.h"
#include "colop/simnet/schedules.h"

namespace colop::mpsim {
namespace {

class PipelinedP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(ProcessorCounts, PipelinedP,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 13, 16),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(PipelinedP, DeliversTheFullBlockForVariousSegmentCounts) {
  const int p = GetParam();
  std::vector<std::int64_t> block(37);
  std::iota(block.begin(), block.end(), -5);
  for (int segments : {1, 2, 5, 37, 50}) {  // more segments than elements OK
    auto out = run_spmd_collect<std::vector<std::int64_t>>(p, [&](Comm& comm) {
      return bcast_pipelined(
          comm, comm.rank() == 0 ? block : std::vector<std::int64_t>{},
          segments);
    });
    for (int r = 0; r < p; ++r)
      EXPECT_EQ(out[static_cast<std::size_t>(r)], block)
          << "rank " << r << " segments " << segments;
  }
}

TEST_P(PipelinedP, NonzeroRoot) {
  const int p = GetParam();
  const int root = p / 2;
  std::vector<std::int64_t> block{1, 2, 3, 4, 5};
  auto out = run_spmd_collect<std::vector<std::int64_t>>(p, [&](Comm& comm) {
    return bcast_pipelined(
        comm, comm.rank() == root ? block : std::vector<std::int64_t>{}, 2,
        root);
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], block);
}

TEST(PipelinedSim, MakespanMatchesClosedForm) {
  // (p - 2 + segments) send slots of (ts + seg*tw) each... the chain's
  // critical path: last rank receives the final chunk after
  // (p - 1) + (segments - 1) hops.
  const simnet::NetParams net{100, 2};
  const int p = 8, segments = 4;
  const double m = 400, seg = m / segments;
  simnet::SimMachine mach(p, net);
  simnet::price(mach, mpsim::Algo::bcast_pipelined, m, 1, 0, {.segments = segments});
  const double hop = net.ts + seg * net.tw;
  EXPECT_DOUBLE_EQ(mach.makespan(), (p - 1 + segments - 1) * hop);
}

TEST(PipelinedSim, OptimalSegmentsMinimizesTheClosedForm) {
  for (int p : {4, 16, 64}) {
    for (double m : {100.0, 10000.0}) {
      const double ts = 150, tw = 3;
      const int k = simnet::optimal_segments(p, m, ts, tw);
      auto cost = [&](int kk) {
        return (p - 2 + kk) * (ts + m / kk * tw);
      };
      // k* beats (or ties) its neighbours.
      EXPECT_LE(cost(k), cost(k + 1) + 1e-9) << p << " " << m;
      if (k > 1) {
        EXPECT_LE(cost(k), cost(k - 1) + 1e-9) << p << " " << m;
      }
    }
  }
  EXPECT_EQ(simnet::optimal_segments(2, 1000, 100, 2), 1);
  EXPECT_EQ(simnet::optimal_segments(1, 1000, 100, 2), 1);
}

TEST(Autotune, PicksButterflyForSmallAndBandwidthSchedulesForLargeBlocks) {
  const auto [small_sched, t_small] =
      exec::best_bcast_schedule({.p = 64, .m = 4, .ts = 1000, .tw = 2});
  EXPECT_TRUE(small_sched == mpsim::Algo::bcast_butterfly ||
              small_sched == mpsim::Algo::bcast_binomial)
      << static_cast<int>(small_sched);

  const auto [large_sched, t_large] =
      exec::best_bcast_schedule({.p = 64, .m = 100000, .ts = 1000, .tw = 2});
  EXPECT_TRUE(large_sched == mpsim::Algo::bcast_vdg ||
              large_sched == mpsim::Algo::bcast_pipelined)
      << static_cast<int>(large_sched);
  EXPECT_GT(t_large, t_small);
}

TEST(Autotune, ReportedTimeMatchesDirectSimulation) {
  const model::Machine mach{.p = 16, .m = 2048, .ts = 300, .tw = 2};
  const auto [sched, t] = exec::best_bcast_schedule(mach);
  ir::Program prog;
  prog.bcast();
  EXPECT_DOUBLE_EQ(t, exec::run_on_simnet(prog, mach, {.bcast = sched}).time);
}

}  // namespace
}  // namespace colop::mpsim
