// Regenerates FIGURE 7 of the paper: run time of the three BS-Comcast
// implementations vs the number of processors, at fixed block size
// 32*10^3 — the paper's Parsytec-64/MPICH experiment, executed on the
// simnet discrete-event model (see bench_common.h for the calibration).
//
//   bcast;scan    — the rule's LHS (two collective operations)
//   comcast       — the cost-optimal doubling implementation (Section 3.4)
//   bcast;repeat  — the rule's RHS (what all Comcast rules produce)
//
// Expected shape (paper): all three grow with log p; bcast;scan is the
// slowest, bcast;repeat the fastest, comcast in between.

#include <iostream>

#include "bench_common.h"
#include "colop/simnet/schedules.h"
#include "colop/support/table.h"

int main() {
  using namespace colop;
  using namespace colop::bench;

  constexpr double kBlock = 32000;  // the paper's 32*10^3
  const simnet::NetParams net{kTs, kTw};

  Table fig7("Figure 7 — BS-Comcast: run time (s) vs processors, block size 32*10^3",
             {"p", "bcast;scan", "comcast", "bcast;repeat"});

  obs::MetricsRegistry reg;
  bool shape_ok = true;
  for (int p = 2; p <= 64; p *= 2) {
    simnet::SimMachine lhs(p, net);
    simnet::price(lhs, mpsim::Algo::bcast_butterfly, kBlock, 1);
    simnet::price(lhs, mpsim::Algo::scan_butterfly, kBlock, 1, 1);

    simnet::SimMachine opt(p, net);
    // Shared uu between o and e: 2 ops to advance, nothing extra to keep.
    simnet::price(opt, mpsim::Algo::comcast_costopt, kBlock, 2, 2, {}, 0);

    simnet::SimMachine rep(p, net);
    simnet::price(rep, mpsim::Algo::comcast_repeat, kBlock, 1, 2,
                  {.bcast = mpsim::Algo::bcast_butterfly});

    const double t_lhs = seconds(lhs.makespan());
    const double t_opt = seconds(opt.makespan());
    const double t_rep = seconds(rep.makespan());
    fig7.add(p, t_lhs, t_opt, t_rep);
    reg.add_row("fig7", {{"p", static_cast<double>(p)},
                         {"bcast_scan_s", t_lhs},
                         {"comcast_s", t_opt},
                         {"bcast_repeat_s", t_rep}});
    shape_ok &= (t_rep <= t_opt && t_opt <= t_lhs);
  }
  fig7.print(std::cout);
  reg.set("block", kBlock);
  reg.set("shape_ok", shape_ok ? 1 : 0);
  record_machine(reg, parsytec(64, kBlock));  // p is the swept axis
  write_bench_json("fig7_bs_comcast_procs", reg);
  std::cout << "\nordering bcast;repeat <= comcast <= bcast;scan at every p: "
            << (shape_ok ? "yes" : "NO") << "\n";
  return shape_ok ? 0 : 1;
}
