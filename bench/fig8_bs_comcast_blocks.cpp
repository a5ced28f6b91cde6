// Regenerates FIGURE 8 of the paper: run time of the three BS-Comcast
// implementations vs block size, on 64 processors (simnet model, see
// bench_common.h).
//
// Expected shape (paper): linear growth in the block size; near the origin
// all variants cost about the start-up terms (bcast;scan pays 2*ts per
// phase, the others ts); for every block size
// bcast;repeat <= comcast <= bcast;scan.

#include <iostream>

#include "bench_common.h"
#include "colop/simnet/schedules.h"
#include "colop/support/table.h"

int main() {
  using namespace colop;
  using namespace colop::bench;

  constexpr int kProcs = 64;
  const simnet::NetParams net{kTs, kTw};

  Table fig8("Figure 8 — BS-Comcast: run time (s) vs block size, 64 processors",
             {"block", "bcast;scan", "comcast", "bcast;repeat"});

  obs::MetricsRegistry reg;
  bool shape_ok = true;
  double prev_lhs = 0;
  for (double m : {0.0, 2000.0, 4000.0, 8000.0, 12000.0, 16000.0, 20000.0,
                   24000.0, 28000.0, 32000.0}) {
    simnet::SimMachine lhs(kProcs, net);
    simnet::price(lhs, mpsim::Algo::bcast_butterfly, m, 1);
    simnet::price(lhs, mpsim::Algo::scan_butterfly, m, 1, 1);

    simnet::SimMachine opt(kProcs, net);
    simnet::price(opt, mpsim::Algo::comcast_costopt, m, 2, 2, {}, 0);

    simnet::SimMachine rep(kProcs, net);
    simnet::price(rep, mpsim::Algo::comcast_repeat, m, 1, 2,
                  {.bcast = mpsim::Algo::bcast_butterfly});

    const double t_lhs = seconds(lhs.makespan());
    const double t_opt = seconds(opt.makespan());
    const double t_rep = seconds(rep.makespan());
    fig8.add(m, t_lhs, t_opt, t_rep);
    reg.add_row("fig8", {{"m", m},
                         {"bcast_scan_s", t_lhs},
                         {"comcast_s", t_opt},
                         {"bcast_repeat_s", t_rep}});
    shape_ok &= (t_rep <= t_opt && t_opt <= t_lhs);  // ordering
    shape_ok &= (t_lhs >= prev_lhs);                 // monotone in m
    prev_lhs = t_lhs;
  }
  fig8.print(std::cout);
  reg.set("p", kProcs);
  reg.set("shape_ok", shape_ok ? 1 : 0);
  record_machine(reg, parsytec(kProcs, 32000.0));  // m is the swept axis
  write_bench_json("fig8_bs_comcast_blocks", reg);
  std::cout << "\nordering + monotone growth in block size: "
            << (shape_ok ? "yes" : "NO") << "\n";
  return shape_ok ? 0 : 1;
}
