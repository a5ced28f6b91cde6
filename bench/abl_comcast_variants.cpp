// Ablation A2 — the three comcast implementations (Section 3.4) across the
// machine-parameter space: naive (linear local work), cost-optimal
// doubling (no redundant computation, auxiliary tuples on the wire) and
// bcast+repeat (redundant logarithmic computation, minimal traffic).
//
// The paper's observation: "this cost-optimal version yields a worse time
// complexity than the one based on repeat, because of the extra
// communication overhead for auxiliary variables."

#include <iostream>
#include <string>

#include "bench_common.h"
#include "colop/simnet/schedules.h"
#include "colop/support/table.h"

int main() {
  using namespace colop;
  using namespace colop::bench;

  Table t("Comcast variants on the machine model (times in s)",
          {"p", "m", "ts", "tw", "naive", "costopt", "repeat", "winner"});
  bool repeat_never_loses = true;
  for (int p : {8, 64}) {
    for (double m : {128.0, 32000.0}) {
      for (double ts : {100.0, 5000.0}) {
        for (double tw : {1.0, 25.0}) {
          const simnet::NetParams net{ts, tw};

          simnet::SimMachine naive(p, net);
          simnet::price(naive, mpsim::Algo::comcast_naive, m, 1, 2,
                        {.bcast = mpsim::Algo::bcast_butterfly});

          simnet::SimMachine opt(p, net);
          simnet::price(opt, mpsim::Algo::comcast_costopt, m, 2, 2, {}, 0);

          simnet::SimMachine rep(p, net);
          simnet::price(rep, mpsim::Algo::comcast_repeat, m, 1, 2,
                        {.bcast = mpsim::Algo::bcast_butterfly});

          const double tn = seconds(naive.makespan());
          const double to = seconds(opt.makespan());
          const double tr = seconds(rep.makespan());
          std::string winner = "repeat";
          if (tn < to && tn < tr) winner = "naive";
          if (to < tn && to < tr) winner = "costopt";
          repeat_never_loses &= (tr <= to && tr <= tn);
          t.add(p, m, ts, tw, tn, to, tr, winner);
        }
      }
    }
  }
  t.print(std::cout);
  std::cout << "\nbcast;repeat dominates everywhere (paper's conclusion): "
            << (repeat_never_loses ? "yes" : "NO") << "\n";
  return repeat_never_loses ? 0 : 1;
}
