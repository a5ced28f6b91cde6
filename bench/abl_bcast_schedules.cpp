// Ablation A3 — the cost calculus is implementation-relative (Section 4.1:
// "If a different software implementation or dedicated hardware is used,
// the cost estimation must be repeated").  Butterfly vs binomial-tree
// schedules: identical makespans at powers of two (both take log p
// phases), different message/word traffic, and diverging behaviour at
// non-powers of two.

#include <iostream>

#include "bench_common.h"
#include "colop/simnet/schedules.h"
#include "colop/support/table.h"

int main() {
  using namespace colop;
  using namespace colop::bench;

  const simnet::NetParams net{kTs, kTw};
  constexpr double kBlock = 1024;

  Table t("bcast schedules: butterfly vs binomial",
          {"p", "T butterfly (s)", "T binomial (s)", "msgs bfly", "msgs binom"});
  for (int p : {4, 8, 16, 32, 64, 6, 12, 24, 48, 63}) {
    simnet::SimMachine bf(p, net);
    simnet::price(bf, mpsim::Algo::bcast_butterfly, kBlock, 1);
    simnet::SimMachine bn(p, net);
    simnet::price(bn, mpsim::Algo::bcast_binomial, kBlock, 1);
    t.add(p, seconds(bf.makespan()), seconds(bn.makespan()), bf.messages(),
          bn.messages());
  }
  t.print(std::cout);

  std::cout << "\n";
  Table t2("reduce schedules: butterfly (allreduce) vs binomial tree",
           {"p", "T butterfly (s)", "T binomial (s)", "msgs bfly", "msgs binom"});
  bool ok = true;
  for (int p : {4, 8, 16, 32, 64, 6, 12, 24, 48}) {
    simnet::SimMachine bf(p, net);
    simnet::price(bf, mpsim::Algo::allreduce_butterfly, kBlock, 1, 1);
    simnet::SimMachine bn(p, net);
    simnet::price(bn, mpsim::Algo::reduce_binomial, kBlock, 1, 1);
    ok &= bf.messages() > bn.messages();  // all-to-all result costs traffic
    t2.add(p, seconds(bf.makespan()), seconds(bn.makespan()), bf.messages(),
           bn.messages());
  }
  t2.print(std::cout);

  std::cout << "\nbutterfly trades extra messages for an all-ranks result: "
            << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
