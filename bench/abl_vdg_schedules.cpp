// Ablation A5 — large-block schedules (van de Geijn, the paper's [17]) vs
// the butterfly the cost calculus assumes.  The scatter-allgather
// broadcast pays ~2x the start-ups but ships only ~2m words total, so it
// overtakes the butterfly once blocks are large — which moves the
// break-even points of the optimization rules: with a vdg broadcast,
// BS-Comcast's "always" column becomes machine-dependent.

#include <iostream>

#include "bench_common.h"
#include "colop/support/bits.h"
#include "colop/simnet/schedules.h"
#include "colop/support/table.h"

int main() {
  using namespace colop;
  using namespace colop::bench;

  const simnet::NetParams net{kTs, kTw};
  constexpr int kProcs = 64;

  Table t("broadcast schedules vs block size (p = 64; times in s)",
          {"m", "butterfly", "binomial", "van de Geijn", "winner"});
  bool crossover_seen = false, small_butterfly_wins = false;
  for (double m : {1.0, 64.0, 512.0, 4096.0, 32000.0}) {
    simnet::SimMachine bf(kProcs, net), bn(kProcs, net), vg(kProcs, net);
    simnet::price(bf, mpsim::Algo::bcast_butterfly, m, 1);
    simnet::price(bn, mpsim::Algo::bcast_binomial, m, 1);
    simnet::price(vg, mpsim::Algo::bcast_vdg, m, 1);
    const double tb = seconds(bf.makespan());
    const double tn = seconds(bn.makespan());
    const double tv = seconds(vg.makespan());
    const char* winner = tv < tb && tv < tn ? "vdg" : (tb <= tn ? "butterfly" : "binomial");
    if (m <= 64 && tb <= tv) small_butterfly_wins = true;
    if (m >= 4096 && tv < tb) crossover_seen = true;
    t.add(m, tb, tn, tv, winner);
  }
  t.print(std::cout);

  std::cout << "\n";
  Table t2("allreduce schedules vs block size (p = 64; times in s)",
           {"m", "butterfly", "van de Geijn", "winner"});
  for (double m : {1.0, 64.0, 512.0, 4096.0, 32000.0}) {
    simnet::SimMachine bf(kProcs, net), vg(kProcs, net);
    simnet::price(bf, mpsim::Algo::allreduce_butterfly, m, 1, 1);
    simnet::price(vg, mpsim::Algo::allreduce_vdg, m, 1, 1);
    const double tb = seconds(bf.makespan());
    const double tv = seconds(vg.makespan());
    t2.add(m, tb, tv, tv < tb ? "vdg" : "butterfly");
  }
  t2.print(std::cout);

  std::cout << "\n";
  // Impact on a rule: BS-Comcast's LHS (bcast;scan) vs RHS (bcast;repeat)
  // when the broadcast uses the vdg schedule on both sides.
  Table t3("BS-Comcast with vdg broadcasts (p = 64; times in s)",
           {"m", "vdg-bcast;scan", "vdg-bcast;repeat", "still improves"});
  bool rule_still_wins = true;
  for (double m : {64.0, 4096.0, 32000.0}) {
    simnet::SimMachine lhs(kProcs, net), rhs(kProcs, net);
    simnet::price(lhs, mpsim::Algo::bcast_vdg, m, 1);
    simnet::price(lhs, mpsim::Algo::scan_butterfly, m, 1, 1);
    simnet::price(rhs, mpsim::Algo::bcast_vdg, m, 1);
    for (int r = 0; r < kProcs; ++r)
      rhs.compute(r, 2 * m * colop::binary_digits(static_cast<std::uint64_t>(r)));
    const double tl = seconds(lhs.makespan());
    const double tr = seconds(rhs.makespan());
    rule_still_wins &= tr < tl;
    t3.add(m, tl, tr, tr < tl);
  }
  t3.print(std::cout);

  const bool ok = crossover_seen && small_butterfly_wins && rule_still_wins;
  std::cout << "\nvdg overtakes the butterfly at large blocks, loses at small "
               "ones, and BS-Comcast stays profitable: "
            << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
