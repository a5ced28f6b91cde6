// Ablation A4 — topology-relativity of the estimates.  The paper's machine
// model is a virtual, fully connected system (Section 4.1); real machines
// of the era were hypercubes or meshes.  This harness re-runs the
// BS-Comcast experiment (Figure 7's three implementations) under per-hop
// latency models:
//   * hypercube   — butterfly partners are ONE hop: the model is exact;
//   * 2D mesh     — XOR partners are long Manhattan walks: every variant
//     slows down, and the fused variant (fewest phases) suffers least, so
//     the rules' advantage GROWS on weaker networks.

#include <iostream>
#include <string>

#include "bench_common.h"
#include "colop/simnet/schedules.h"
#include "colop/support/table.h"

namespace {

using namespace colop;
using namespace colop::bench;

double run_variant(const std::string& variant, int p, double m,
                   simnet::NetParams net) {
  simnet::SimMachine mach(p, net);
  if (variant == "bcast;scan") {
    simnet::price(mach, mpsim::Algo::bcast_butterfly, m, 1);
    simnet::price(mach, mpsim::Algo::scan_butterfly, m, 1, 1);
  } else if (variant == "costopt") {
    simnet::price(mach, mpsim::Algo::comcast_costopt, m, 2, 2, {}, 0);
  } else {
    simnet::price(mach, mpsim::Algo::comcast_repeat, m, 1, 2,
                  {.bcast = mpsim::Algo::bcast_butterfly});
  }
  return seconds(mach.makespan());
}

}  // namespace

int main() {
  constexpr double kBlock = 4096;
  constexpr double kHop = 800;  // per-hop latency (ops)

  Table t("BS-Comcast variants across interconnect topologies "
          "(p = 64, m = 4096, th = 800; times in s)",
          {"topology", "bcast;scan", "costopt", "bcast;repeat",
           "repeat speedup vs bcast;scan"});
  bool ok = true;
  double full_speedup = 0, mesh_speedup = 0;
  for (auto [name, topo] :
       {std::pair{"fully connected", simnet::Topology::fully_connected},
        std::pair{"hypercube", simnet::Topology::hypercube},
        std::pair{"2d mesh", simnet::Topology::mesh2d}}) {
    const simnet::NetParams net{kTs, kTw, topo, kHop};
    const double lhs = run_variant("bcast;scan", 64, kBlock, net);
    const double opt = run_variant("costopt", 64, kBlock, net);
    const double rep = run_variant("repeat", 64, kBlock, net);
    ok &= rep <= opt && opt <= lhs;
    const double speedup = lhs / rep;
    if (topo == simnet::Topology::fully_connected) full_speedup = speedup;
    if (topo == simnet::Topology::mesh2d) mesh_speedup = speedup;
    t.add(name, lhs, opt, rep, speedup);
  }
  t.print(std::cout);

  std::cout << "\n";
  Table hops("sanity: butterfly partner distances (p = 64)",
             {"phase k", "partner", "hypercube hops", "mesh hops"});
  for (int k = 0; k < 6; ++k) {
    const int partner = 0 ^ (1 << k);
    hops.add(k, partner,
             simnet::topology_hops(simnet::Topology::hypercube, 64, 0, partner),
             simnet::topology_hops(simnet::Topology::mesh2d, 64, 0, partner));
  }
  hops.print(std::cout);

  ok &= mesh_speedup >= full_speedup;
  std::cout << "\nordering holds on every topology and the fusion advantage "
               "does not shrink on the mesh: "
            << (ok ? "yes" : "NO") << "\n";
  return ok ? 0 : 1;
}
