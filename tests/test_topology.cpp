// Topology models: hop counts, transfer times, and their effect on
// schedule makespans.

#include <gtest/gtest.h>

#include "colop/simnet/schedules.h"

namespace colop::simnet {
namespace {

TEST(Topology, FullyConnectedIsAlwaysOneHop) {
  for (int a = 0; a < 16; ++a)
    for (int b = 0; b < 16; ++b)
      EXPECT_EQ(topology_hops(Topology::fully_connected, 16, a, b),
                a == b ? 0 : 1);
}

TEST(Topology, HypercubeIsHammingDistance) {
  EXPECT_EQ(topology_hops(Topology::hypercube, 16, 0, 1), 1);
  EXPECT_EQ(topology_hops(Topology::hypercube, 16, 0, 3), 2);
  EXPECT_EQ(topology_hops(Topology::hypercube, 16, 5, 10), 4);  // 0101^1010
  EXPECT_EQ(topology_hops(Topology::hypercube, 16, 7, 7), 0);
  // Butterfly partners are always adjacent on the hypercube.
  for (int k = 0; k < 4; ++k)
    for (int r = 0; r < 16; ++r)
      EXPECT_EQ(topology_hops(Topology::hypercube, 16, r, r ^ (1 << k)), 1);
}

TEST(Topology, Mesh2dIsManhattanDistance) {
  // p = 16 -> 4x4 grid, row-major.
  EXPECT_EQ(topology_hops(Topology::mesh2d, 16, 0, 1), 1);    // same row
  EXPECT_EQ(topology_hops(Topology::mesh2d, 16, 0, 4), 1);    // same column
  EXPECT_EQ(topology_hops(Topology::mesh2d, 16, 0, 5), 2);    // diagonal
  EXPECT_EQ(topology_hops(Topology::mesh2d, 16, 0, 15), 6);   // corners
  EXPECT_EQ(topology_hops(Topology::mesh2d, 16, 3, 12), 6);
}

TEST(Topology, TransferTimeAddsPerHopLatency) {
  const NetParams net{100, 2, Topology::mesh2d, 50};
  SimMachine m(16, net);
  // 0 -> 1: one hop, no penalty.
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 1, 10), 100 + 20);
  // 0 -> 15: six hops, five penalized.
  EXPECT_DOUBLE_EQ(m.transfer_time(0, 15, 10), 100 + 20 + 5 * 50);
}

TEST(Topology, DefaultParametersPreserveTheFullyConnectedModel) {
  const NetParams net{100, 2};
  SimMachine a(8, net);
  SimMachine b(8, NetParams{100, 2, Topology::hypercube, 0});
  price(a, mpsim::Algo::bcast_butterfly, 10, 1);
  price(b, mpsim::Algo::bcast_butterfly, 10, 1);
  EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
}

TEST(Topology, MeshSlowsButterflySchedules) {
  const NetParams full{100, 2, Topology::fully_connected, 400};
  const NetParams mesh{100, 2, Topology::mesh2d, 400};
  SimMachine a(64, full), b(64, mesh);
  price(a, mpsim::Algo::scan_butterfly, 16, 1, 1);
  price(b, mpsim::Algo::scan_butterfly, 16, 1, 1);
  EXPECT_GT(b.makespan(), a.makespan());
}

TEST(Topology, HypercubeIsFreeForButterflyButNotForBinomialLeaps) {
  // Butterfly phases are all 1-hop on the hypercube; the Bruck-style
  // dissemination barrier uses +2^k neighbours, which are multi-hop.
  const NetParams cube{100, 2, Topology::hypercube, 400};
  const NetParams full{100, 2, Topology::fully_connected, 400};
  {
    SimMachine a(32, cube), b(32, full);
    price(a, mpsim::Algo::allreduce_butterfly, 8, 1, 1);
    price(b, mpsim::Algo::allreduce_butterfly, 8, 1, 1);
    EXPECT_DOUBLE_EQ(a.makespan(), b.makespan());
  }
  {
    // rank 0 -> rank 3 (two hops on the cube) used by the binomial tree.
    SimMachine a(4, cube);
    a.send(0, 3, 1);
    EXPECT_DOUBLE_EQ(a.clock(0), 100 + 2 + 400);
  }
}

}  // namespace
}  // namespace colop::simnet
