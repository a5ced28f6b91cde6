// Collective operations vs the paper's list semantics (Eqs 5-8),
// parameterized over processor counts including non-powers of two
// (the paper deliberately illustrates with 6 processors).

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "colop/mpsim/mpsim.h"
#include "colop/support/rng.h"

namespace colop::mpsim {
namespace {

using i64 = std::int64_t;

std::vector<i64> random_inputs(int p, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<i64> xs(static_cast<std::size_t>(p));
  for (auto& x : xs) x = rng.uniform(-50, 50);
  return xs;
}

// Reference semantics from the paper.
std::vector<i64> ref_scan(const std::vector<i64>& xs, auto op) {
  std::vector<i64> out(xs.size());
  i64 acc = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    acc = i == 0 ? xs[i] : op(acc, xs[i]);
    out[i] = acc;
  }
  return out;
}

i64 ref_reduce(const std::vector<i64>& xs, auto op) {
  i64 acc = xs[0];
  for (std::size_t i = 1; i < xs.size(); ++i) acc = op(acc, xs[i]);
  return acc;
}

class CollectivesP : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, CollectivesP,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12,
                                           13, 16, 17, 24, 31, 32, 33, 64),
                         [](const auto& pinfo) {
                           return "p" + std::to_string(pinfo.param);
                         });

TEST_P(CollectivesP, BcastBinomialFromRankZero) {
  const int p = GetParam();
  auto out = run_spmd_collect<i64>(p, [](Comm& comm) {
    const i64 mine = comm.rank() == 0 ? 42 : -1;
    return bcast(comm, mine);
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], 42) << "rank " << r;
}

TEST_P(CollectivesP, BcastButterflyFromRankZero) {
  const int p = GetParam();
  auto out = run_spmd_collect<i64>(p, [](Comm& comm) {
    const i64 mine = comm.rank() == 0 ? 37 : -1;
    return bcast(comm, mine, 0, Algo::bcast_butterfly);
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], 37) << "rank " << r;
}

TEST_P(CollectivesP, BcastFromNonzeroRoot) {
  const int p = GetParam();
  const int root = (p - 1) / 2;
  for (auto algo : {Algo::bcast_binomial, Algo::bcast_butterfly}) {
    auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
      const i64 mine = comm.rank() == root ? 7 : -1;
      return bcast(comm, mine, root, algo);
    });
    for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], 7) << "rank " << r;
  }
}

TEST_P(CollectivesP, BcastOfBlocks) {
  const int p = GetParam();
  std::vector<double> block(64);
  std::iota(block.begin(), block.end(), 0.5);
  auto out = run_spmd_collect<std::vector<double>>(p, [&](Comm& comm) {
    return bcast(comm, comm.rank() == 0 ? block : std::vector<double>{});
  });
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], block);
}

TEST_P(CollectivesP, ReduceSumToRootKeepsOthersUnchanged) {
  const int p = GetParam();
  const auto xs = random_inputs(p, 101);
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return reduce(comm, xs[static_cast<std::size_t>(comm.rank())], plus);
  });
  EXPECT_EQ(out[0], ref_reduce(xs, plus));
  // Eq 5: non-root elements keep their input.
  for (int r = 1; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], xs[static_cast<std::size_t>(r)]);
}

TEST_P(CollectivesP, ReduceToNonzeroRoot) {
  const int p = GetParam();
  const int root = p - 1;
  const auto xs = random_inputs(p, 202);
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return reduce(comm, xs[static_cast<std::size_t>(comm.rank())], plus, root);
  });
  EXPECT_EQ(out[static_cast<std::size_t>(root)], ref_reduce(xs, plus));
  for (int r = 0; r < p; ++r)
    if (r != root) { EXPECT_EQ(out[static_cast<std::size_t>(r)], xs[static_cast<std::size_t>(r)]); }
}

TEST_P(CollectivesP, ReduceNonCommutativeStringConcat) {
  // String concatenation is associative but NOT commutative: this pins down
  // that every schedule combines strictly in rank order.
  const int p = GetParam();
  auto out = run_spmd_collect<std::string>(p, [](Comm& comm) {
    return reduce(comm, std::string(1, static_cast<char>('a' + comm.rank() % 26)),
                  [](std::string a, const std::string& b) { return std::move(a) += b; });
  });
  std::string expect;
  for (int r = 0; r < p; ++r) expect += static_cast<char>('a' + r % 26);
  EXPECT_EQ(out[0], expect);
}

TEST_P(CollectivesP, AllreduceSum) {
  const int p = GetParam();
  const auto xs = random_inputs(p, 303);
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return allreduce(comm, xs[static_cast<std::size_t>(comm.rank())], plus);
  });
  const i64 total = ref_reduce(xs, plus);
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], total) << "rank " << r;
}

TEST_P(CollectivesP, AllreduceNonCommutativeStringConcat) {
  const int p = GetParam();
  auto out = run_spmd_collect<std::string>(p, [](Comm& comm) {
    return allreduce(comm, std::string(1, static_cast<char>('A' + comm.rank() % 26)),
                     [](std::string a, const std::string& b) { return std::move(a) += b; });
  });
  std::string expect;
  for (int r = 0; r < p; ++r) expect += static_cast<char>('A' + r % 26);
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], expect) << "rank " << r;
}

TEST_P(CollectivesP, AllreduceMin) {
  const int p = GetParam();
  const auto xs = random_inputs(p, 404);
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return allreduce(comm, xs[static_cast<std::size_t>(comm.rank())],
                     [](i64 a, i64 b) { return std::min(a, b); });
  });
  const i64 expect = *std::min_element(xs.begin(), xs.end());
  for (int r = 0; r < p; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], expect);
}

TEST_P(CollectivesP, ScanButterflySum) {
  const int p = GetParam();
  const auto xs = random_inputs(p, 505);
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return scan(comm, xs[static_cast<std::size_t>(comm.rank())], plus);
  });
  EXPECT_EQ(out, ref_scan(xs, plus));
}

TEST_P(CollectivesP, ScanDoublingSum) {
  const int p = GetParam();
  const auto xs = random_inputs(p, 606);
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return scan(comm, xs[static_cast<std::size_t>(comm.rank())], plus, Algo::scan_doubling);
  });
  EXPECT_EQ(out, ref_scan(xs, plus));
}

TEST_P(CollectivesP, ScanNonCommutativeStringConcat) {
  const int p = GetParam();
  for (auto algo : {Algo::scan_butterfly, Algo::scan_doubling}) {
    auto out = run_spmd_collect<std::string>(p, [&](Comm& comm) {
      return scan(comm, std::string(1, static_cast<char>('a' + comm.rank() % 26)),
                  [](std::string a, const std::string& b) { return std::move(a) += b; },
                  algo);
    });
    std::string expect;
    for (int r = 0; r < p; ++r) {
      expect += static_cast<char>('a' + r % 26);
      EXPECT_EQ(out[static_cast<std::size_t>(r)], expect) << "rank " << r;
    }
  }
}

TEST_P(CollectivesP, ScanMax) {
  const int p = GetParam();
  const auto xs = random_inputs(p, 707);
  const auto mx = [](i64 a, i64 b) { return std::max(a, b); };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return scan(comm, xs[static_cast<std::size_t>(comm.rank())], mx);
  });
  EXPECT_EQ(out, ref_scan(xs, mx));
}

TEST_P(CollectivesP, ComcastNaiveRepeatAndCostoptAgree) {
  // Comcast target pattern: [b,_,...,_] -> [b, g b, ..., g^(n-1) b] with
  // g = (+b).  All three implementations must produce the identical list.
  const int p = GetParam();
  const i64 b = 5;
  auto pairi = [](i64 v) { return std::make_pair(v, v); };
  auto e = [](std::pair<i64, i64> s) { return std::make_pair(s.first, s.second + s.second); };
  auto o = [](std::pair<i64, i64> s) {
    return std::make_pair(s.first + s.second, s.second + s.second);
  };
  auto fst = [](std::pair<i64, i64> s) { return s.first; };

  auto naive = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return comcast_naive(comm, comm.rank() == 0 ? b : -1,
                         [&](i64 v) { return v + b; });
  });
  auto rep = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return comcast_repeat(comm, comm.rank() == 0 ? b : -1, pairi, e, o, fst);
  });
  auto opt = run_spmd_collect<i64>(p, [&](Comm& comm) {
    return comcast_costopt(comm, comm.rank() == 0 ? b : -1, pairi, e, o, fst);
  });

  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(naive[static_cast<std::size_t>(r)], b * (r + 1)) << "rank " << r;
    EXPECT_EQ(rep[static_cast<std::size_t>(r)], b * (r + 1)) << "rank " << r;
    EXPECT_EQ(opt[static_cast<std::size_t>(r)], b * (r + 1)) << "rank " << r;
  }
}

TEST_P(CollectivesP, BackToBackCollectivesWithoutBarrier) {
  // The paper stresses that no synchronization is required between
  // successive collective stages; pipelined scans+reduce must not
  // cross-talk thanks to per-call tag sequencing.
  const int p = GetParam();
  const auto xs = random_inputs(p, 808);
  const auto plus = [](i64 a, i64 b) { return a + b; };
  auto out = run_spmd_collect<i64>(p, [&](Comm& comm) {
    i64 v = xs[static_cast<std::size_t>(comm.rank())];
    v = scan(comm, v, plus);
    v = scan(comm, v, plus);
    return reduce(comm, v, plus);
  });
  auto s = ref_scan(ref_scan(xs, plus), plus);
  EXPECT_EQ(out[0], ref_reduce(s, plus));
}

TEST(CollectivesTraffic, BcastBinomialMessageCount) {
  // A binomial broadcast sends exactly p-1 messages.
  for (int p : {2, 3, 6, 8, 13, 16}) {
    auto counters = run_spmd_traffic(p, [&](Comm& comm) {
      (void)bcast(comm, comm.rank() == 0 ? 1 : 0);
    });
    EXPECT_EQ(counters.messages, static_cast<std::uint64_t>(p - 1)) << "p=" << p;
  }
}

TEST(CollectivesTraffic, ScanButterflyMessageCount) {
  // Butterfly scan: each phase k exchanges messages pairwise between all
  // ranks whose partner exists -> sum over phases of #(ranks with partner).
  for (int p : {2, 4, 6, 8, 16}) {
    auto counters = run_spmd_traffic(p, [&](Comm& comm) {
      (void)scan(comm, static_cast<i64>(comm.rank()), [](i64 a, i64 b) { return a + b; });
    });
    std::uint64_t expect = 0;
    for (int k = 0; (1 << k) < p; ++k)
      for (int r = 0; r < p; ++r)
        if ((r ^ (1 << k)) < p) ++expect;
    EXPECT_EQ(counters.messages, expect) << "p=" << p;
  }
}

TEST(CollectivesEdge, AllCollectivesAtPEqualsOne) {
  auto out = run_spmd_collect<i64>(1, [](Comm& comm) {
    const auto plus = [](i64 a, i64 b) { return a + b; };
    i64 v = 9;
    v = bcast(comm, v);
    v = reduce(comm, v, plus);
    v = allreduce(comm, v, plus);
    v = scan(comm, v, plus);
    return v;
  });
  EXPECT_EQ(out[0], 9);
}

}  // namespace
}  // namespace colop::mpsim
