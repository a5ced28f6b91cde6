#include "deck.h"

#include <algorithm>
#include <random>

#include "colop/apps/polyeval.h"
#include "colop/ir/packed_eval.h"
#include "colop/ir/parse.h"

namespace perfbench {

namespace {

// The left-hand sides of the paper's Table 1, one per rule.
std::vector<Item> table1_lhs() {
  return {
      {"SR2-Reduction", "scan(*) ; reduce(+)"},
      {"SR-Reduction", "scan(+) ; reduce(+)"},
      {"SS2-Scan", "scan(*) ; scan(+)"},
      {"SS-Scan", "scan(+) ; scan(+)"},
      {"BS-Comcast", "bcast ; scan(+)"},
      {"BSS2-Comcast", "bcast ; scan(*) ; scan(+)"},
      {"BSS-Comcast", "bcast ; scan(+) ; scan(+)"},
      {"BR-Local", "bcast ; reduce(+)"},
      {"BSR2-Local", "bcast ; scan(*) ; reduce(+)"},
      {"BSR-Local", "bcast ; scan(+) ; reduce(+)"},
      {"CR-AllLocal", "bcast ; allreduce(+)"},
  };
}

// Longer programs whose rewrites interact, so the search has orders to
// choose between.  At most one multiplicative scan each: inputs stay
// small integers at the run's rank count.
std::vector<Item> chains() {
  return {
      {"chain5", "bcast ; scan(*) ; scan(+) ; reduce(+) ; bcast"},
      {"chain7",
       "scan(+) ; reduce(max) ; bcast ; scan(+) ; scan(+) ; reduce(+) ; "
       "bcast"},
      {"chain9",
       "bcast ; scan(+) ; reduce(max) ; bcast ; scan(+) ; scan(+) ; "
       "reduce(+) ; bcast ; scan(max)"},
      {"chain13",
       "bcast ; scan(+) ; scan(+) ; reduce(+) ; bcast ; scan(+) ; "
       "reduce(max) ; bcast ; scan(*) ; scan(+) ; reduce(+) ; bcast ; "
       "allreduce(+)"},
  };
}

// Coefficients of the polyeval items: one per model processor, so the
// coefficient stage is defined at every p the certifier tries.
std::vector<double> polyeval_coeffs(const Workload& w) {
  std::vector<double> coeffs(static_cast<std::size_t>(w.model.p));
  for (std::size_t i = 0; i < coeffs.size(); ++i)
    coeffs[i] = 1.0 / static_cast<double>(i + 1);
  return coeffs;
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      int rank_budget) {
  Workload w;
  w.name = name;
  w.run_p = std::clamp(rank_budget, 1, 2);
  if (name == "search_certify") {
    // The search_quality ordering-gap machine.
    w.search = true;
    w.model = {.p = 64, .m = 256, .ts = 400, .tw = 2};
    w.run_m = 8;
    w.pairs = 5;
    w.deck = table1_lhs();
    w.deck.push_back({"polyeval1", "", 1});
    for (auto& c : chains()) w.deck.push_back(std::move(c));
  } else if (name == "launch_bound") {
    w.run_m = 64;
    w.model = {.p = w.run_p, .m = 64, .ts = 400, .tw = 2};
    w.warmup_passes = 50;
    w.deck = table1_lhs();
  } else if (name == "bulk_run") {
    w.run_m = std::size_t{1} << 16;
    w.model = {.p = w.run_p, .m = static_cast<double>(w.run_m), .ts = 400,
               .tw = 2};
    w.variants = 2;
    w.deck = {
        {"allreduce", "allreduce(+)"},
        {"scan_reduce", "scan(+) ; reduce(+)"},
        {"allreduce_pair", "allreduce(+) ; map(pair)"},
        {"polyeval1", "", 1},
        {"polyeval3", "", 3},
        {"split_window",
         "istart_allreduce(+,h=1) ; map(pair) ; map(pi1) ; wait(h=1)"},
    };
  } else {
    return std::nullopt;
  }
  return w;
}

ir::Program build_source(const Workload& w, const Item& item) {
  if (item.polyeval == 1) return colop::apps::polyeval_1(polyeval_coeffs(w));
  if (item.polyeval == 3) return colop::apps::polyeval_3(polyeval_coeffs(w));
  return ir::parse_program(item.text);
}

Case make_case(const Workload& w, const Item& item, const ir::Program& source,
               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto p = static_cast<std::size_t>(w.run_p);
  Case c;
  if (item.polyeval != 0) {
    std::uniform_real_distribution<double> point(-1.0, 1.0);
    std::vector<double> ys(w.run_m);
    for (auto& y : ys) y = point(rng);
    c.input = colop::apps::polyeval_input(w.run_p, ys);
    // Only the first run_p coefficients are on a processor of the run.
    auto coeffs = polyeval_coeffs(w);
    coeffs.resize(p);
    ir::Block root;
    for (double v : colop::apps::polyeval_expected(coeffs, ys))
      root.emplace_back(v);
    c.expected = ir::Dist(p);
    c.expected[0] = std::move(root);
    c.root_only = true;
    c.rel_tol = 1e-9;
    return c;
  }
  // Small integers: sums and the one product per chain stay far from
  // overflow at the run's rank count.
  std::uniform_int_distribution<int> value(-3, 3);
  c.input = ir::Dist(p, ir::Block(w.run_m));
  for (auto& block : c.input)
    for (auto& v : block) v = ir::Value(value(rng));
  c.expected = ir::eval_reference_boxed(source, c.input);
  c.root_only = !source.empty() &&
                source.stages().back()->kind() == ir::Stage::Kind::Reduce;
  return c;
}

bool output_ok(const Case& c, const ir::Dist& out) {
  if (out.size() != c.expected.size()) return false;
  if (c.root_only) return ir::approx_equal(c.expected[0], out[0], c.rel_tol);
  return ir::approx_equal(c.expected, out, c.rel_tol);
}

}  // namespace perfbench
