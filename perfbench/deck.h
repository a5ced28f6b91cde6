#pragma once
// Workload decks of the wall-clock benchmark: which programs a workload
// compiles and runs, on which model machine and at which rank count, and
// how each request's inputs and reference outputs are made.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/model/machine.h"

namespace perfbench {

namespace ir = colop::ir;
namespace model = colop::model;

/// One deck entry.  Parsed items carry their source text; the two
/// case-study items are built by colop::apps (their coefficient stage has
/// no surface syntax).
struct Item {
  std::string name;
  std::string text;  ///< program text; empty for polyeval items
  int polyeval = 0;  ///< 1 or 3 = apps::polyeval_1 / polyeval_3
};

struct Workload {
  std::string name;
  /// Compile with SearchOptimizer (branch-and-bound) + certify_search;
  /// otherwise greedy Optimizer::optimize.
  bool search = false;
  model::Machine model;     ///< the machine the optimizer prices against
  int run_p = 2;            ///< rank threads of every thread-executor run
  std::size_t run_m = 2;    ///< elements per rank block
  int variants = 4;         ///< distinct seeded inputs per item
  int warmup_passes = 1;    ///< untimed passes closing each set-up
  int pairs = 1;            ///< source/optimized wall pairs per item/pass
  std::vector<Item> deck;
};

/// nullopt for an unknown name.  `rank_budget` caps run_p (nproc / 2).
[[nodiscard]] std::optional<Workload> make_workload(const std::string& name,
                                                    int rank_budget);

/// Build the source program of an item (parse or apps builder).
[[nodiscard]] ir::Program build_source(const Workload& w, const Item& item);

/// A request's input together with its independently computed expected
/// output.
struct Case {
  ir::Dist input;
  ir::Dist expected;
  /// Only the root block is part of the result (the source ends in a
  /// reduce, whose other blocks the root_result policy may change).
  bool root_only = false;
  double rel_tol = 0;  ///< floating-point items compare approximately
};

/// Seeded input for one item and its expected output: the source
/// program's boxed reference semantics, or apps::polyeval_expected for
/// the polyeval items.  Never the optimizer or the thread executor.
[[nodiscard]] Case make_case(const Workload& w, const Item& item,
                             const ir::Program& source, std::uint64_t seed);

/// True when `out` matches the case's expected output.
[[nodiscard]] bool output_ok(const Case& c, const ir::Dist& out);

}  // namespace perfbench
