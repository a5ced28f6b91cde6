// Timeline tracing: spans are contiguous per processor, consistent with
// the one-shot simulation (overlap windows included), and the renderer
// shows every stage.

#include <gtest/gtest.h>

#include "colop/exec/timeline.h"
#include "colop/ir/ir.h"
#include "colop/ir/overlap.h"
#include "colop/ir/parse.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/rules.h"

namespace colop::exec {
namespace {

TEST(Timeline, SpansArePerProcessorContiguousAndMonotone) {
  ir::Program prog;
  prog.bcast().scan(ir::op_add()).reduce(ir::op_mul());
  const model::Machine mach{.p = 8, .m = 16, .ts = 100, .tw = 2};
  const auto trace = trace_on_simnet(prog, mach);
  ASSERT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.procs, 8);
  for (int r = 0; r < 8; ++r) {
    double t = 0;
    for (const auto& span : trace.spans) {
      EXPECT_DOUBLE_EQ(span.start[static_cast<std::size_t>(r)], t);
      EXPECT_GE(span.end[static_cast<std::size_t>(r)], t);
      t = span.end[static_cast<std::size_t>(r)];
    }
    EXPECT_LE(t, trace.makespan);
  }
}

TEST(Timeline, MakespanMatchesOneShotSimulation) {
  ir::Program prog;
  prog.bcast().scan(ir::op_add()).reduce(ir::op_mul());
  const model::Machine mach{.p = 16, .m = 64, .ts = 300, .tw = 3};
  const auto trace = trace_on_simnet(prog, mach);
  EXPECT_DOUBLE_EQ(trace.makespan, run_on_simnet(prog, mach).time);
}

TEST(Timeline, OverlapWindowIsOneSpanAndKeepsItsDiscount) {
  // examples/overlap_pipeline: a costed map hidden under an allreduce.
  const model::Machine mach{.p = 8, .m = 512, .ts = 1500, .tw = 25};
  const ir::ElemFn smooth{"smooth", [](const ir::Value& v) { return v; },
                          40.0, nullptr, {}};
  ir::Program split;
  split.istart_allreduce(ir::op_add(), 1, 1).map(smooth).wait(1);
  const auto trace = trace_on_simnet(split, mach);
  EXPECT_DOUBLE_EQ(trace.makespan, run_on_simnet(split, mach).time);
  EXPECT_DOUBLE_EQ(trace.makespan, 44436);  // not the blocking sum, 64916
  ASSERT_EQ(trace.spans.size(), 1u);
  EXPECT_TRUE(trace.spans[0].window());
  EXPECT_EQ(trace.spans[0].label, "overlap{" + split.show() + "}");
}

TEST(Timeline, MakespanMatchesSimulationOnTable1Programs) {
  // With the overlap rules on, several right-hand sides gain an
  // istart..wait window around the rule's costed map#.
  auto rule_set = rules::all_rules();
  for (auto& r : rules::overlap_rules()) rule_set.push_back(std::move(r));
  const rules::Optimizer greedy({.p = 64, .m = 16, .ts = 5000, .tw = 1},
                                rule_set);
  int windows = 0;
  for (const char* text :
       {"scan(*) ; reduce(+)", "scan(+) ; reduce(+)", "scan(*) ; scan(+)",
        "scan(+) ; scan(+)", "bcast ; scan(+)", "bcast ; scan(*) ; scan(+)",
        "bcast ; scan(+) ; scan(+)", "bcast ; reduce(+)",
        "bcast ; scan(*) ; reduce(+)", "bcast ; scan(+) ; reduce(+)",
        "bcast ; allreduce(+)", "scan(+) ; allreduce(+)",
        "reduce(+) ; bcast"}) {
    const ir::Program lhs = ir::parse_program(text);
    const ir::Program rhs = greedy.optimize(lhs).program;
    windows += static_cast<int>(ir::overlap_windows(rhs).size());
    for (const ir::Program* prog : {&lhs, &rhs})
      for (const int p : {1, 2, 3, 5, 8, 13, 64}) {
        const model::Machine mach{.p = p, .m = 16, .ts = 300, .tw = 3};
        EXPECT_DOUBLE_EQ(trace_on_simnet(*prog, mach).makespan,
                         run_on_simnet(*prog, mach).time)
            << prog->show() << " p=" << p;
      }
  }
  EXPECT_GT(windows, 0);
}

TEST(Timeline, RenderListsAllStagesAndRows) {
  ir::Program prog;
  prog.map(ir::fn_id()).bcast().scan(ir::op_add());
  const model::Machine mach{.p = 4, .m = 8, .ts = 50, .tw = 1};
  const auto text = render_timeline(trace_on_simnet(prog, mach), 40);
  for (const std::string needle : {"P0", "P3", "A = map(id)", "B = bcast",
                                   "C = scan(+)"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle << "\n" << text;
}

TEST(Timeline, SharedAxisShowsTimeSaved) {
  ir::Program lhs;
  lhs.bcast().scan(ir::op_add());
  const ir::Program rhs = rules::rule_bs_comcast()->match(lhs, 0)->apply(lhs);
  const model::Machine mach{.p = 8, .m = 128, .ts = 200, .tw = 2};
  const auto tb = trace_on_simnet(lhs, mach);
  const auto ta = trace_on_simnet(rhs, mach);
  EXPECT_LT(ta.makespan, tb.makespan);
  // Rendered against the slower program's axis, the faster one has idle
  // tail columns.
  const auto text = render_timeline(ta, 60, tb.makespan);
  EXPECT_NE(text.find('.'), std::string::npos);
}

TEST(Timeline, EmptyTraceRendersGracefully) {
  const SimTrace empty;
  EXPECT_EQ(render_timeline(empty), "(empty trace)\n");
}

}  // namespace
}  // namespace colop::exec
