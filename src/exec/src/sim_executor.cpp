#include "colop/exec/sim_executor.h"

#include "colop/ir/overlap.h"
#include "colop/simnet/schedules.h"
#include "colop/support/bits.h"
#include "colop/support/error.h"

namespace colop::exec {
namespace {

using Kind = ir::Stage::Kind;
using mpsim::Algo;

// Reduce stages (blocking or split-phase) price sched.reduce toward their
// root; allreduce stages run vdg under vdg and the butterfly otherwise.
template <typename S>
void price_reduce(const S& s, simnet::SimMachine& mach, double m,
                  SimSchedules sched) {
  if constexpr (requires { s.root; })
    simnet::price(mach, sched.reduce, m, s.words, s.op->ops_cost(),
                  {.root = s.root});
  else
    simnet::price(mach,
                  sched.reduce == Algo::allreduce_vdg ? Algo::allreduce_vdg
                                                      : Algo::allreduce_butterfly,
                  m, s.words, s.op->ops_cost());
}

template <typename S>
void price_bcast(const S& s, simnet::SimMachine& mach, double m,
                 SimSchedules sched) {
  const int segments =
      sched.bcast == Algo::bcast_pipelined
          ? simnet::optimal_segments(mach.size(), m * s.words, mach.net().ts,
                                     mach.net().tw)
          : 1;
  simnet::price(mach, sched.bcast, m, s.words, 0,
                {.root = s.root, .segments = segments});
}

// Per-rank op count of a map or map# stage (an overlap window's interior).
double local_ops(const ir::Stage& stage, int rank) {
  if (stage.kind() == Kind::Map)
    return static_cast<const ir::MapStage&>(stage).fn.ops_cost;
  const auto& s = static_cast<const ir::MapIndexedStage&>(stage);
  const double levels =
      static_cast<double>(binary_digits(static_cast<std::uint64_t>(rank)));
  return s.fn.ops_cost + s.fn.ops_per_logp * levels;
}

// Simulate one stage's schedule on the virtual clocks.  Split-phase stages
// run their blocking twin here; run_on_simnet's window loop then discounts
// eligible windows by raising interior local work into the istart's span.
void sim_stage(const ir::Stage& stage, simnet::SimMachine& mach, double m,
               SimSchedules sched) {
  const int p = mach.size();
  switch (stage.kind()) {
    case Kind::Map: {
      const auto& s = static_cast<const ir::MapStage&>(stage);
      simnet::local_map(mach, m, s.fn.ops_cost);
      break;
    }
    case Kind::MapIndexed:
      for (int r = 0; r < p; ++r)
        if (const double ops = local_ops(stage, r); ops > 0)
          mach.compute(r, m * ops);
      break;
    case Kind::Scan: {
      const auto& s = static_cast<const ir::ScanStage&>(stage);
      simnet::price(mach, Algo::scan_butterfly, m, s.words, s.op->ops_cost());
      break;
    }
    case Kind::Reduce:
      price_reduce(static_cast<const ir::ReduceStage&>(stage), mach, m, sched);
      break;
    case Kind::IStartReduce:
      price_reduce(static_cast<const ir::IStartReduceStage&>(stage), mach, m,
                   sched);
      break;
    case Kind::AllReduce:
      price_reduce(static_cast<const ir::AllReduceStage&>(stage), mach, m,
                   sched);
      break;
    case Kind::IStartAllReduce:
      price_reduce(static_cast<const ir::IStartAllReduceStage&>(stage), mach, m,
                   sched);
      break;
    case Kind::Bcast:
      price_bcast(static_cast<const ir::BcastStage&>(stage), mach, m, sched);
      break;
    case Kind::IStartBcast:
      price_bcast(static_cast<const ir::IStartBcastStage&>(stage), mach, m,
                  sched);
      break;
    case Kind::ScanBalanced: {
      const auto& s = static_cast<const ir::ScanBalancedStage&>(stage);
      simnet::price(mach, Algo::scan_balanced, m, s.op2.words, s.op2.ops_cost);
      break;
    }
    case Kind::ReduceBalanced: {
      const auto& s = static_cast<const ir::ReduceBalancedStage&>(stage);
      simnet::price(mach, Algo::reduce_balanced, m, s.op.words, s.op.ops_cost,
                    {.root = s.root});
      break;
    }
    case Kind::AllReduceBalanced: {
      const auto& s = static_cast<const ir::AllReduceBalancedStage&>(stage);
      simnet::price(mach, Algo::allreduce_balanced, m, s.op.words, s.op.ops_cost);
      break;
    }
    case Kind::Iter: {
      const auto& s = static_cast<const ir::IterStage&>(stage);
      // 2^k processors: exactly log2(p) doubling steps.  Otherwise the
      // generalized square-and-multiply costs at most 2 applications per
      // binary digit of p.
      const double levels =
          is_pow2(static_cast<std::uint64_t>(p))
              ? static_cast<double>(log2_floor(static_cast<std::uint64_t>(p)))
              : 2.0 * static_cast<double>(
                          binary_digits(static_cast<std::uint64_t>(p)));
      simnet::local_iter(mach, m, s.step.ops_cost, levels);
      break;
    }
    case Kind::Wait:
      break;  // completion: no traffic, no compute of its own
  }
}

}  // namespace

void run_on_simnet(const ir::Program& prog, simnet::SimMachine& mach, double m,
                   SimSchedules sched,
                   const std::function<void(const SimSpan&)>& on_span) {
  COLOP_REQUIRE(sched.bcast == Algo::bcast_butterfly ||
                    sched.bcast == Algo::bcast_binomial ||
                    sched.bcast == Algo::bcast_vdg ||
                    sched.bcast == Algo::bcast_pipelined,
                "SimSchedules: .bcast must be a bcast_* algorithm");
  COLOP_REQUIRE(sched.reduce == Algo::allreduce_butterfly ||
                    sched.reduce == Algo::reduce_binomial ||
                    sched.reduce == Algo::allreduce_vdg,
                "SimSchedules: .reduce must be a reduce or allreduce one");
  const int p = mach.size();
  const auto windows = ir::overlap_windows(prog);
  auto w = windows.begin();
  auto clocks = [&] {
    std::vector<double> c(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) c[static_cast<std::size_t>(r)] = mach.clock(r);
    return c;
  };
  std::size_t i = 0;
  while (i < prog.size()) {
    const bool in_window = w != windows.end() && i == w->istart;
    SimSpan span;
    span.first = i;
    span.last = in_window ? w->wait : i;
    if (on_span) {
      if (in_window) {
        ir::Program piece;
        for (std::size_t j = i; j <= span.last; ++j)
          piece.push(prog.stages()[j]);
        span.label = "overlap{" + piece.show() + "}";
      } else {
        span.label = prog.stage(i).show();
      }
      mach.set_trace_label(span.label);
    }
    if (in_window || on_span) span.start = clocks();
    sim_stage(prog.stage(i), mach, m, sched);
    if (in_window) {
      // Overlap window: the collective has run; raise every rank's clock to
      // at least issue-time + its interior local work.  The window's span
      // per rank becomes max(comm, local) — the pipelined executor's
      // behaviour — instead of the synchronous sum.
      for (int r = 0; r < p; ++r) {
        double ops = 0;
        for (std::size_t j = i + 1; j < span.last; ++j)
          ops += local_ops(prog.stage(j), r);
        mach.advance_to(r, span.start[static_cast<std::size_t>(r)] + m * ops);
      }
      ++w;
    }
    if (on_span) {
      span.end = clocks();
      on_span(span);
    }
    i = span.last + 1;
  }
}

std::pair<Algo, double> best_bcast_schedule(const model::Machine& mach) {
  ir::Program prog;
  prog.bcast();
  Algo best = Algo::bcast_butterfly;
  double best_time = run_on_simnet(prog, mach, {.bcast = best}).time;
  for (auto cand :
       {Algo::bcast_binomial, Algo::bcast_vdg, Algo::bcast_pipelined}) {
    const double t = run_on_simnet(prog, mach, {.bcast = cand}).time;
    if (t < best_time) {
      best = cand;
      best_time = t;
    }
  }
  return {best, best_time};
}

SimRunResult run_on_simnet(const ir::Program& prog, const model::Machine& mach,
                           SimSchedules sched) {
  simnet::SimMachine sim(mach.p, simnet::NetParams{mach.ts, mach.tw});
  run_on_simnet(prog, sim, mach.m, sched);
  return {sim.makespan(), sim.messages(), sim.words_sent()};
}

}  // namespace colop::exec
