#pragma once
// Simulation executor: predict a program's running time on the paper's
// machine model by executing its collective schedules on the simnet
// discrete-event simulator.  Unlike model::program_time (closed forms),
// this accounts for schedule effects at non-powers of two, pipeline slack
// between unsynchronized stages, and alternative schedule choices.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/simnet/machine.h"

namespace colop::exec {

/// Which concrete schedules implement the collectives (the paper notes the
/// cost calculus is implementation-relative, Section 4.1).
struct SimSchedules {
  enum class Bcast { butterfly, binomial, vdg, pipelined };
  enum class Reduce { butterfly, binomial, vdg };
  Bcast bcast = Bcast::butterfly;
  Reduce reduce = Reduce::butterfly;  ///< vdg applies to allreduce stages
};

/// Simulate every broadcast schedule on `mach` and return the fastest one
/// with its predicted time — a small autotuner in the spirit of the
/// paper's "the cost estimation must be repeated" (Section 4.1).
[[nodiscard]] std::pair<SimSchedules::Bcast, double> best_bcast_schedule(
    const model::Machine& mach);

struct SimRunResult {
  double time = 0;           ///< simulated makespan (op units)
  std::uint64_t messages = 0;
  double words = 0;          ///< total words transferred
};

/// Execute every stage of `prog` on a fresh SimMachine(mach.p, {ts, tw})
/// with blocks of mach.m elements.
[[nodiscard]] SimRunResult run_on_simnet(const ir::Program& prog,
                                         const model::Machine& mach,
                                         SimSchedules sched = {});

/// One replay step of run_on_simnet: a single stage, or a whole
/// istart..wait overlap window priced as one unit.
struct SimSpan {
  std::size_t first = 0;      ///< index of the first stage covered
  std::size_t last = 0;       ///< index of the last stage (a window's wait)
  std::string label;          ///< stage->show(), or "overlap{...}"
  std::vector<double> start;  ///< per-processor clock before the step
  std::vector<double> end;    ///< per-processor clock after the step
  [[nodiscard]] bool window() const noexcept { return last > first; }
};

/// As above but on an existing machine (clocks accumulate across calls).
/// With `on_span`, every step sets the machine's trace label to its span
/// label and is reported after it runs — the per-stage view the timeline
/// and the profiler draw.
void run_on_simnet(const ir::Program& prog, simnet::SimMachine& mach, double m,
                   SimSchedules sched = {},
                   const std::function<void(const SimSpan&)>& on_span = {});

}  // namespace colop::exec
