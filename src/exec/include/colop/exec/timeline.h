#pragma once
// Per-processor stage timelines on the simulated machine — the executable
// counterpart of the paper's Figures 1 and 3 (control flows of the
// processors through local and collective stages; "time saved" after a
// rule application is directly visible).

#include <iosfwd>
#include <string>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/ir/program.h"
#include "colop/model/machine.h"
#include "colop/obs/sink.h"

namespace colop::exec {

struct SimTrace {
  std::vector<SimSpan> spans;
  double makespan = 0;
  int procs = 0;
};

/// Replay `prog` on a fresh SimMachine through run_on_simnet, keeping the
/// span of every step (one per stage, one per istart..wait overlap window),
/// so the trace's makespan is run_on_simnet's time.  If `machine_sink` is
/// given it is attached to the SimMachine, so every simulated
/// send/recv/exchange/compute is emitted as a complete event (simulated
/// timestamps) labeled with the span it belongs to — the fine-grained view
/// underneath the stage spans.
[[nodiscard]] SimTrace trace_on_simnet(const ir::Program& prog,
                                       const model::Machine& mach,
                                       SimSchedules sched = {},
                                       obs::Sink* machine_sink = nullptr);

/// Convert the per-stage spans to obs events (Phase::complete, tid = the
/// processor, ts/dur in simulated op units), each with a "stage" arg (the
/// first stage index of its span) and "overlapped" on window spans.
[[nodiscard]] std::vector<obs::Event> trace_events(const SimTrace& trace);

/// Export a stage trace as Chrome trace-event JSON (chrome://tracing,
/// Perfetto).  Simulated op units are presented as microseconds.
void write_chrome_trace(const SimTrace& trace, std::ostream& os);

/// ASCII Gantt chart: one row per processor, letters identify stages, '.'
/// is idle/waiting time; a legend follows.  `width` is the number of time
/// buckets; `scale_to` (0 = this trace's makespan) lets two renderings
/// share one time axis so "time saved" shows as trailing idle space.
[[nodiscard]] std::string render_timeline(const SimTrace& trace,
                                          int width = 72,
                                          double scale_to = 0);

}  // namespace colop::exec
