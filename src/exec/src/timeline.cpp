#include "colop/exec/timeline.h"

#include <algorithm>
#include <sstream>
#include <string>

#include "colop/obs/chrome_trace.h"

namespace colop::exec {

SimTrace trace_on_simnet(const ir::Program& prog, const model::Machine& mach,
                         SimSchedules sched, obs::Sink* machine_sink) {
  simnet::SimMachine sim(mach.p, simnet::NetParams{mach.ts, mach.tw});
  sim.set_trace_sink(machine_sink);
  SimTrace trace;
  trace.procs = mach.p;
  run_on_simnet(prog, sim, mach.m, sched,
                [&](const SimSpan& span) { trace.spans.push_back(span); });
  trace.makespan = sim.makespan();
  return trace;
}

std::vector<obs::Event> trace_events(const SimTrace& trace) {
  std::vector<obs::Event> events;
  for (const auto& span : trace.spans) {
    for (int r = 0; r < trace.procs; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (span.end[ri] <= span.start[ri]) continue;  // did not participate
      obs::Event ev;
      ev.phase = obs::Phase::complete;
      ev.name = span.label;
      ev.cat = "exec";
      ev.ts = span.start[ri];
      ev.dur = span.end[ri] - span.start[ri];
      ev.tid = r;
      ev.args.emplace_back("stage", std::to_string(span.first));
      if (span.window()) ev.args.emplace_back("overlapped", "1");
      events.push_back(std::move(ev));
    }
  }
  return events;
}

void write_chrome_trace(const SimTrace& trace, std::ostream& os) {
  obs::write_chrome_trace(trace_events(trace), os, "colop-simnet");
}

std::string render_timeline(const SimTrace& trace, int width, double scale_to) {
  const double horizon = scale_to > 0 ? scale_to : trace.makespan;
  std::ostringstream os;
  if (horizon <= 0 || trace.procs == 0) return "(empty trace)\n";

  for (int r = 0; r < trace.procs; ++r) {
    os << "P" << r << (r < 10 ? "  |" : " |");
    for (int c = 0; c < width; ++c) {
      const double t = (c + 0.5) * horizon / width;
      char ch = '.';
      for (std::size_t s = 0; s < trace.spans.size(); ++s) {
        const auto& span = trace.spans[s];
        // A processor "occupies" a stage from the previous stage's end to
        // this stage's end; start==end means it did not participate.
        if (t < span.end[static_cast<std::size_t>(r)] &&
            t >= span.start[static_cast<std::size_t>(r)] &&
            span.end[static_cast<std::size_t>(r)] >
                span.start[static_cast<std::size_t>(r)]) {
          ch = static_cast<char>('A' + static_cast<int>(s % 26));
        }
      }
      os << ch;
    }
    os << "|\n";
  }
  os << "     0";
  std::ostringstream tot;
  tot << "t=" << horizon;
  const std::string total = tot.str();
  for (int c = 0; c < width - 1 - static_cast<int>(total.size()); ++c) os << ' ';
  os << total << "\n";
  for (std::size_t s = 0; s < trace.spans.size(); ++s)
    os << "  " << static_cast<char>('A' + static_cast<int>(s % 26)) << " = "
       << trace.spans[s].label << "\n";
  return os.str();
}

}  // namespace colop::exec
