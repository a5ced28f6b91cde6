#include "colop/obs/drift.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "colop/model/cost.h"
#include "colop/obs/json.h"
#include "colop/obs/trace_context.h"
#include "colop/support/table.h"

namespace colop::obs {
namespace {

double rel_err(double measured, double predicted) {
  const double scale = std::max(std::abs(predicted), 1.0);
  return std::abs(measured - predicted) / scale;
}

}  // namespace

DriftReport drift_report(const ir::Program& prog, const model::Machine& mach,
                         const DriftOptions& opts) {
  DriftReport report;
  report.program = prog.show();
  report.tolerance = opts.tolerance;
  for (const int p : opts.procs) {
    model::Machine mp = mach;
    mp.p = p;
    DriftRow row;
    row.p = p;
    row.model_time = model::program_time(prog, mp);
    const auto sim = exec::run_on_simnet(prog, mp, opts.sched);
    row.sim_time = sim.time;
    row.time_rel_err = rel_err(sim.time, row.model_time);
    row.sim_messages = sim.messages;
    row.sim_words = sim.words;
    row.ok = row.time_rel_err <= opts.tolerance;
    report.rows.push_back(row);
  }
  return report;
}

bool DriftReport::all_ok() const {
  return std::all_of(rows.begin(), rows.end(),
                     [](const DriftRow& r) { return r.ok; });
}

std::string DriftReport::render_text() const {
  Table t{"Model vs simnet drift: " + program,
          {"p", "T model", "T simnet", "rel err", "messages", "words", "ok"}};
  for (const auto& r : rows)
    t.add(r.p, r.model_time, r.sim_time, r.time_rel_err, r.sim_messages,
          r.sim_words, r.ok);
  std::ostringstream os;
  t.print(os);
  os << (all_ok() ? "drift: all rows within tolerance "
                  : "drift: DIVERGENCE beyond tolerance ")
     << json::number(tolerance) << "\n";
  return os.str();
}

MachineDriftAlert machine_drift(const model::Machine& configured,
                                const model::CalibrationResult& fit,
                                double tolerance) {
  MachineDriftAlert alert;
  alert.configured = configured;
  alert.fitted = fit.machine(configured.p, configured.m);
  alert.tolerance = tolerance;
  auto rel = [](double fitted, double conf) {
    return std::abs(fitted - conf) / std::max(std::abs(conf), 1e-12);
  };
  alert.ts_rel_err =
      fit.ts.identifiable ? rel(alert.fitted.ts, configured.ts) : 0;
  alert.tw_rel_err =
      fit.tw.identifiable ? rel(alert.fitted.tw, configured.tw) : 0;
  alert.ok =
      alert.ts_rel_err <= tolerance && alert.tw_rel_err <= tolerance;
  return alert;
}

std::string MachineDriftAlert::render_text() const {
  std::ostringstream os;
  os << "machine drift (configured vs fitted, tolerance " << tolerance
     << "):\n"
     << "  ts: configured " << configured.ts << ", fitted " << fitted.ts
     << " (rel err " << ts_rel_err << ")\n"
     << "  tw: configured " << configured.tw << ", fitted " << fitted.tw
     << " (rel err " << tw_rel_err << ")\n";
  if (ok) {
    os << "  OK: the configured machine matches the measurements\n";
  } else {
    os << "  ALERT: fitted parameters disagree with the configured machine;"
          " rule thresholds (ts_crossover) computed from the configured"
          " parameters are unreliable — re-run with --machine=calibrated\n";
  }
  return os.str();
}

void MachineDriftAlert::write_json(std::ostream& os) const {
  os << "{\"configured\":{\"ts\":" << json::number(configured.ts)
     << ",\"tw\":" << json::number(configured.tw)
     << "},\"fitted\":{\"ts\":" << json::number(fitted.ts)
     << ",\"tw\":" << json::number(fitted.tw)
     << "},\"ts_rel_err\":" << json::number(ts_rel_err)
     << ",\"tw_rel_err\":" << json::number(tw_rel_err)
     << ",\"tolerance\":" << json::number(tolerance)
     << ",\"ok\":" << (ok ? "true" : "false") << "}";
}

void DriftReport::write_json(std::ostream& os) const {
  os << "{\"program\":" << json::quote(program) << trace_id_json_field()
     << ",\"tolerance\":" << json::number(tolerance)
     << ",\"all_ok\":" << (all_ok() ? "true" : "false") << ",\"rows\":[";
  bool first = true;
  for (const auto& r : rows) {
    if (!first) os << ",";
    first = false;
    os << "{\"p\":" << r.p << ",\"model_time\":" << json::number(r.model_time)
       << ",\"sim_time\":" << json::number(r.sim_time)
       << ",\"time_rel_err\":" << json::number(r.time_rel_err)
       << ",\"sim_messages\":" << r.sim_messages
       << ",\"sim_words\":" << json::number(r.sim_words)
       << ",\"ok\":" << (r.ok ? "true" : "false") << "}";
  }
  os << "]}\n";
}

}  // namespace colop::obs
