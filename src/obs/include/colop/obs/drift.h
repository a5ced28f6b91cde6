#pragma once
// Model-vs-measured drift report.
//
// The cost calculus (Section 4) predicts running time with the closed
// forms (15)-(17); the simnet executor measures the same program by
// discrete-event simulation of the actual communication schedules.  The
// two must agree at powers of two (the butterfly schedules realize the
// model exactly, and phases synchronize the participating ranks so no
// inter-stage slack accumulates); where they diverge, either the model,
// the schedule, or an optimization's cost annotation is wrong.  This
// report quantifies that drift per processor count and prints simnet's
// message and word totals beside it.  Whether those totals match what
// the threads really send is checked separately, schedule by schedule,
// in tests/test_traffic_differential.cpp.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/ir/program.h"
#include "colop/model/calib.h"
#include "colop/model/machine.h"

namespace colop::obs {

struct DriftRow {
  int p = 0;
  double model_time = 0;  ///< closed-form program cost T(p, m)
  double sim_time = 0;    ///< simnet makespan
  double time_rel_err = 0;
  std::uint64_t sim_messages = 0;
  double sim_words = 0;
  bool ok = false;  ///< time within tolerance
};

struct DriftReport {
  std::string program;     ///< ir::Program::show() of the subject
  double tolerance = 0;    ///< relative tolerance applied per row
  std::vector<DriftRow> rows;

  [[nodiscard]] bool all_ok() const;
  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
};

struct DriftOptions {
  std::vector<int> procs = {2, 4, 8, 16, 32, 64};
  /// Relative tolerance on time.
  double tolerance = 1e-9;
  exec::SimSchedules sched{};
};

/// Run `prog` on the simnet machine for every processor count in
/// `opts.procs` (keeping mach.m/ts/tw fixed) and compare with the model.
[[nodiscard]] DriftReport drift_report(const ir::Program& prog,
                                       const model::Machine& mach,
                                       const DriftOptions& opts = {});

/// Drift between the CONFIGURED machine parameters and the ones a
/// calibration fit recovered from measurements.  Where the per-program
/// DriftReport checks that model and simulator agree on a given machine,
/// this alert checks that the machine itself is what the optimizer was
/// told it is — when it is not, every "Improved if" threshold
/// (ts_crossover) the rules were selected by is suspect.
struct MachineDriftAlert {
  model::Machine configured;
  model::Machine fitted;   ///< calibration result normalized to op units
  double ts_rel_err = 0;
  double tw_rel_err = 0;
  double tolerance = 0;
  bool ok = false;

  [[nodiscard]] std::string render_text() const;
  void write_json(std::ostream& os) const;
};

[[nodiscard]] MachineDriftAlert machine_drift(
    const model::Machine& configured, const model::CalibrationResult& fit,
    double tolerance = 0.15);

}  // namespace colop::obs
