#include "colop/rt/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <sstream>

#include "colop/obs/chrome_trace.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/obs/trace_context.h"
#include "colop/rt/watchdog.h"

namespace colop::rt {
namespace {

constexpr double kNsPerMs = 1e6;

std::string fmt(double v, int prec = 3) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace

RepeatStats RepeatStats::of(std::vector<double> samples_ms, int warmups) {
  RepeatStats st;
  st.warmups = warmups;
  if (samples_ms.empty()) return st;
  st.repeats = static_cast<int>(samples_ms.size());
  std::sort(samples_ms.begin(), samples_ms.end());
  st.min_ms = samples_ms.front();
  const std::size_t n = samples_ms.size();
  st.median_ms = n % 2 == 1 ? samples_ms[n / 2]
                            : (samples_ms[n / 2 - 1] + samples_ms[n / 2]) / 2;
  st.mean_ms = std::accumulate(samples_ms.begin(), samples_ms.end(), 0.0) /
               static_cast<double>(n);
  double var = 0;
  for (double s : samples_ms) var += (s - st.mean_ms) * (s - st.mean_ms);
  st.stddev_ms = n > 1 ? std::sqrt(var / static_cast<double>(n - 1)) : 0;
  return st;
}

RtReport build_report(const FleetSnapshot& snap, const RtReportOptions& opts) {
  RtReport rep;
  rep.procs = snap.ranks;
  rep.used_packed = opts.used_packed;
  rep.block = opts.block;
  rep.wall_ms = opts.wall_seconds * 1e3;
  rep.timing = opts.timing;
  {
    std::string prog;
    for (const auto& l : snap.stage_labels) {
      if (!prog.empty()) prog += " ; ";
      prog += l;
    }
    rep.program = prog;
  }

  // --- per rank ----------------------------------------------------------
  for (const RankSnapshot& rs : snap.per_rank) {
    RankReport rr;
    rr.rank = rs.rank;
    rr.events = rs.logged;
    rr.dropped = rs.dropped;
    rep.dropped_total += rs.dropped;
    rr.sends = rs.stats.sends;
    rr.send_bytes = rs.stats.send_bytes;
    rr.recvs = rs.stats.recvs;
    rr.recv_wait_ms = static_cast<double>(rs.stats.recv_wait_ns) / kNsPerMs;
    rr.barrier_wait_ms =
        static_cast<double>(rs.stats.barrier_wait_ns) / kNsPerMs;
    rr.queue_depth_max = rs.stats.queue_depth_max;
    rr.queue_depth_mean = rs.stats.queue_depth_mean();
    rr.queue_bytes_max = rs.stats.queue_bytes_max;
    if (!rs.records.empty()) {
      rr.span_ms = static_cast<double>(rs.records.back().t_ns -
                                       rs.records.front().t_ns) /
                   kNsPerMs;
      rr.busy_ms =
          std::max(0.0, rr.span_ms - rr.recv_wait_ms - rr.barrier_wait_ms);
    }
    rep.ranks.push_back(rr);
  }

  // --- per stage ---------------------------------------------------------
  const std::size_t nstages = snap.stage_labels.size();
  if (nstages > 0) {
    std::vector<StageReport> stages(nstages);
    for (std::size_t i = 0; i < nstages; ++i) {
      stages[i].index = static_cast<int>(i);
      stages[i].label = snap.stage_labels[i];
      if (i < opts.model_stage_times.size())
        stages[i].model_time = opts.model_stage_times[i];
    }
    for (const RankSnapshot& rs : snap.per_rank) {
      std::vector<double> begin_ns(nstages, -1);
      for (const Record& r : rs.records) {
        if (r.stage >= nstages) continue;
        if (r.kind == Ev::stage_begin)
          begin_ns[r.stage] = static_cast<double>(r.t_ns);
        else if (r.kind == Ev::stage_end && begin_ns[r.stage] >= 0) {
          const double ms =
              (static_cast<double>(r.t_ns) - begin_ns[r.stage]) / kNsPerMs;
          StageReport& sr = stages[r.stage];
          sr.wall_ms = std::max(sr.wall_ms, ms);
          sr.wall_mean_ms += ms;
          ++sr.ranks_observed;
        }
      }
    }
    double wall_total = 0, model_total = 0;
    for (StageReport& sr : stages) {
      if (sr.ranks_observed > 0) sr.wall_mean_ms /= sr.ranks_observed;
      wall_total += sr.wall_ms;
      model_total += sr.model_time;
    }
    const double scale =  // wall-ms per op unit, fitted over the whole run
        model_total > 0 && wall_total > 0 ? wall_total / model_total : 0;
    rep.scale_ns_per_op = scale * kNsPerMs;
    for (StageReport& sr : stages) {
      if (wall_total > 0) sr.measured_share = sr.wall_ms / wall_total;
      if (model_total > 0) sr.predicted_share = sr.model_time / model_total;
      if (scale > 0 && sr.model_time > 0 && sr.ranks_observed > 0)
        sr.drift = sr.wall_ms / (sr.model_time * scale) - 1;
    }
    rep.stages = std::move(stages);
  }

  if (opts.keep_events) rep.events = snapshot_events(snap);
  return rep;
}

std::string RtReport::render_text() const {
  std::ostringstream os;
  os << "runtime telemetry (p=" << procs;
  if (block > 0) os << ", block=" << block << " elements";
  os << ", plane=" << (used_packed ? "packed" : "boxed") << ")\n";
  if (!program.empty()) os << "program : " << program << "\n";
  os << "wall    : " << fmt(wall_ms) << " ms";
  if (timing.repeats > 1)
    os << "  (over " << timing.repeats << " repeats, " << timing.warmups
       << " warmups: min " << fmt(timing.min_ms) << " / median "
       << fmt(timing.median_ms) << " / stddev " << fmt(timing.stddev_ms)
       << " ms)";
  os << "\n";
  if (dropped_total > 0)
    os << "note    : ring dropped " << dropped_total
       << " records; oldest events are missing\n";

  os << "\nper-rank accounting (measured):\n"
     << "  rank   busy_ms  recv_wait  barr_wait  sends      bytes  "
        "qdepth max/mean  qbytes max\n";
  for (const RankReport& r : ranks) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "  %4d %9.3f %10.3f %10.3f %6llu %10llu %9llu/%-7.2f %11llu\n",
                  r.rank, r.busy_ms, r.recv_wait_ms, r.barrier_wait_ms,
                  static_cast<unsigned long long>(r.sends),
                  static_cast<unsigned long long>(r.send_bytes),
                  static_cast<unsigned long long>(r.queue_depth_max),
                  r.queue_depth_mean,
                  static_cast<unsigned long long>(r.queue_bytes_max));
    os << line;
  }

  if (!stages.empty()) {
    os << "\nper-stage wall vs model (scale " << fmt(scale_ns_per_op, 1)
       << " ns/op):\n"
       << "  stage                          wall_ms  share%  model%   drift\n";
    for (const StageReport& s : stages) {
      char line[200];
      std::snprintf(line, sizeof line, "  %-28s %9.3f %7.1f %7.1f %+7.1f%%\n",
                    s.label.substr(0, 28).c_str(), s.wall_ms,
                    s.measured_share * 100, s.predicted_share * 100,
                    s.drift * 100);
      os << line;
    }
  }
  return os.str();
}

void RtReport::write_json(std::ostream& os) const {
  namespace js = obs::json;
  os << "{\"program\":" << js::quote(program) << obs::trace_id_json_field()
     << ",\"procs\":" << procs << ",\"block\":" << block
     << ",\"plane\":" << js::quote(used_packed ? "packed" : "boxed")
     << ",\"wall_ms\":" << js::number(wall_ms)
     << ",\"scale_ns_per_op\":" << js::number(scale_ns_per_op)
     << ",\"dropped\":" << dropped_total << ",\"timing\":{"
     << "\"repeats\":" << timing.repeats << ",\"warmups\":" << timing.warmups
     << ",\"min_ms\":" << js::number(timing.min_ms)
     << ",\"median_ms\":" << js::number(timing.median_ms)
     << ",\"mean_ms\":" << js::number(timing.mean_ms)
     << ",\"stddev_ms\":" << js::number(timing.stddev_ms) << "}";
  os << ",\"ranks\":[";
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const RankReport& r = ranks[i];
    os << (i ? "," : "") << "{\"rank\":" << r.rank << ",\"events\":" << r.events
       << ",\"dropped\":" << r.dropped << ",\"sends\":" << r.sends
       << ",\"send_bytes\":" << r.send_bytes << ",\"recvs\":" << r.recvs
       << ",\"busy_ms\":" << js::number(r.busy_ms)
       << ",\"recv_wait_ms\":" << js::number(r.recv_wait_ms)
       << ",\"barrier_wait_ms\":" << js::number(r.barrier_wait_ms)
       << ",\"queue_depth_max\":" << r.queue_depth_max
       << ",\"queue_depth_mean\":" << js::number(r.queue_depth_mean)
       << ",\"queue_bytes_max\":" << r.queue_bytes_max << "}";
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageReport& s = stages[i];
    os << (i ? "," : "") << "{\"index\":" << s.index
       << ",\"label\":" << js::quote(s.label)
       << ",\"wall_ms\":" << js::number(s.wall_ms)
       << ",\"wall_mean_ms\":" << js::number(s.wall_mean_ms)
       << ",\"model_time\":" << js::number(s.model_time)
       << ",\"measured_share\":" << js::number(s.measured_share)
       << ",\"predicted_share\":" << js::number(s.predicted_share)
       << ",\"drift\":" << js::number(s.drift)
       << ",\"ranks_observed\":" << s.ranks_observed << "}";
  }
  os << "]}\n";
}

void RtReport::write_chrome_trace(std::ostream& os) const {
  obs::write_chrome_trace(events, os, "colop rt");
}

void publish_registry(const RtReport& report, obs::Registry& registry) {
  for (const RankReport& r : report.ranks) {
    const obs::LabelSet rank_label{{"rank", std::to_string(r.rank)}};
    registry
        .counter("colop_mpsim_messages_total",
                 "Point-to-point messages sent, per sending rank", rank_label)
        .inc(static_cast<double>(r.sends));
    registry
        .counter("colop_mpsim_bytes_total",
                 "Payload bytes sent, per sending rank", rank_label)
        .inc(static_cast<double>(r.send_bytes));
    registry
        .counter("colop_mpsim_recv_wait_seconds_total",
                 "Time blocked in recv, per rank", rank_label)
        .inc(r.recv_wait_ms / 1e3);
    registry
        .counter("colop_mpsim_barrier_wait_seconds_total",
                 "Time blocked in barriers, per rank", rank_label)
        .inc(r.barrier_wait_ms / 1e3);
    registry
        .gauge("colop_rt_queue_depth_max",
               "Deepest inbound mailbox queue observed, per rank", rank_label)
        .set(static_cast<double>(r.queue_depth_max));
  }
  registry
      .counter("colop_rt_dropped_records_total",
               "Flight-recorder records evicted by the ring")
      .inc(static_cast<double>(report.dropped_total));
  for (const StageReport& s : report.stages)
    registry
        .histogram("colop_exec_stage_seconds",
                   "Per-stage wall time (max over ranks)",
                   obs::default_seconds_buckets(),
                   {{"stage", s.label}, {"index", std::to_string(s.index)}})
        .observe(s.wall_ms / 1e3);
  registry
      .counter("colop_exec_runs_total", "Threaded executions, by data plane",
               {{"plane", report.used_packed ? "packed" : "boxed"}})
      .inc();
  registry
      .histogram("colop_exec_run_seconds",
                 "End-to-end threaded execution wall time",
                 obs::default_seconds_buckets())
      .observe(report.wall_ms / 1e3);
}

}  // namespace colop::rt
