#pragma once
// Live in-flight telemetry for thread runs: a sampler that folds the rank
// threads' flight-recorder rings into an obs::Registry at a fixed interval,
// so /metrics moves mid-run, and publishes an obs::LiveSnapshot that the
// stats server streams over /live and serves from /live.json.
//
// There is no second event stream.  Rank threads only ever log into their
// rt::Recorder; the sampler is one more reader of those rings.  While a
// LiveSampler exists, every enabled Fleet registers with it when it is
// constructed.  Each tick drains the registered rings through per-rank
// cursors (Recorder::drain) and derives the dashboard from the records:
//   * stage durations from stage_begin/stage_end,
//   * receive waits from recv_begin/recv_end,
//   * barrier waits from barrier_begin/barrier_end,
//   * sends and bytes from send records;
// queue depth and the watchdog's stall verdict are read from the fleet's
// RankStats.  A fleet destroyed between ticks hands over the records the
// sampler has not drained yet, so no record of a finished run is lost.
// Rank threads never touch the sampler, and without one a fleet pays one
// relaxed load at construction.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "colop/obs/live.h"
#include "colop/rt/flight_recorder.h"

namespace colop::obs {
class Registry;
}

namespace colop::rt {

/// Descriptor handed to the sampler when a run starts; drives progress and
/// ETA.
struct LiveRunInfo {
  std::string trace_id;
  std::string program;                    ///< optimized schedule, one line
  std::vector<std::string> stage_labels;  ///< per-stage display names
  int ranks = 0;
  int repeats = 1;  ///< planned executions (colopt --repeat)
};

class LiveSampler : public obs::LiveFeed {
 public:
  /// Attach to the process: fleets constructed from now on report here.
  /// At most one sampler may exist at a time.
  explicit LiveSampler(obs::Registry& registry);
  ~LiveSampler();  ///< stops the thread, then detaches
  LiveSampler(const LiveSampler&) = delete;
  LiveSampler& operator=(const LiveSampler&) = delete;

  /// Start the sampling thread.  interval_ms <= 0 reads
  /// COLOP_LIVE_INTERVAL_MS, defaulting to 100.
  void start(double interval_ms = 0);
  void stop();  ///< idempotent; joins the thread after a final sample

  /// Drain every registered fleet, fold the records, refresh the snapshot.
  /// What the thread calls each tick; safe without start().
  void sample_once();

  [[nodiscard]] double interval_ms() const noexcept { return interval_ms_; }

  // --- run lifecycle (driver thread) -------------------------------------
  /// Fold what is pending, then reset the per-run aggregates.
  void begin_run(LiveRunInfo info);
  void note_repeat(int repeat);  ///< 0-based iteration about to execute
  void end_run();                ///< idempotent

 private:
  friend class Fleet;
  /// Fleet constructor hook: register with the attached sampler, if any.
  static bool watch(Fleet& fleet);
  /// Fleet destructor hook: drain what is left and unregister.
  static void retire(Fleet& fleet);

  struct Watched;
  struct RankAgg;
  void drain_locked(Watched& w);
  void fold_locked(Watched& w);
  void collect_locked();
  void refresh_locked();
  void run();

  obs::Registry& registry_;
  double interval_ms_ = 100;
  std::thread thread_;
  std::atomic<bool> stop_{false};

  // Everything below is guarded by the process-wide sampler mutex
  // (live.cpp), which Fleet's hooks also take.
  std::vector<std::unique_ptr<Watched>> watched_;  ///< retired ones included
  std::vector<RankAgg> agg_;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t last_event_ns_ = 0;  ///< steady-clock ns
  bool active_ = false;
  bool done_ = false;
  int repeat_ = 0;
  std::uint64_t started_ns_ = 0;
  std::uint64_t ended_ns_ = 0;
  LiveRunInfo info_;
};

}  // namespace colop::rt
