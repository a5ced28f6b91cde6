#include "colop/rt/live.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "colop/obs/metrics.h"
#include "colop/support/error.h"

namespace colop::rt {
namespace {

std::uint64_t steady_ns(std::chrono::steady_clock::time_point t) noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

std::uint64_t steady_now_ns() noexcept {
  return steady_ns(std::chrono::steady_clock::now());
}

// Guards the attached sampler and all of its consumer state.  Taken by the
// sampler thread, the run-lifecycle calls and the Fleet hooks — never by a
// rank thread.
std::mutex g_mutex;
LiveSampler* g_sampler = nullptr;     // guarded by g_mutex
std::atomic<bool> g_attached{false};  // Fleet constructor's fast path

constexpr std::uint64_t kNone = ~std::uint64_t{0};  // no open span
constexpr std::size_t kKinds = static_cast<std::size_t>(Ev::mark) + 1;

}  // namespace

// One registered fleet: per rank, its drain cursor and the spans it has
// open across drains.  `fleet` is null once the fleet is gone; its last
// records wait in `pending` for the next fold.
struct LiveSampler::Watched {
  struct Rank {
    std::uint64_t cursor = 0;
    std::vector<Record> pending;
    std::uint64_t stage_t0 = kNone;
    std::uint64_t recv_t0 = kNone;
    std::uint64_t barrier_t0 = kNone;
    std::uint64_t queue_depth = 0;
    bool stalled = false;
  };
  const Fleet* fleet = nullptr;
  std::uint64_t epoch_ns = 0;  ///< the fleet's epoch on the steady clock
  std::vector<Rank> ranks;
  std::uint64_t dropped = 0;
};

struct LiveSampler::RankAgg {
  int stage = -1;
  std::uint64_t stages_done = 0;
  std::uint64_t comm_ns = 0;
  std::uint64_t idle_ns = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::uint64_t last_event_ns = 0;
  bool stalled = false;
};

LiveSampler::LiveSampler(obs::Registry& registry) : registry_(registry) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  COLOP_REQUIRE(g_sampler == nullptr,
                "rt::LiveSampler: another sampler is already attached");
  g_sampler = this;
  g_attached.store(true, std::memory_order_relaxed);
}

LiveSampler::~LiveSampler() {
  stop();
  const std::lock_guard<std::mutex> lock(g_mutex);
  g_sampler = nullptr;
  g_attached.store(false, std::memory_order_relaxed);
}

bool LiveSampler::watch(Fleet& fleet) {
  if (!g_attached.load(std::memory_order_relaxed)) return false;
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sampler == nullptr) return false;
  auto w = std::make_unique<Watched>();
  w->fleet = &fleet;
  w->epoch_ns = steady_ns(fleet.epoch());
  w->ranks.resize(static_cast<std::size_t>(fleet.ranks()));
  g_sampler->watched_.push_back(std::move(w));
  return true;
}

void LiveSampler::retire(Fleet& fleet) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (g_sampler == nullptr) return;
  for (auto& w : g_sampler->watched_) {
    if (w->fleet != &fleet) continue;
    g_sampler->drain_locked(*w);
    w->fleet = nullptr;
    return;
  }
}

void LiveSampler::drain_locked(Watched& w) {
  for (std::size_t r = 0; r < w.ranks.size(); ++r) {
    Watched::Rank& wr = w.ranks[r];
    const int rank = static_cast<int>(r);
    std::uint64_t lost = 0;
    w.fleet->recorder(rank)->drain(wr.cursor, wr.pending, lost);
    if (lost > 0) {
      // The records that would close an open span may be among the lost.
      wr.stage_t0 = wr.recv_t0 = wr.barrier_t0 = kNone;
      w.dropped += lost;
    }
    const RankStats& st = *w.fleet->stats(rank);
    wr.queue_depth = st.queue_depth.load(std::memory_order_relaxed);
    wr.stalled = st.stalled.load(std::memory_order_relaxed) != 0;
  }
}

void LiveSampler::fold_locked(Watched& w) {
  std::array<std::uint64_t, kKinds> by_kind{};
  std::uint64_t completions = 0;
  std::uint64_t sends = 0;
  std::uint64_t send_bytes = 0;
  std::vector<std::vector<double>> stage_seconds;  // by stage index
  if (agg_.size() < w.ranks.size()) agg_.resize(w.ranks.size());
  for (std::size_t r = 0; r < w.ranks.size(); ++r) {
    Watched::Rank& wr = w.ranks[r];
    RankAgg& a = agg_[r];
    std::uint64_t recv_ns = 0;
    std::uint64_t barrier_ns = 0;
    for (const Record& rec : wr.pending) {
      const auto kind = static_cast<std::size_t>(rec.kind);
      if (kind < kKinds) ++by_kind[kind];
      a.last_event_ns = std::max(a.last_event_ns, w.epoch_ns + rec.t_ns);
      switch (rec.kind) {
        case Ev::stage_begin:
          a.stage = rec.stage == Record::kNoStage ? -1 : rec.stage;
          a.stalled = false;
          wr.stage_t0 = rec.t_ns;
          break;
        case Ev::stage_end:
          a.stage = -1;
          ++a.stages_done;
          ++completions;
          if (wr.stage_t0 != kNone && rec.stage != Record::kNoStage) {
            if (stage_seconds.size() <= rec.stage)
              stage_seconds.resize(rec.stage + std::size_t{1});
            stage_seconds[rec.stage].push_back(
                static_cast<double>(rec.t_ns - wr.stage_t0) / 1e9);
          }
          wr.stage_t0 = kNone;
          break;
        case Ev::send:
          ++a.sends;
          a.send_bytes += rec.bytes;
          ++sends;
          send_bytes += rec.bytes;
          break;
        case Ev::recv_begin:
          wr.recv_t0 = rec.t_ns;
          break;
        case Ev::recv_end:
          if (wr.recv_t0 != kNone) recv_ns += rec.t_ns - wr.recv_t0;
          wr.recv_t0 = kNone;
          break;
        case Ev::barrier_begin:
          wr.barrier_t0 = rec.t_ns;
          break;
        case Ev::barrier_end:
          if (wr.barrier_t0 != kNone) barrier_ns += rec.t_ns - wr.barrier_t0;
          wr.barrier_t0 = kNone;
          break;
        case Ev::none:
        case Ev::plane:
        case Ev::mark:
          break;
      }
    }
    events_ += wr.pending.size();
    wr.pending.clear();
    last_event_ns_ = std::max(last_event_ns_, a.last_event_ns);
    a.comm_ns += recv_ns;
    a.idle_ns += barrier_ns;
    a.queue_depth = wr.queue_depth;
    a.stalled = a.stalled || wr.stalled;
    const obs::LabelSet rank_label{{"rank", std::to_string(r)}};
    if (recv_ns > 0)
      registry_
          .counter("colop_live_recv_wait_seconds_total",
                   "Live blocked-receive wait", rank_label)
          .inc(static_cast<double>(recv_ns) / 1e9);
    if (barrier_ns > 0)
      registry_
          .counter("colop_live_barrier_wait_seconds_total",
                   "Live barrier wait", rank_label)
          .inc(static_cast<double>(barrier_ns) / 1e9);
  }

  for (std::size_t k = 0; k < kKinds; ++k)
    if (by_kind[k] > 0)
      registry_
          .counter("colop_live_events_total",
                   "Flight-recorder records folded, by kind",
                   {{"kind", ev_name(static_cast<Ev>(k))}})
          .inc(static_cast<double>(by_kind[k]));
  if (completions > 0)
    registry_
        .counter("colop_live_stage_completions_total",
                 "Per-rank stage executions completed (live)")
        .inc(static_cast<double>(completions));
  for (std::size_t s = 0; s < stage_seconds.size(); ++s) {
    if (stage_seconds[s].empty()) continue;
    auto& h = registry_.histogram("colop_live_stage_seconds",
                                  "Live per-rank stage latency",
                                  obs::default_seconds_buckets(),
                                  {{"stage", std::to_string(s)}});
    for (const double v : stage_seconds[s]) h.observe(v);
  }
  if (sends > 0) {
    registry_.counter("colop_live_sends_total", "Live messages sent")
        .inc(static_cast<double>(sends));
    registry_
        .counter("colop_live_send_bytes_total", "Live payload bytes sent")
        .inc(static_cast<double>(send_bytes));
  }
  if (w.dropped > 0) {
    dropped_ += w.dropped;
    registry_
        .counter("colop_live_dropped_events_total",
                 "Records lapped in a ring before the sampler drained them")
        .inc(static_cast<double>(w.dropped));
    w.dropped = 0;
  }
}

void LiveSampler::collect_locked() {
  for (auto& w : watched_) {
    if (w->fleet != nullptr) drain_locked(*w);
    fold_locked(*w);
  }
  std::erase_if(watched_, [](const auto& w) { return w->fleet == nullptr; });
}

void LiveSampler::start(double interval_ms) {
  if (interval_ms <= 0) {
    interval_ms = 100;
    if (const char* s = std::getenv("COLOP_LIVE_INTERVAL_MS")) {
      const double v = std::strtod(s, nullptr);
      if (v > 0) interval_ms = v;
    }
  }
  interval_ms_ = interval_ms;
  stop_.store(false, std::memory_order_release);
  thread_ = std::thread([this] { run(); });
}

void LiveSampler::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void LiveSampler::run() {
  const auto tick = std::chrono::duration<double, std::milli>(interval_ms_);
  while (!stop_.load(std::memory_order_acquire)) {
    sample_once();
    // Sleep in small slices so stop() is prompt even at long intervals.
    auto remaining = tick;
    const auto slice = std::chrono::milliseconds(20);
    while (remaining.count() > 0 && !stop_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(
          std::min<std::chrono::duration<double, std::milli>>(remaining, slice));
      remaining -= slice;
    }
  }
  sample_once();  // final fold so end-of-run state is never missed
}

void LiveSampler::sample_once() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  collect_locked();
  registry_.counter("colop_live_samples_total", "Sampler ticks").inc();
  refresh_locked();
}

void LiveSampler::begin_run(LiveRunInfo info) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  collect_locked();  // what is pending belongs to the previous run
  agg_.clear();
  events_ = 0;
  dropped_ = 0;
  last_event_ns_ = 0;
  active_ = true;
  done_ = false;
  repeat_ = 0;
  started_ns_ = steady_now_ns();
  ended_ns_ = 0;
  info_ = std::move(info);
}

void LiveSampler::note_repeat(int repeat) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  repeat_ = repeat;
}

void LiveSampler::end_run() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  if (!active_) return;
  active_ = false;
  done_ = true;
  ended_ns_ = steady_now_ns();
}

void LiveSampler::refresh_locked() {
  obs::LiveSnapshot s;
  s.trace_id = info_.trace_id;
  s.program = info_.program;
  s.repeat = repeat_;
  s.repeats = info_.repeats;
  s.events_total = events_;
  s.dropped_total = dropped_;

  const std::uint64_t now = steady_now_ns();
  const auto age_ms = [now](std::uint64_t t) {
    return static_cast<double>(now > t ? now - t : 0) / 1e6;
  };
  const std::uint64_t end = active_ ? now : ended_ns_;
  s.elapsed_ms = started_ns_ > 0 && end > started_ns_
                     ? static_cast<double>(end - started_ns_) / 1e6
                     : 0;
  bool any_stalled = false;
  std::uint64_t done = 0;
  for (std::size_t r = 0; r < agg_.size(); ++r) {
    const RankAgg& a = agg_[r];
    obs::LiveRankRow row;
    row.rank = static_cast<int>(r);
    row.stage = a.stage;
    if (a.stage >= 0 &&
        static_cast<std::size_t>(a.stage) < info_.stage_labels.size())
      row.stage_label = info_.stage_labels[static_cast<std::size_t>(a.stage)];
    row.stages_done = a.stages_done;
    row.comm_ms = static_cast<double>(a.comm_ns) / 1e6;
    row.idle_ms = static_cast<double>(a.idle_ns) / 1e6;
    row.busy_ms = std::max(0.0, s.elapsed_ms - row.comm_ms - row.idle_ms);
    row.queue_depth = a.queue_depth;
    row.sends = a.sends;
    row.send_bytes = a.send_bytes;
    if (a.last_event_ns > 0) row.last_event_ms = age_ms(a.last_event_ns);
    row.stalled = a.stalled;
    any_stalled |= a.stalled;
    done += a.stages_done;
    s.ranks.push_back(std::move(row));
  }
  s.stages_done = done;
  s.stages_total = static_cast<std::uint64_t>(info_.stage_labels.size()) *
                   static_cast<std::uint64_t>(std::max(info_.repeats, 1)) *
                   static_cast<std::uint64_t>(std::max(info_.ranks, 1));
  if (last_event_ns_ > 0) s.heartbeat_ms = age_ms(last_event_ns_);
  if (active_ && done > 0 && s.stages_total > done)
    s.eta_ms = s.elapsed_ms * static_cast<double>(s.stages_total - done) /
               static_cast<double>(done);
  if (active_)
    s.state = any_stalled ? "stalled" : "running";
  else
    s.state = done_ ? "done" : "idle";

  // Gauges that describe "now" rather than accumulate.
  registry_.gauge("colop_live_running", "1 while a run executes")
      .set(active_ ? 1 : 0);
  registry_.gauge("colop_live_stalled", "1 while the watchdog flags a stall")
      .set(any_stalled ? 1 : 0);
  registry_
      .gauge("colop_live_progress_stages_done",
             "Per-rank stage executions completed this run")
      .set(static_cast<double>(done));
  registry_
      .gauge("colop_live_progress_stages", "Planned stage executions this run")
      .set(static_cast<double>(s.stages_total));
  registry_.gauge("colop_live_progress_repeat", "Current repeat (0-based)")
      .set(repeat_);
  for (const obs::LiveRankRow& row : s.ranks) {
    const obs::LabelSet rank_label{{"rank", std::to_string(row.rank)}};
    registry_
        .gauge("colop_live_queue_depth", "Mailbox depth at the last sample",
               rank_label)
        .set(static_cast<double>(row.queue_depth));
    if (row.last_event_ms >= 0)
      registry_
          .gauge("colop_live_rank_last_event_age_seconds",
                 "Age of the rank's newest flight-recorder record", rank_label)
          .set(row.last_event_ms / 1e3);
    registry_
        .gauge("colop_live_rank_stalled", "1 while the rank is flagged stalled",
               rank_label)
        .set(row.stalled ? 1 : 0);
  }
  publish(std::move(s), active_);
}

}  // namespace colop::rt
