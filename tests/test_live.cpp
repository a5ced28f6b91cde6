// Live telemetry: the cursor-based Recorder::drain the sampler reads rank
// rings with (round trip, lap accounting, packing edges), the sampler's
// run lifecycle, its registry folding and snapshot JSON derived from
// flight-recorder records, the wait_newer long-poll primitive, a fleet
// destroyed between ticks losing nothing, SSE framing goldens, and a
// producers-vs-scraper hammer that TSAN and the monotonic-counter
// assertions both watch.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "colop/exec/thread_executor.h"
#include "colop/ir/ir.h"
#include "colop/obs/json.h"
#include "colop/obs/metrics.h"
#include "colop/rt/live.h"
#include "colop/support/error.h"

namespace colop {
namespace {

using rt::Ev;
using rt::Fleet;
using rt::LiveRunInfo;
using rt::LiveSampler;
using rt::Record;
using rt::Recorder;

rt::Config enabled_config(std::size_t ring = 256) {
  rt::Config cfg;
  cfg.enabled = true;
  cfg.ring_capacity = ring;
  return cfg;
}

TEST(RecorderDrain, RoundTripPreservesOrderAndPayload) {
  Recorder rec(64, std::chrono::steady_clock::now());
  for (int i = 0; i < 10; ++i) {
    rec.set_stage(static_cast<std::uint16_t>(i));
    rec.log(Ev::send, i, 100 + static_cast<std::uint64_t>(i), 7);
  }
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;
  std::vector<Record> out;
  EXPECT_EQ(rec.drain(cursor, out, dropped), 10u);
  EXPECT_EQ(dropped, 0u);
  EXPECT_EQ(cursor, 10u);
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    const Record& r = out[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(r.kind, Ev::send);
    EXPECT_EQ(r.peer, i);
    EXPECT_EQ(r.stage, i);
    EXPECT_EQ(r.bytes, 100 + static_cast<std::uint64_t>(i));
    EXPECT_EQ(r.aux, 7u);
  }
  // Cursor advanced to head: a second drain returns nothing, a later one
  // only what was logged since.
  EXPECT_EQ(rec.drain(cursor, out, dropped), 0u);
  rec.log(Ev::mark);
  EXPECT_EQ(rec.drain(cursor, out, dropped), 1u);
  EXPECT_EQ(out.back().seq, 10u);
}

TEST(RecorderDrain, LappedRecordsAreCountedAsDropped) {
  Recorder rec(16, std::chrono::steady_clock::now());  // minimum ring
  for (std::uint64_t i = 0; i < 40; ++i) rec.log(Ev::mark, -1, 0, i);
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;
  std::vector<Record> out;
  rec.drain(cursor, out, dropped);
  EXPECT_EQ(dropped, 24u);  // head 40 - capacity 16
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out.front().aux, 24u);  // oldest surviving record
  EXPECT_EQ(out.back().aux, 39u);

  // A consumer that fell behind mid-stream loses exactly what was lapped.
  for (std::uint64_t i = 40; i < 60; ++i) rec.log(Ev::mark, -1, 0, i);
  out.clear();
  rec.drain(cursor, out, dropped);
  EXPECT_EQ(dropped, 24u + 4u);  // 20 new records, ring keeps 16
  ASSERT_EQ(out.size(), 16u);
  EXPECT_EQ(out.front().aux, 44u);
}

TEST(RecorderDrain, NoStageAndNegativePeerSurvivePacking) {
  Recorder rec(16, std::chrono::steady_clock::now());
  rec.log(Ev::mark, -1, 0, 5);
  std::uint64_t cursor = 0;
  std::uint64_t dropped = 0;
  std::vector<Record> out;
  rec.drain(cursor, out, dropped);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].stage, Record::kNoStage);
  EXPECT_EQ(out[0].peer, -1);
  EXPECT_EQ(out[0].aux, 5u);
}

TEST(LiveSampler, RunLifecycleBumpsSeqOnEveryEdge) {
  obs::Registry reg;
  LiveSampler sampler(reg);
  sampler.sample_once();
  const auto s0 = sampler.snapshot();
  EXPECT_EQ(s0.state, "idle");

  LiveRunInfo info;
  info.trace_id = "cafe";
  info.repeats = 3;
  sampler.begin_run(info);
  sampler.sample_once();
  const auto s1 = sampler.snapshot();
  EXPECT_EQ(s1.state, "running");
  EXPECT_GT(s1.seq, s0.seq);
  EXPECT_EQ(s1.trace_id, "cafe");

  sampler.note_repeat(2);
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().repeat, 2);

  sampler.end_run();
  sampler.sample_once();
  const auto s2 = sampler.snapshot();
  EXPECT_EQ(s2.state, "done");
  EXPECT_GT(s2.seq, s1.seq);
  EXPECT_GE(s2.elapsed_ms, 0);

  sampler.end_run();  // idempotent: no second edge
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().seq, s2.seq);
}

TEST(LiveSampler, FoldsEventsIntoRegistryInstruments) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry reg;
  LiveSampler sampler(reg);  // no start(): drive sample_once()

  LiveRunInfo info;
  info.trace_id = "deadbeef";
  info.program = "scan(+) ; reduce(+)";
  info.stage_labels = {"scan(+)", "reduce(+)"};
  info.ranks = 2;
  info.repeats = 1;
  sampler.begin_run(info);

  Fleet fleet(2, enabled_config());
  Recorder& r0 = *fleet.recorder(0);
  Recorder& r1 = *fleet.recorder(1);
  r0.set_stage(0);
  r0.log(Ev::stage_begin);
  r0.log(Ev::send, 1, 512, 0);
  r0.log(Ev::stage_end);
  r1.log(Ev::recv_begin, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  r1.log(Ev::recv_end, 0, 512);
  r1.log(Ev::barrier_begin);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  r1.log(Ev::barrier_end);
  fleet.stats(1)->queue_depth.store(3, std::memory_order_relaxed);
  sampler.sample_once();

  EXPECT_EQ(reg.value("colop_live_events_total", {{"kind", "stage_end"}}), 1);
  EXPECT_EQ(reg.value("colop_live_events_total", {{"kind", "send"}}), 1);
  EXPECT_EQ(reg.value("colop_live_events_total", {{"kind", "recv_end"}}), 1);
  EXPECT_EQ(reg.value("colop_live_stage_completions_total"), 1);
  EXPECT_EQ(reg.value("colop_live_sends_total"), 1);
  EXPECT_EQ(reg.value("colop_live_send_bytes_total"), 512);
  const double recv_s =
      reg.value("colop_live_recv_wait_seconds_total", {{"rank", "1"}});
  const double barrier_s =
      reg.value("colop_live_barrier_wait_seconds_total", {{"rank", "1"}});
  EXPECT_GE(recv_s, 0.002);
  EXPECT_GE(barrier_s, 0.001);
  EXPECT_EQ(reg.value("colop_live_running"), 1);
  EXPECT_EQ(reg.value("colop_live_progress_stages_done"), 1);
  EXPECT_EQ(reg.value("colop_live_progress_stages"), 4);  // 2 stages × 2 ranks
  EXPECT_EQ(reg.value("colop_live_queue_depth", {{"rank", "1"}}), 3);

  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.state, "running");
  EXPECT_EQ(snap.trace_id, "deadbeef");
  EXPECT_EQ(snap.stages_done, 1u);
  EXPECT_EQ(snap.stages_total, 4u);
  EXPECT_EQ(snap.events_total, 7u);
  ASSERT_EQ(snap.ranks.size(), 2u);
  EXPECT_EQ(snap.ranks[0].sends, 1u);
  EXPECT_EQ(snap.ranks[0].send_bytes, 512u);
  EXPECT_EQ(snap.ranks[1].queue_depth, 3u);
  // The snapshot and the registry derive the waits from the same records.
  EXPECT_NEAR(snap.ranks[1].comm_ms, recv_s * 1e3, 1e-6);
  EXPECT_NEAR(snap.ranks[1].idle_ms, barrier_s * 1e3, 1e-6);
  EXPECT_GE(snap.ranks[0].last_event_ms, 0);

  sampler.end_run();
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "done");
  EXPECT_EQ(reg.value("colop_live_running"), 0);

  // The exposition the sampler writes must satisfy the Prometheus lint the
  // exporter is pinned to.
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_TRUE(obs::prom_lint(os.str()).empty());
}

TEST(LiveSampler, StallEventFlagsRankAndState) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry reg;
  LiveSampler sampler(reg);
  LiveRunInfo info;
  info.ranks = 1;
  info.stage_labels = {"bcast"};
  sampler.begin_run(info);
  {
    Fleet stuck(1, enabled_config());
    stuck.recorder(0)->log(Ev::stage_begin);
    // What the watchdog does on a stall.
    stuck.stats(0)->stalled.store(1, std::memory_order_relaxed);
    sampler.sample_once();
    EXPECT_EQ(sampler.snapshot().state, "stalled");
    ASSERT_FALSE(sampler.snapshot().ranks.empty());
    EXPECT_TRUE(sampler.snapshot().ranks[0].stalled);
    EXPECT_EQ(reg.value("colop_live_stalled"), 1);
    EXPECT_EQ(reg.value("colop_live_rank_stalled", {{"rank", "0"}}), 1);
  }

  // The next run's first stage_begin clears the verdict.
  Fleet next(1, enabled_config());
  next.recorder(0)->log(Ev::stage_begin);
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "running");
  sampler.end_run();
}

TEST(LiveSampler, IdleWithoutARunAndSeqQuiescesWhenNothingMoves) {
  obs::Registry reg;
  LiveSampler sampler(reg);
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().state, "idle");
  const std::uint64_t seq = sampler.snapshot().seq;
  sampler.sample_once();
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().seq, seq);  // no records, no run: no bumps
}

TEST(LiveSampler, SnapshotJsonParsesAndCarriesProgress) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry reg;
  LiveSampler sampler(reg);
  LiveRunInfo info;
  info.trace_id = "0123456789abcdef";
  info.program = "bcast ; scan(+)";
  info.stage_labels = {"bcast", "scan(+)"};
  info.ranks = 1;
  info.repeats = 2;
  sampler.begin_run(info);
  sampler.note_repeat(1);
  Fleet fleet(1, enabled_config());
  fleet.recorder(0)->set_stage(0);
  fleet.recorder(0)->log(Ev::stage_begin);
  fleet.recorder(0)->log(Ev::stage_end);
  sampler.sample_once();

  const auto doc = obs::json::parse(sampler.snapshot().to_json());
  EXPECT_EQ(doc.get("state")->str, "running");
  EXPECT_EQ(doc.get("trace_id")->str, "0123456789abcdef");
  EXPECT_EQ(doc.get("program")->str, "bcast ; scan(+)");
  const auto* progress = doc.get("progress");
  ASSERT_TRUE(progress != nullptr);
  EXPECT_EQ(progress->get("stages_done")->num, 1);
  EXPECT_EQ(progress->get("stages_total")->num, 4);  // 2 stages × 2 repeats
  EXPECT_EQ(progress->get("repeat")->num, 1);
  EXPECT_EQ(progress->get("repeats")->num, 2);
  const auto* ranks = doc.get("ranks");
  ASSERT_TRUE(ranks != nullptr);
  ASSERT_EQ(ranks->items.size(), 1u);
  EXPECT_EQ(ranks->items[0]->get("stages_done")->num, 1);
  sampler.end_run();
}

TEST(LiveSampler, WaitNewerTimesOutAndWakes) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry reg;
  LiveSampler sampler(reg);
  sampler.sample_once();
  const std::uint64_t seq = sampler.snapshot().seq;

  // Nothing changes: the poll times out and returns the same snapshot.
  EXPECT_EQ(sampler.wait_newer(seq, 30).seq, seq);

  // A record folded by a concurrent sample wakes the waiter.
  std::thread waker([&] {
    Fleet fleet(1, enabled_config());
    fleet.recorder(0)->log(Ev::mark);
    sampler.sample_once();
  });
  const obs::LiveSnapshot fresh = sampler.wait_newer(seq, 5000);
  waker.join();
  EXPECT_GT(fresh.seq, seq);
}

TEST(LiveSampler, BackgroundThreadFoldsWithoutManualSampling) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  obs::Registry reg;
  LiveSampler sampler(reg);
  sampler.start(5);
  EXPECT_EQ(sampler.interval_ms(), 5);
  Fleet fleet(1, enabled_config());
  fleet.recorder(0)->log(Ev::mark);
  const obs::LiveSnapshot snap = sampler.wait_newer(0, 5000);
  EXPECT_GE(snap.events_total, 1u);
  sampler.stop();
  EXPECT_GE(reg.value("colop_live_samples_total"), 1);
}

TEST(LiveSampler, OneSamplerAttachesAtATime) {
  obs::Registry reg;
  {
    LiveSampler first(reg);
    EXPECT_THROW(LiveSampler second(reg), Error);
  }
  EXPECT_NO_THROW(LiveSampler again(reg));
}

TEST(LiveSampler, FleetsBuiltWithoutASamplerAreNotWatched) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  Fleet before(1, enabled_config());
  obs::Registry reg;
  LiveSampler sampler(reg);
  before.recorder(0)->log(Ev::stage_begin);
  before.recorder(0)->log(Ev::stage_end);
  sampler.sample_once();
  EXPECT_EQ(sampler.snapshot().events_total, 0u);
}

// Every repeat of a real thread run builds and destroys its own fleet,
// and here no tick runs between them: each fleet hands its records over
// as it dies, so the completion count is exact after end_run.
TEST(LiveSampler, NoRecordLostWhenFleetsDieBetweenTicks) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  struct Guard {
    rt::Config saved = rt::mutable_config();
    ~Guard() { rt::mutable_config() = saved; }
  } guard;
  rt::mutable_config().enabled = true;

  ir::Program prog;
  prog.scan(ir::op_add()).reduce(ir::op_add()).bcast();
  constexpr int kRanks = 4;
  constexpr int kRepeats = 5;
  obs::Registry reg;
  LiveSampler sampler(reg);
  LiveRunInfo info;
  info.ranks = kRanks;
  info.repeats = kRepeats;
  info.stage_labels = {"scan(+)", "reduce(+)", "bcast"};
  sampler.begin_run(info);
  std::uint64_t messages = 0;
  for (int it = 0; it < kRepeats; ++it) {
    sampler.note_repeat(it);
    const auto run = exec::run_on_threads_instrumented(
        prog, ir::dist_of_ints({1, 2, 3, 4}));
    messages += run.traffic.messages;
  }
  sampler.end_run();
  sampler.sample_once();

  EXPECT_EQ(reg.value("colop_live_stage_completions_total"),
            3.0 * kRanks * kRepeats);
  EXPECT_EQ(reg.value("colop_live_sends_total"), static_cast<double>(messages));
  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.state, "done");
  EXPECT_EQ(snap.stages_done, snap.stages_total);
  EXPECT_EQ(snap.dropped_total, 0u);
}

// Producers hammer their ranks' rings while a scraper thread interleaves
// sample_once() with full Prometheus expositions.  TSAN watches the
// memory-order contract; the assertions watch counter monotonicity.
TEST(LiveHammer, CountersStayMonotonicUnderConcurrentScrapes) {
  if (!rt::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  constexpr int kThreads = 4;
  constexpr int kEach = 5000;
  obs::Registry reg;
  LiveSampler sampler(reg);
  LiveRunInfo info;
  info.ranks = kThreads;
  info.stage_labels = {"scan(+)"};
  sampler.begin_run(info);

  {
    // Small rings force the lap-and-drop paths.
    Fleet fleet(kThreads, enabled_config(512));
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    producers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      producers.emplace_back([&fleet, &go, t] {
        Recorder& rec = *fleet.recorder(t);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        rec.set_stage(0);
        for (int i = 0; i < kEach; ++i) {
          rec.log(Ev::stage_begin);
          rec.log(Ev::stage_end);
          rec.log(Ev::send, (t + 1) % kThreads, 64);
        }
      });
    }

    go.store(true, std::memory_order_release);
    double last_events = 0;
    double last_completions = 0;
    for (int scrape = 0; scrape < 50; ++scrape) {
      sampler.sample_once();
      std::ostringstream os;
      reg.write_prometheus(os);
      const double events =
          reg.value("colop_live_events_total", {{"kind", "stage_end"}}) +
          reg.value("colop_live_dropped_events_total");
      const double completions =
          reg.value("colop_live_stage_completions_total");
      EXPECT_GE(events, last_events);
      EXPECT_GE(completions, last_completions);
      last_events = events;
      last_completions = completions;
    }
    for (auto& th : producers) th.join();
  }  // the fleet dies here and hands over what is left
  sampler.end_run();
  sampler.sample_once();

  // Every record was either folded or counted as dropped; nothing vanished.
  const obs::LiveSnapshot snap = sampler.snapshot();
  EXPECT_EQ(snap.events_total + snap.dropped_total,
            static_cast<std::uint64_t>(kThreads) * kEach * 3);
  EXPECT_EQ(snap.state, "done");
  std::ostringstream os;
  reg.write_prometheus(os);
  EXPECT_TRUE(obs::prom_lint(os.str()).empty());
}

TEST(SseFrame, SingleLineGolden) {
  EXPECT_EQ(obs::sse_frame(7, "snapshot", R"({"seq":7})"),
            "id: 7\nevent: snapshot\ndata: {\"seq\":7}\n\n");
}

TEST(SseFrame, EndFrameGolden) {
  EXPECT_EQ(obs::sse_frame(42, "end", R"({"state":"done"})"),
            "id: 42\nevent: end\ndata: {\"state\":\"done\"}\n\n");
}

TEST(SseFrame, MultiLineDataSplitsPerSpec) {
  EXPECT_EQ(obs::sse_frame(1, "snapshot", "line1\nline2\nline3"),
            "id: 1\nevent: snapshot\n"
            "data: line1\ndata: line2\ndata: line3\n\n");
  // A trailing newline yields a final empty data field, still terminated.
  EXPECT_EQ(obs::sse_frame(2, "snapshot", "x\n"),
            "id: 2\nevent: snapshot\ndata: x\ndata: \n\n");
}

}  // namespace
}  // namespace colop
