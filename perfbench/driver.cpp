// Closed-loop wall-clock benchmark of colop: one client thread sends one
// request at a time through the public API of every module and checks each
// output against an independent reference.
//
//   colop_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A request compiles one deck program (parse -> shapes -> optimize, plus
// certification on search_certify -> price), predicts it on simnet, and
// runs the optimized program on the thread executor.  A run is whole
// passes over a fixed deck for S seconds; the seed only changes the request
// order and the input values, never which items run or how often.
//
// Every request is timed twice: on the wall clock and on the process CPU
// clock (all threads, host steal excluded).  The end-to-end metrics use
// the CPU clock: on a shared machine, rank threads that wait for a core
// stretch wall time many-fold (search_certify launches up to 9 rank
// threads per trial on 4 cores) while their CPU time barely moves.  Wall
// latencies are reported with the per-layer metrics.
//
// --trace 0 prints the end-to-end metrics; --trace 1 interleaves plain,
// traced and telemetry-off passes and prints the per-layer metrics, the
// per-item rows, the layer shares and the certification launch prediction.
// Spans are recorded here, around calls into each module; nothing inside
// the library is instrumented.  The last stdout line is the JSON result.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/ir/packed_eval.h"
#include "colop/ir/parse.h"
#include "colop/ir/shapes.h"
#include "colop/model/cost.h"
#include "colop/mpsim/spmd.h"
#include "colop/rt/flight_recorder.h"
#include "colop/rt/report.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/search.h"
#include "colop/verify/certify.h"
#include "deck.h"
#include "stats.h"

namespace perfbench {
namespace {

namespace exec = colop::exec;
namespace rules = colop::rules;
namespace verify = colop::verify;
namespace rt = colop::rt;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Hard stop well inside the 180 s a run may take, whatever the pass count.
constexpr double kDeadlineS = 150;
constexpr int kSetups = 3;

// ---------------------------------------------------------------- tracing

struct Span {
  const char* name;
  Clock::time_point start, end;
  int parent;  ///< index of the enclosing span, -1 at a request root
};

/// Spans of one traced request, kept in memory until the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    open_ = -1;
  }

  int begin(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back({name, Clock::now(), {}, open_});
    open_ = static_cast<int>(spans_.size()) - 1;
    return open_;
  }
  void end(int index) {
    if (index < 0) return;
    auto& span = spans_[static_cast<std::size_t>(index)];
    span.end = Clock::now();
    open_ = span.parent;
  }

 private:
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.begin(name)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Duration of every span with this name, summed, in milliseconds.
double span_ms(const std::vector<Span>& spans, const std::string& name) {
  double total = 0;
  for (const auto& s : spans)
    if (name == s.name) total += ms_between(s.start, s.end);
  return total;
}

// ---------------------------------------------------------------- requests

/// Per-request counts that depend only on the program, never on the input
/// values or the machine's speed; every pass must reproduce them exactly.
struct Counts {
  std::uint64_t nodes_expanded = 0, nodes_generated = 0, pruned_by_bound = 0;
  std::uint64_t memo_hits = 0, memo_entries = 0, rewrites = 0;
  std::uint64_t discharged_steps = 0, reused_steps = 0, demoted = 0;
  std::uint64_t simnet_messages = 0;
  double simnet_words = 0;
  std::uint64_t mpsim_messages = 0, mpsim_bytes = 0;
  double sim_source = 0, sim_optimized = 0;

  Counts& operator+=(const Counts& o) {
    nodes_expanded += o.nodes_expanded;
    nodes_generated += o.nodes_generated;
    pruned_by_bound += o.pruned_by_bound;
    memo_hits += o.memo_hits;
    memo_entries += o.memo_entries;
    rewrites += o.rewrites;
    discharged_steps += o.discharged_steps;
    reused_steps += o.reused_steps;
    demoted += o.demoted;
    simnet_messages += o.simnet_messages;
    simnet_words += o.simnet_words;
    mpsim_messages += o.mpsim_messages;
    mpsim_bytes += o.mpsim_bytes;
    sim_source += o.sim_source;
    sim_optimized += o.sim_optimized;
    return *this;
  }
  friend bool operator==(const Counts&, const Counts&) = default;
};

struct Outcome {
  bool ok = false;
  double e2e_ms = 0, compile_ms = 0, run_ms = 0, inner_ms = 0;
  double e2e_cpu_ms = 0, compile_cpu_ms = 0, run_cpu_ms = 0;
  bool packed = false;
  Counts counts;
  ir::Program optimized;
  rt::FleetSnapshot rt;
};

/// One request: compile, predict, run.  Only the input copy and the output
/// check lie outside the clocks.
Outcome serve(const Workload& w, const Item& item, const Case& c,
              Tracer& tracer) {
  Outcome o;
  ir::Dist input = c.input;
  const double c0 = process_cpu_ms();
  const auto t0 = Clock::now();
  exec::ThreadRunResult run;
  Clock::time_point t_compiled, t_predicted;
  double c_compiled = 0, c_predicted = 0;
  {
    Scope request(tracer, "request");
    ir::Program source;
    {
      Scope compile(tracer, "compile");
      {
        Scope s(tracer, "ir.parse");
        source = build_source(w, item);
      }
      {
        Scope s(tracer, "ir.shapes");
        (void)ir::infer_shapes(source);
      }
      if (w.search) {
        rules::SearchOptions opts;
        opts.strategy = rules::SearchStrategy::branch_bound;
        opts.beam_width = 0;
        rules::SearchResult found;
        {
          Scope s(tracer, "rules.search");
          const rules::SearchOptimizer searcher(w.model, rules::all_rules(),
                                                opts);
          found = searcher.search(source);
        }
        const auto& st = found.stats;
        o.counts.nodes_expanded = st.nodes_expanded;
        o.counts.nodes_generated = st.nodes_generated;
        o.counts.pruned_by_bound = st.pruned_by_bound;
        o.counts.memo_hits = st.memo_hits;
        o.counts.memo_entries = st.memo_entries;
        Scope s(tracer, "verify.certify");
        auto cert = verify::certify_search(source, std::move(found));
        o.counts.discharged_steps = cert.certification.discharged_steps;
        o.counts.reused_steps = cert.certification.reused_steps;
        o.counts.demoted = cert.demoted ? 1 : 0;
        o.counts.rewrites = cert.search.best.log.size();
        o.optimized = std::move(cert.search.best.program);
      } else {
        Scope s(tracer, "rules.optimize");
        const rules::Optimizer optimizer(w.model);
        auto result = optimizer.optimize(source);
        o.counts.rewrites = result.log.size();
        o.optimized = std::move(result.program);
      }
      Scope s(tracer, "model.price");
      (void)colop::model::program_time(o.optimized, w.model);
    }
    t_compiled = Clock::now();
    c_compiled = process_cpu_ms();
    {
      Scope s(tracer, "simnet.predict");
      const auto src = exec::run_on_simnet(source, w.model);
      const auto opt = exec::run_on_simnet(o.optimized, w.model);
      o.counts.sim_source = src.time;
      o.counts.sim_optimized = opt.time;
      o.counts.simnet_messages = src.messages + opt.messages;
      o.counts.simnet_words = src.words + opt.words;
    }
    t_predicted = Clock::now();
    c_predicted = process_cpu_ms();
    Scope s(tracer, "exec.run");
    run = exec::run_on_threads_instrumented(o.optimized, std::move(input));
  }
  const auto t_end = Clock::now();
  const double c_end = process_cpu_ms();
  o.e2e_cpu_ms = c_end - c0;
  o.compile_cpu_ms = c_compiled - c0;
  o.run_cpu_ms = c_end - c_predicted;
  o.e2e_ms = ms_between(t0, t_end);
  o.compile_ms = ms_between(t0, t_compiled);
  o.run_ms = ms_between(t_predicted, t_end);
  o.inner_ms = run.wall_seconds * 1e3;
  o.packed = run.used_packed;
  o.counts.mpsim_messages = run.traffic.messages;
  o.counts.mpsim_bytes = run.traffic.bytes;
  o.rt = std::move(run.rt);
  o.ok = output_ok(c, run.output);
  return o;
}

/// Wall time of one thread-executor call, in milliseconds; nullopt when
/// the call throws or the output does not match the case.
std::optional<double> timed_run(const ir::Program& prog, const Case& c) {
  ir::Dist input = c.input;
  try {
    const auto t0 = Clock::now();
    const auto run = exec::run_on_threads_instrumented(prog, std::move(input));
    const double ms = ms_between(t0, Clock::now());
    if (output_ok(c, run.output)) return ms;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- the run

enum class PassKind { plain, traced, rt_off };

/// Everything measured about one deck item, as named series of samples
/// in milliseconds.  Plain passes fill "e2e", "compile", "run", their CPU
/// twins "e2e_cpu", "compile_cpu", "run_cpu", and the wall pairs "source"
/// and "optimized"; traced passes fill "traced.e2e",
/// one series per layer span, "exec.inner", "exec.boundary", "residual",
/// the rank waits and "ir.pack"/"ir.unpack"; rt-off passes fill
/// "rt_off.run".
struct ItemLog {
  std::map<std::string, std::vector<double>> series;
  bool packed = false;
  double sim_source = 0, sim_optimized = 0;  ///< deterministic, op units

  void add(const std::string& name, double ms) { series[name].push_back(ms); }
  [[nodiscard]] const std::vector<double>& of(const std::string& name) const {
    static const std::vector<double> kNone;
    const auto found = series.find(name);
    return found == series.end() ? kNone : found->second;
  }
};

struct Setup {
  std::vector<ir::Program> sources;
  std::vector<std::vector<Case>> cases;  ///< [item][variant]
};

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, bool trace)
      : w_(std::move(w)), seed_(seed), trace_(trace) {}

  void run(double seconds);
  void print_result() const;

 private:
  [[nodiscard]] Setup set_up() const;
  void pass(const Setup& setup, int index, PassKind kind, bool record);
  void record(std::size_t item, PassKind kind, const Outcome& o,
              const Tracer& tracer);
  void probe_launches();
  [[nodiscard]] double launch_prediction_ms() const;
  /// A failed measured request (counted), or a failed check elsewhere.
  void fail(bool request, const std::string& what);

  Workload w_;
  std::uint64_t seed_;
  bool trace_;
  std::mt19937_64 order_rng_{0};

  std::vector<ItemLog> items_;
  std::vector<double> setup_s_;  ///< CPU seconds of each set-up
  std::uint64_t attempted_ = 0, failed_ = 0;
  /// Every check outside the measured requests held: warm-up and paired
  /// outputs matched, and every complete pass reproduced pass_counts_.
  bool consistent_ = true;
  std::optional<Counts> pass_counts_;  ///< first complete pass
  std::uint64_t rt_events_ = 0, rt_dropped_ = 0, spans_ = 0;
  int traced_passes_ = 0, passes_ = 0;
  std::vector<double> request_pass_s_;      ///< plain passes, wall seconds
  std::vector<double> request_pass_cpu_s_;  ///< plain passes, CPU seconds
  std::vector<double> launch_us_;      ///< [p - 1], trace mode
  std::vector<double> block2_run_ms_;  ///< [p - 1], trace mode
  bool truncated_ = false;
  double load_start_ = 0, load_end_ = 0;
  std::uint64_t steal_ = 0;
};

void Bench::fail(bool request, const std::string& what) {
  if (request)
    ++failed_;
  else
    consistent_ = false;
  std::cerr << "perfbench: " << what << "\n";
}

Setup Bench::set_up() const {
  Setup s;
  std::mt19937_64 seeds(seed_);
  for (const auto& item : w_.deck) {
    s.sources.push_back(build_source(w_, item));
    auto& cases = s.cases.emplace_back();
    for (int v = 0; v < w_.variants; ++v)
      cases.push_back(make_case(w_, item, s.sources.back(), seeds()));
  }
  return s;
}

void Bench::record(std::size_t i, PassKind kind, const Outcome& o,
                   const Tracer& tracer) {
  auto& log = items_[i];
  log.packed = o.packed;
  log.sim_source = o.counts.sim_source;
  log.sim_optimized = o.counts.sim_optimized;
  if (kind == PassKind::plain) {
    log.add("e2e", o.e2e_ms);
    log.add("compile", o.compile_ms);
    log.add("run", o.run_ms);
    log.add("e2e_cpu", o.e2e_cpu_ms);
    log.add("compile_cpu", o.compile_cpu_ms);
    log.add("run_cpu", o.run_cpu_ms);
    return;
  }
  if (kind == PassKind::rt_off) {
    log.add("rt_off.run", o.run_ms);
    return;
  }
  log.add("traced.e2e", o.e2e_ms);
  const auto& spans = tracer.spans();
  for (const char* layer :
       {"ir.parse", "ir.shapes", "rules.search", "rules.optimize",
        "verify.certify", "model.price", "simnet.predict", "exec.run"})
    log.add(layer, span_ms(spans, layer));
  log.add("exec.inner", o.inner_ms);
  log.add("exec.boundary", o.run_ms - o.inner_ms);
  // Uncovered residual: request time outside every module call.
  double covered = 0;
  for (const auto& s : spans)
    if (s.parent >= 0 && std::string(s.name) != "compile")
      covered += ms_between(s.start, s.end);
  log.add("residual", span_ms(spans, "request") - covered);
  if (o.rt.enabled) {
    rt::RtReportOptions opts;
    opts.keep_events = false;
    const auto report = rt::build_report(o.rt, opts);
    double recv = 0, barrier = 0;
    for (const auto& r : report.ranks) {
      recv = std::max(recv, r.recv_wait_ms);
      barrier = std::max(barrier, r.barrier_wait_ms);
      rt_events_ += r.events;
      rt_dropped_ += r.dropped;
    }
    log.add("mpsim.recv_wait", recv);
    log.add("mpsim.barrier_wait", barrier);
  }
  spans_ += spans.size();
}

void Bench::pass(const Setup& setup, int index, PassKind kind, bool keep) {
  std::vector<std::size_t> order(w_.deck.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), order_rng_);
  const auto variant = static_cast<std::size_t>(index % w_.variants);
  Tracer tracer(kind == PassKind::traced);
  std::vector<ir::Program> optimized(w_.deck.size());
  Counts counts;
  bool complete = true;
  const bool rt_was = rt::mutable_config().enabled;
  if (kind == PassKind::rt_off) rt::mutable_config().enabled = false;

  const auto t0 = Clock::now();
  const double c0 = process_cpu_ms();
  for (const std::size_t i : order) {
    const Case& c = setup.cases[i][variant];
    tracer.clear();
    if (keep) ++attempted_;
    try {
      Outcome o = serve(w_, w_.deck[i], c, tracer);
      counts += o.counts;
      if (!o.ok) {
        complete = false;
        fail(keep, w_.deck[i].name + ": output differs from reference");
        continue;
      }
      if (keep) record(i, kind, o, tracer);
      if (keep && kind == PassKind::traced && o.packed) {
        // Pack/unpack timed beside the run: the boundary layer alone.
        ir::Dist input = c.input;
        const auto p0 = Clock::now();
        const auto packed = ir::try_pack_for(o.optimized, input);
        const auto p1 = Clock::now();
        if (packed) {
          const ir::Dist back = ir::unpack_dist(*packed);
          items_[i].add("ir.pack", ms_between(p0, p1));
          items_[i].add("ir.unpack", ms_between(p1, Clock::now()));
        }
      }
      optimized[i] = std::move(o.optimized);
    } catch (const std::exception& e) {
      complete = false;
      fail(keep, w_.deck[i].name + ": " + e.what());
    }
  }
  if (keep && kind == PassKind::plain) {
    request_pass_s_.push_back(ms_between(t0, Clock::now()) / 1e3);
    request_pass_cpu_s_.push_back((process_cpu_ms() - c0) / 1e3);
  }
  rt::mutable_config().enabled = rt_was;

  if (complete) {
    if (!pass_counts_) pass_counts_ = counts;
    if (counts != *pass_counts_) {
      consistent_ = false;
      std::cerr << "perfbench: a pass changed the deterministic counts\n";
    }
    if (keep && kind == PassKind::traced) ++traced_passes_;
  }
  if (kind != PassKind::plain) return;

  // Source/optimized wall pairs on the same input, alternating which goes
  // first, for wall_speedup.
  for (const std::size_t i : order) {
    if (optimized[i].empty()) continue;
    const Case& c = setup.cases[i][variant];
    for (int k = 0; k < w_.pairs; ++k) {
      const bool source_first = (index + k) % 2 == 0;
      const ir::Program& first = source_first ? setup.sources[i] : optimized[i];
      const ir::Program& second = source_first ? optimized[i] : setup.sources[i];
      const auto a = timed_run(first, c);
      const auto b = timed_run(second, c);
      if (!a || !b) {
        fail(false, w_.deck[i].name + ": paired run differs from reference");
        continue;
      }
      if (!keep) continue;
      items_[i].add("source", source_first ? *a : *b);
      items_[i].add("optimized", source_first ? *b : *a);
    }
  }
}

void Bench::probe_launches() {
  // Empty-body SPMD launches: the fixed cost every thread-executor run and
  // every certification trial pays.
  constexpr int kReps = 100;
  const ir::Program probe = ir::parse_program("scan(+) ; reduce(+)");
  std::mt19937_64 rng(seed_);
  for (int p = 1; p <= 9; ++p) {
    std::vector<double> launch, block2;
    ir::Dist input(static_cast<std::size_t>(p), ir::Block(2));
    for (auto& b : input)
      for (auto& v : b) v = ir::Value(static_cast<int>(rng() % 7) - 3);
    for (int r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      colop::mpsim::run_spmd(p, [](colop::mpsim::Comm&) {});
      launch.push_back(ms_between(t0, Clock::now()) * 1e3);
      ir::Dist copy = input;
      const auto t1 = Clock::now();
      (void)exec::run_on_threads(probe, std::move(copy));
      block2.push_back(ms_between(t1, Clock::now()));
    }
    launch_us_.push_back(median(launch));
    block2_run_ms_.push_back(median(block2));
  }
}

double Bench::launch_prediction_ms() const {
  // certify_search runs LHS and RHS on threads for 2 trials at each
  // p = 1..9 per discharged step (CertifyOptions defaults).
  const verify::CertifyOptions defaults;
  if (!pass_counts_) return 0;
  return static_cast<double>(pass_counts_->discharged_steps) * 2.0 *
         defaults.trials_per_p * sum(block2_run_ms_);
}

void Bench::run(double seconds) {
  load_start_ = load_average();
  const std::uint64_t steal0 = steal_ticks();
  const auto start = Clock::now();
  items_.assign(w_.deck.size(), {});

  // Set-up: deck parsing, seeded inputs and references, warm-up passes.
  // Repeated, so setup_s is a median; CPU time, like the requests.
  Setup setup;
  for (int k = 0; k < kSetups; ++k) {
    const double c0 = process_cpu_ms();
    order_rng_.seed(seed_);
    setup = set_up();
    for (int j = 0; j < w_.warmup_passes; ++j)
      pass(setup, j, PassKind::plain, false);
    setup_s_.push_back((process_cpu_ms() - c0) / 1e3);
  }

  if (trace_) probe_launches();
  // Whole passes until the measuring time is used up: every item runs
  // equally often whatever the machine's speed.
  static constexpr PassKind kCycle[] = {PassKind::plain, PassKind::traced,
                                        PassKind::rt_off};
  const int min_passes = trace_ ? 3 : 2;
  const auto measuring = Clock::now();
  for (int k = 0; k < min_passes || ms_between(measuring, Clock::now()) <
                                        seconds * 1e3;
       ++k) {
    if (ms_between(start, Clock::now()) / 1e3 > kDeadlineS) {
      truncated_ = true;
      break;
    }
    pass(setup, k + 1, trace_ ? kCycle[k % 3] : PassKind::plain, true);
    ++passes_;
  }
  load_end_ = load_average();
  steal_ = steal_ticks() - steal0;
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-item medians of one series, over the items that have samples.
std::vector<double> item_medians(const std::vector<ItemLog>& items,
                                 const std::string& name) {
  std::vector<double> medians;
  for (const auto& it : items)
    if (!it.of(name).empty()) medians.push_back(median(it.of(name)));
  return medians;
}

/// Per-item p90 when every item has at least 100 samples (ten beyond the
/// percentile); otherwise the geometric mean of the item medians scaled by
/// the p90 of every sample over its own item's median.
double p90_of(const std::vector<ItemLog>& items) {
  std::size_t fewest = SIZE_MAX;
  std::vector<double> p90s, ratios;
  for (const auto& it : items) {
    const auto& xs = it.of("e2e");
    fewest = std::min(fewest, xs.size());
    p90s.push_back(quantile(xs, 0.9));
    const double m = median(xs);
    for (double x : xs) ratios.push_back(x / m);
  }
  if (fewest >= 100) return geomean(p90s);
  return geomean(item_medians(items, "e2e")) * quantile(ratios, 0.9);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void Bench::print_result() const {
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  std::cout << "context {\"workload\": \"" << w_.name << "\", \"seed\": "
            << seed_ << ", \"trace\": " << (trace_ ? 1 : 0)
            << ", \"nproc\": " << nproc << ", \"rank_budget\": " << nproc / 2
            << ", \"run_p\": " << w_.run_p << ", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"passes\": " << passes_
            << ", \"truncated\": " << (truncated_ ? "true" : "false")
            << ", \"loadavg_start\": " << load_start_
            << ", \"loadavg_end\": " << load_end_
            << ", \"steal_ticks\": " << steal_ << "}\n";

  const bool correct = failed_ == 0 && consistent_ && pass_counts_ &&
                       !truncated_;
  const Counts deck = pass_counts_.value_or(Counts{});
  const auto p50 = [&](const std::string& name) {
    return geomean(item_medians(items_, name));
  };
  std::vector<Metric> m;

  if (!trace_) {
    std::vector<double> sim_ratio, wall_ratio;
    for (const auto& it : items_) {
      sim_ratio.push_back(it.sim_source / it.sim_optimized);
      if (!it.of("source").empty())
        wall_ratio.push_back(median(it.of("source")) /
                             median(it.of("optimized")));
    }
    m = {
        {"e2e_cpu_ms.p50", p50("e2e_cpu"), "ms"},
        {"compile_cpu_ms.p50", p50("compile_cpu"), "ms"},
        {"run_cpu_ms.p50", p50("run_cpu"), "ms"},
        {"requests_per_cpu_s",
         static_cast<double>(items_.size()) / median(request_pass_cpu_s_),
         "1/s"},
        {"sim_time", deck.sim_optimized, "op"},
        {"sim_speedup", geomean(sim_ratio), "x"},
        {"wall_speedup", geomean(wall_ratio), "x"},
        {"ok_frac",
         static_cast<double>(attempted_ - failed_) /
             static_cast<double>(std::max<std::uint64_t>(attempted_, 1)),
         "ratio"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
        {"setup_s", median(setup_s_), "s"},
    };
    print_json(correct, attempted_, failed_, m);
    return;
  }

  // A layer's time: mean over items of the item's median per request.
  const auto layer = [&](const std::string& name) {
    return mean(item_medians(items_, name));
  };
  const double items = static_cast<double>(items_.size());
  const double request_ms = sum(item_medians(items_, "traced.e2e"));
  const auto share = [&](std::initializer_list<const char*> names) {
    double total = 0;
    for (const char* n : names) total += sum(item_medians(items_, n));
    return total / request_ms;
  };
  double packed_boundary = 0, packed_run = 0;
  std::size_t packed_items = 0;
  for (const auto& it : items_) {
    if (!it.packed || it.of("exec.run").empty()) continue;
    ++packed_items;
    packed_boundary += median(it.of("exec.boundary"));
    packed_run += median(it.of("exec.run"));
  }
  const double boundary_frac = packed_run > 0 ? packed_boundary / packed_run : 0;
  const double certify_ms = sum(item_medians(items_, "verify.certify"));
  const double predicted_ms = launch_prediction_ms();
  const double launch_frac =
      launch_us_.at(static_cast<std::size_t>(w_.run_p - 1)) / 1e3 * items /
      request_ms;
  const double per_pass = 1.0 / std::max(traced_passes_, 1);
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };

  m = {
      // Wall latency and throughput of the plain passes: on a shared
      // machine their spread across runs is too wide for an end-to-end
      // bound.
      {"e2e_ms.p50", p50("e2e"), "ms"},
      {"e2e_ms.p90", p90_of(items_), "ms"},
      {"compile_ms.p50", p50("compile"), "ms"},
      {"run_ms.p50", p50("run"), "ms"},
      {"throughput_rps", items / median(request_pass_s_), "1/s"},
      {"ir.parse_us", layer("ir.parse") * 1e3, "us"},
      {"ir.shapes_us", layer("ir.shapes") * 1e3, "us"},
      {"ir.pack_ms", layer("ir.pack"), "ms"},
      {"ir.unpack_ms", layer("ir.unpack"), "ms"},
      {"exec.run_ms", layer("exec.run"), "ms"},
      {"exec.inner_ms", layer("exec.inner"), "ms"},
      {"exec.boundary_ms", layer("exec.boundary"), "ms"},
      {"exec.boundary_frac", boundary_frac, "ratio"},
      {"exec.packed_frac", static_cast<double>(packed_items) / items, "ratio"},
      {"rules.optimize_us", layer("rules.optimize") * 1e3, "us"},
      {"rules.search_ms", layer("rules.search"), "ms"},
      {"rules.nodes_expanded", count(deck.nodes_expanded), "count"},
      {"rules.nodes_generated", count(deck.nodes_generated), "count"},
      {"rules.pruned_by_bound", count(deck.pruned_by_bound), "count"},
      {"rules.memo_hit_rate",
       deck.memo_hits + deck.memo_entries == 0
           ? 0
           : count(deck.memo_hits) / count(deck.memo_hits + deck.memo_entries),
       "ratio"},
      {"rules.rewrites", count(deck.rewrites), "count"},
      {"verify.certify_ms", layer("verify.certify"), "ms"},
      {"verify.discharged_steps", count(deck.discharged_steps), "count"},
      {"verify.reused_steps", count(deck.reused_steps), "count"},
      {"verify.ms_per_step",
       deck.discharged_steps ? certify_ms / count(deck.discharged_steps) : 0,
       "ms"},
      {"verify.demoted", count(deck.demoted), "count"},
      {"verify.launch_frac", certify_ms > 0 ? predicted_ms / certify_ms : 0,
       "ratio"},
      {"model.price_us", layer("model.price") * 1e3, "us"},
      {"simnet.predict_ms", layer("simnet.predict"), "ms"},
      {"simnet.messages", count(deck.simnet_messages), "count"},
      {"simnet.words", deck.simnet_words, "count"},
  };
  for (std::size_t p = 0; p < launch_us_.size(); ++p)
    m.push_back({"mpsim.launch_us.p" + std::to_string(p + 1), launch_us_[p],
                 "us"});
  m.insert(m.end(), {
      {"mpsim.launch_frac", launch_frac, "ratio"},
      {"mpsim.messages", count(deck.mpsim_messages), "count"},
      {"mpsim.bytes", count(deck.mpsim_bytes), "bytes"},
      {"mpsim.recv_wait_ms", layer("mpsim.recv_wait"), "ms"},
      {"mpsim.barrier_wait_ms", layer("mpsim.barrier_wait"), "ms"},
      {"rt.events", count(rt_events_) * per_pass, "count"},
      {"rt.dropped", count(rt_dropped_) * per_pass, "count"},
      {"rt.overhead_frac", p50("run") / p50("rt_off.run") - 1, "ratio"},
      {"trace.spans", count(spans_) * per_pass, "count"},
      {"trace.overhead_frac", p50("traced.e2e") / p50("e2e") - 1, "ratio"},
      {"share.ir", share({"ir.parse", "ir.shapes"}), "ratio"},
      {"share.rules", share({"rules.search", "rules.optimize"}), "ratio"},
      {"share.verify", share({"verify.certify"}), "ratio"},
      {"share.model", share({"model.price"}), "ratio"},
      {"share.simnet", share({"simnet.predict"}), "ratio"},
      {"share.exec", share({"exec.run"}), "ratio"},
      {"share.residual", share({"residual"}), "ratio"},
  });

  // Diagnostic lines before the result: per-item rows, the dominant
  // layer, and the launch-bound prediction for certification.
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& it = items_[i];
    std::printf(
        "item %-16s plane=%-6s e2e_ms=%.4f compile_ms=%.4f run_ms=%.4f "
        "compile_cpu_ms=%.4f run_cpu_ms=%.4f exec.boundary_ms=%.4f n=%zu\n",
        w_.deck[i].name.c_str(), it.packed ? "packed" : "boxed",
        median(it.of("e2e")), median(it.of("compile")), median(it.of("run")),
        median(it.of("compile_cpu")), median(it.of("run_cpu")),
        median(it.of("exec.boundary")), it.of("e2e").size());
  }
  const Metric* dominant = nullptr;
  for (const auto& metric : m)
    if (metric.name.rfind("share.", 0) == 0 && metric.name != "share.residual" &&
        (!dominant || metric.value > dominant->value))
      dominant = &metric;
  std::printf("layers dominant=%s share=%.4f mpsim.launch_frac=%.4f "
              "exec.boundary_frac=%.4f residual=%.4f\n",
              dominant->name.substr(6).c_str(), dominant->value, launch_frac,
              boundary_frac, share({"residual"}));
  if (deck.discharged_steps > 0)
    std::printf("prediction verify.certify_ms measured=%.3f predicted=%.3f "
                "(discharged_steps=%llu x 4 x sum_p=1..9 exec run at block "
                "2 = %.4f ms)\n",
                certify_ms, predicted_ms,
                static_cast<unsigned long long>(deck.discharged_steps),
                sum(block2_run_ms_));
  std::fflush(stdout);
  print_json(correct, attempted_, failed_, m);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: colop_perfbench --workload search_certify|launch_bound|bulk_run "
      "--seed N --seconds S --trace 0|1\n";
  std::string workload, trace = "0";
  std::uint64_t seed = 1;
  double seconds = 10;
  try {
    if (argc % 2 != 1) throw std::invalid_argument("flag without a value");
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = value;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (trace != "0" && trace != "1") throw std::invalid_argument("--trace");
  } catch (const std::exception& e) {
    std::cerr << "colop_perfbench: " << e.what() << "\n" << kUsage;
    return 2;
  }
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  auto w = perfbench::make_workload(workload, static_cast<int>(nproc / 2));
  if (!w) {
    std::cerr << "colop_perfbench: unknown workload '" << workload << "'\n"
              << kUsage;
    return 2;
  }
  perfbench::Bench bench(std::move(*w), seed, trace == "1");
  bench.run(seconds);
  bench.print_result();
  return 0;
}
