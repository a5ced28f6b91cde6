// colopt — the command-line optimizer driver.
//
// Parse a program in the textual syntax (or take a built-in --example),
// optimize it for a given machine with the paper's rules and cost
// calculus, and report the derivation, predicted times (analytic +
// simnet) and communication volumes.  Reports, run forensics and the
// stats server ride on the same run.
//
// Two declarations drive this file.  kReports declares each of the eight
// reports once: its flags, its files and its --record artifact key.  The
// flag table in main() is the single source of the parser, the --help
// text and the implied-mode rules; `colopt --help` prints it.
//
// Example:
//   $ colopt --p 64 --m 32 --ts 400 "bcast ; scan(+) ; scan(+)"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "colop/apps/polyeval.h"
#include "colop/exec/sim_executor.h"
#include "colop/exec/thread_executor.h"
#include "colop/exec/timeline.h"
#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/model/calib.h"
#include "colop/obs/calibrate.h"
#include "colop/obs/chrome_trace.h"
#include "colop/obs/drift.h"
#include "colop/obs/metrics.h"
#include "colop/obs/profile.h"
#include "colop/obs/run_diff.h"
#include "colop/obs/run_store.h"
#include "colop/obs/serve.h"
#include "colop/obs/trace_context.h"
#include "colop/rt/flight_recorder.h"
#include "colop/rt/live.h"
#include "colop/rt/report.h"
#include "colop/rules/optimizer.h"
#include "colop/rules/search.h"
#include "colop/support/error.h"
#include "colop/support/rng.h"
#include "colop/support/table.h"
#include "colop/verify/certify.h"
#include "colop/verify/verify.h"

namespace {

using namespace colop;

using Writer = std::function<void(std::ostream&)>;

/// Write one output file and say so on stdout: "<label> written to F".
void emit(const std::string& path, const std::string& label,
          const Writer& write, const char* end = "\n") {
  if (path.empty()) return;
  std::ofstream f(path);
  if (!f) throw Error("cannot open " + path + " for writing");
  write(f);
  std::cout << label << " written to " << path << end;
}

// --- the eight reports -----------------------------------------------------

enum Report {
  kExplain, kSearch, kVerify, kDrift, kProfile, kCalibrate, kRt, kDiff,
  kReportCount
};

struct FileDecl {
  const char* suffix;      // the flag is the report's stem + suffix
  const char* label;       // "<label> written to F"
  const char* help;
  const char* end = "\n";  // what follows the "written to" line
};

struct ReportDecl {
  const char* mode;      // shows the report; every file flag implies it
  const char* operands;  // the mode flag's operands, nullptr if none
  const char* stem;      // prefix of the file flags
  const char* artifact;  // --record bundle key of its JSON; nullptr: none
  const char* help;
  std::vector<FileDecl> files;  // files[0] is the JSON document
};

const ReportDecl kReports[kReportCount] = {
    {"--explain", nullptr, "--explain", "explain",
     "log every rule attempt (rule x position) with its condition/policy "
     "verdict and predicted cost delta (greedy strategy only)",
     {{"-json", "explain log", "write the explain log as JSON to file F"}}},
    {"--search-report", nullptr, "--search-report", "search",
     "print the ranked top-K schedule report with rule paths, cost gaps and "
     "search statistics",
     {{"-json", "search report", "write the search report as JSON to file F",
       "\n\n"}}},
    {"--verify", nullptr, "--verify", "verify",
     "statically verify the run: operator property declarations (checked, "
     "not trusted), distribution-state contracts of the source and "
     "optimized schedules, and one soundness certificate per rule "
     "application; exit 3 if anything is unsound",
     {{"-json", "verification report",
       "write the verification report as JSON to file F"}}},
    {"--drift", nullptr, "--drift", "drift",
     "report model-vs-simnet drift (time, messages, words) for p in "
     "{2,4,...,64}",
     {{"-json", "drift report", "write the drift report as JSON to file F"}}},
    {"--profile", nullptr, "--profile", "profile",
     "critical-path profile of the optimized program: per-rank "
     "busy/comm/idle, the critical path, and per-stage attribution with "
     "rule provenance",
     {{"-json", "profile", "write the profile as JSON to file F"},
      {"-trace", "profile trace",
       "write the profile as a Chrome trace (critical path drawn as flow "
       "arrows) to file F"}}},
    {"--calibrate", nullptr, "--calibrate", nullptr,
     "fit ts/tw/op-cost from measured collective timings and report the "
     "fit plus drift vs the configured machine",
     {{"-json", "calibration", "write the calibration fit as JSON to file F",
       "\n\n"}}},
    {"--rt-report", nullptr, "--rt", "rt",
     "run the optimized program on the thread executor and report runtime "
     "telemetry: per-rank busy/wait/queue depth and per-stage "
     "wall-clock-vs-predicted drift",
     {{"-json", "runtime report", "write the runtime report as JSON to file F"},
      {"-trace", "runtime trace",
       "write the flight-recorder capture as a Chrome trace (send->recv flow "
       "arrows) to file F"},
      {"-html", "runtime HTML report",
       "write a self-contained HTML runtime report (timeline + tables, no "
       "external assets) to file F"}}},
    {"--diff", "A B", "--diff", nullptr,
     "cross-run forensics: diff two archived runs (each a trace id, unique "
     "id prefix, latest, latest~N, or a manifest.json path) and exit; no "
     "program operand needed.  Reports machine drift, the stage-level "
     "schedule diff with rule provenance, ranked suspect stages, and totals",
     // The diff's first file line follows a blank line.
     {{"-json", "\nrun diff", "write the run diff as stable JSON to file F"},
      {"-html", "run diff HTML report",
       "write the run diff as a self-contained HTML report (side-by-side "
       "timelines + tables) to file F"}}},
};

/// One computed report: the body its mode prints and one writer per
/// declared file.
struct Rendered {
  std::string text;
  std::vector<Writer> files;
  bool archive = true;  // false keeps it out of a --record bundle
};

struct Reports {
  std::array<bool, kReportCount> on{};
  std::array<std::array<std::string, 3>, kReportCount> paths{};
  std::array<std::vector<std::string>, kReportCount> args{};
  std::array<std::optional<Rendered>, kReportCount> done{};

  /// Print a computed report (its body only in its mode), write its
  /// files, and keep it for --record.
  void show(Report r, Rendered out) {
    if (on[r]) std::cout << out.text;
    const auto& files = kReports[r].files;
    for (std::size_t i = 0; i < files.size(); ++i)
      emit(paths[r][i], files[i].label, out.files[i], files[i].end);
    done[r] = std::move(out);
  }
};

// --- flags -----------------------------------------------------------------

/// A usage error: printed with the usage text, exit 2.
struct UsageError {
  std::string message;
};

/// Thrown by a flag's action on an operand it rejects; the parser names
/// the flag and the operand.
struct BadValue {
  const char* expected;
};

enum class Operand { none, required, optional, pair };

struct Flag {
  std::string name;
  Operand operand;
  std::string metavar;
  std::string help;
  std::function<void(const std::string&)> act;  // the operand, "" if none
};

// Strict numeric operands: the whole operand must be a number in range.  A
// typo like `--p 6x4`, `--ts fast` or `--m nan` fails loudly here, before
// it can reach the optimizer, simnet or the rank threads.
int parse_int(const std::string& text, long lo, long hi,
              const char* expected) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || v < lo ||
      v > hi)
    throw BadValue{expected};
  return static_cast<int>(v);
}

double parse_number(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v) || v < 0)
    throw BadValue{"a finite non-negative number"};
  return v;
}

// Actions for the common operand shapes.
auto set_flag(bool& target) {
  return [&target](const std::string&) { target = true; };
}
auto set_int(int& target, long lo, const char* expected) {
  return [&target, lo, expected](const std::string& v) {
    target = parse_int(v, lo, INT_MAX, expected);
  };
}
auto set_number(double& target) {
  return [&target](const std::string& v) { target = parse_number(v); };
}
auto set_text(std::string& target) {
  return [&target](const std::string& v) { target = v; };
}

/// `head` then `text` word-wrapped at 78 columns under a hanging indent.
void wrap(std::ostream& os, const std::string& head, const std::string& text) {
  constexpr std::size_t kIndent = 19, kWidth = 78;
  std::string line = head.size() < kIndent
                         ? head + std::string(kIndent - head.size(), ' ')
                         : head + " ";
  bool fresh = true;
  std::istringstream words(text);
  for (std::string w; words >> w;) {
    if (!fresh && line.size() + 1 + w.size() > kWidth) {
      os << line << "\n";
      line.assign(kIndent, ' ');
      fresh = true;
    }
    line += (fresh ? "" : " ") + w;
    fresh = false;
  }
  os << line << "\n";
}

void print_usage(std::ostream& os, const std::vector<Flag>& flags) {
  os << "usage: colopt [options] \"<program>\"\n"
        "       colopt --diff A B [--diff-json F] [--diff-html F]\n"
        "       colopt --runs [--store DIR]\n";
  for (const Flag& f : flags)
    wrap(os,
         "  " + f.name + (f.operand == Operand::optional ? "" : " ") +
             f.metavar,
         f.help);
  wrap(os, "program syntax:",
       "map(pair|triple|quadruple|pi1|id) | scan(OP) | reduce(OP[,root=K]) | "
       "allreduce(OP) | bcast[(root=K)] | istart_reduce(OP[,root=K][,h=N]) | "
       "istart_allreduce(OP[,h=N]) | istart_bcast[(root=K[,h=N])] | "
       "wait[(h=N)]; stages separated by ';'; OP: + * max min band bor gcd "
       "+modN *modN f+ f* mat2 first");
  wrap(os, "exit status:",
       "0 ok; 1 runtime, parse, shape or IO error; 2 usage error (bad flag, "
       "value or flag combination); 3 verification or contract failure (an "
       "unsound rewrite under --verify, or a V2xx schedule error, with or "
       "without --verify)");
}

using Example = ir::Program (*)(const std::vector<double>&);
const std::map<std::string, Example> kExamples = {
    {"polyeval1", apps::polyeval_1},
    {"polyeval2", apps::polyeval_2},
    {"polyeval3", apps::polyeval_3},
    {"polyeval_sr2", apps::polyeval_sr2}};

std::string kind_name(ir::Stage::Kind k) {
  switch (k) {
    case ir::Stage::Kind::Map: return "map";
    case ir::Stage::Kind::MapIndexed: return "map#";
    case ir::Stage::Kind::Scan: return "scan";
    case ir::Stage::Kind::Reduce: return "reduce";
    case ir::Stage::Kind::AllReduce: return "allreduce";
    case ir::Stage::Kind::Bcast: return "bcast";
    case ir::Stage::Kind::ScanBalanced: return "scan_balanced";
    case ir::Stage::Kind::ReduceBalanced: return "reduce_balanced";
    case ir::Stage::Kind::AllReduceBalanced: return "allreduce_balanced";
    case ir::Stage::Kind::Iter: return "iter";
    case ir::Stage::Kind::IStartReduce: return "istart_reduce";
    case ir::Stage::Kind::IStartAllReduce: return "istart_allreduce";
    case ir::Stage::Kind::IStartBcast: return "istart_bcast";
    case ir::Stage::Kind::Wait: return "wait";
  }
  return "?";
}

std::vector<obs::StageRecord> stage_records(
    const ir::Program& prog, const model::Machine& machine,
    const std::vector<std::string>& provenance) {
  std::vector<obs::StageRecord> out;
  for (const auto& stage : prog.stages()) {
    obs::StageRecord rec;
    rec.index = static_cast<int>(out.size());
    rec.label = stage->show();
    rec.kind = kind_name(stage->kind());
    rec.local = stage->is_local();
    if (out.size() < provenance.size()) rec.rule = provenance[out.size()];
    rec.model_time = model::stage_cost(*stage).eval(machine);
    out.push_back(std::move(rec));
  }
  return out;
}

obs::SearchRecord search_record(const rules::SearchResult& res) {
  obs::SearchRecord s;
  s.strategy = rules::strategy_name(res.strategy);
  s.beam_width = res.beam_width;
  s.nodes_expanded = res.stats.nodes_expanded;
  s.nodes_generated = res.stats.nodes_generated;
  s.pruned_bound = res.stats.pruned_by_bound;
  s.pruned_beam = res.stats.pruned_by_beam;
  s.pruned_budget = res.stats.pruned_by_budget;
  s.memo_hits = res.stats.memo_hits;
  s.memo_entries = res.stats.memo_entries;
  s.frontier_peak = res.stats.frontier_peak;
  s.depth = res.stats.depth_reached;
  s.greedy_cost = res.greedy_cost;
  s.winner_cost = res.best.cost_final;
  s.winner_certified = res.winner_index < res.ranked.size() &&
                       res.ranked[res.winner_index].certified == 1;
  for (const auto& r : res.ranked)
    s.ranked.push_back({r.cost, r.path_text(), r.certified});
  return s;
}

std::string strategy_label(const rules::SearchResult* res) {
  if (res == nullptr) return "greedy";
  switch (res->strategy) {
    case rules::SearchStrategy::beam:
      return "beam search, width " + (res->beam_width == 0
                                          ? std::string("unbounded")
                                          : std::to_string(res->beam_width));
    case rules::SearchStrategy::branch_bound:
      return "branch-and-bound search";
    default:
      return "exhaustive search";
  }
}

}  // namespace

int main(int argc, char** argv) {
  model::Machine machine{.p = 64, .m = 1024, .ts = 400, .tw = 2};
  rules::OptimizerOptions options;
  bool exhaustive = false;
  std::optional<rules::SearchStrategy> strategy;
  int beam_width = 0;  // 0: not given (8 under --opt=beam)
  bool overlap = false;
  int overlap_segments = 4;  // pipeline depth of each overlap window
  bool lint = false, use_calibrated = false, timeline = false;
  bool live = false, record = false, list_runs = false;
  int serve_port = -1;  // -1 = no --serve; 0 = ephemeral
  int repeat = 1, warmup = 0;
  std::string calibrate_from = "simnet";
  std::string example, trace_file, metrics_file, record_dir, store_dir;
  std::string program_text;
  Reports rep;

  using enum Operand;
  constexpr const char* kPositive = "a positive integer";
  std::vector<Flag> flags = {
      {"--p", required, "N", "processors (default 64)",
       set_int(machine.p, 1, kPositive)},
      {"--m", required, "N", "block size in elements (default 1024)",
       set_number(machine.m)},
      {"--ts", required, "X", "message start-up time in op units (default 400)",
       set_number(machine.ts)},
      {"--tw", required, "X", "per-word transfer time in op units (default 2)",
       set_number(machine.tw)},
      {"--opt", required, "S",
       "schedule-search strategy: greedy (one-step greedy rewriting, "
       "default), beam (cost-guided beam search), bnb (branch-and-bound "
       "with an admissible lower bound), or exhaustive (breadth-first over "
       "all rule sequences).  Search strategies explore rule-order "
       "permutations the greedy optimizer never sees, seed their incumbent "
       "with the greedy result (never worse), and re-discharge the winning "
       "sequence's rewrite certificates before returning it",
       [&](const std::string& v) {
         strategy = rules::parse_strategy(v);
         if (!strategy) throw BadValue{"greedy, beam, bnb or exhaustive"};
       }},
      {"--beam-width", required, "N",
       "beam frontier width (default 8; --opt=beam only)",
       set_int(beam_width, 1, kPositive)},
      {"--exhaustive", none, "", "alias for --opt=exhaustive",
       set_flag(exhaustive)},
      {"--strict", none, "",
       "require full equivalence (reject root-only rewrites unless masked "
       "by a later bcast)",
       [&](const std::string&) {
         options.policy = rules::EquivalencePolicy::strict;
       }},
      {"--max-mem", required, "N",
       "memory budget: reject rewrites whose peak element width exceeds N "
       "words, N >= 1 (Section 4.2's caveat)",
       set_int(options.max_elem_words, 1, kPositive)},
      {"--overlap", optional, "[=K]",
       "enable the split-phase overlap rules (Overlap-Split, Wait-Sink): "
       "collectives followed by elementwise maps are rewritten to istart_C "
       "; map... ; wait windows the executor pipelines in K segments "
       "(default 4, K >= 2).  Works with every --opt strategy and with "
       "--verify, whose V22x split-phase contracts gate the result",
       [&](const std::string& v) {
         overlap = true;
         if (!v.empty())
           overlap_segments =
               parse_int(v, 2, INT_MAX,
                         "a pipeline depth >= 2 (K segments per window)");
       }},
      {"--example", required, "NAME",
       "use a built-in program instead of the text syntax: "
       "polyeval1|polyeval2|polyeval3|polyeval_sr2 (Section 5, "
       "coefficients 1..p)",
       [&](const std::string& v) {
         if (!kExamples.count(v))
           throw BadValue{"polyeval1, polyeval2, polyeval3 or polyeval_sr2"};
         example = v;
       }},
      {"--machine", required, "S",
       "optimize against the 'configured' machine (default) or the "
       "'calibrated' one (measure + fit, then use the fitted ts/tw)",
       [&](const std::string& v) {
         if (v != "configured" && v != "calibrated")
           throw BadValue{"configured or calibrated"};
         use_calibrated = v == "calibrated";
       }},
      {"--calibrate-from", required, "S",
       "calibration timing source: simnet (deterministic, default) or mpsim "
       "(wall-clock threads); implies --calibrate",
       [&](const std::string& v) {
         if (v != "simnet" && v != "mpsim") throw BadValue{"simnet or mpsim"};
         calibrate_from = v;
         rep.on[kCalibrate] = true;
       }},
      {"--lint", none, "",
       "also report lint-severity findings (missed fusions, packed-plane "
       "ineligibility); implies --verify",
       [&](const std::string&) { lint = rep.on[kVerify] = true; }},
      {"--timeline", none, "", "render before/after per-processor timelines",
       set_flag(timeline)},
      {"--trace", required, "F",
       "write a Chrome trace (chrome://tracing, Perfetto) of the optimized "
       "program's simulated execution to file F",
       set_text(trace_file)},
      {"--metrics", required, "F",
       "write run metrics to file F through the telemetry registry (.prom "
       "for Prometheus text, JSON otherwise)",
       set_text(metrics_file)},
      {"--repeat", required, "N",
       "run the threaded execution N times and report min/median/stddev "
       "wall time (default 1)",
       set_int(repeat, 1, kPositive)},
      {"--warmup", required, "K", "discard the first K threaded runs (default 0)",
       set_int(warmup, 0, "a non-negative integer")},
      {"--serve", optional, "[=PORT]",
       "run the program on the thread executor, then serve the telemetry "
       "registry over HTTP on 127.0.0.1:PORT (default: a kernel-assigned "
       "ephemeral port, printed on stdout): /metrics /metrics.json /runs "
       "/runs/<trace_id> /live /live.json /healthz",
       [&](const std::string& v) {
         serve_port =
             v.empty() ? 0 : parse_int(v, 0, 65535, "a port in 0..65535");
       }},
      {"--live", none, "",
       "with --serve: start the server *before* execution and stream "
       "in-flight telemetry — /metrics moves mid-run, /live streams "
       "snapshots as Server-Sent Events (watch with tools/colop_top), "
       "/healthz reports idle|running|stalled; pair with --repeat N to make "
       "the run long enough to watch",
       set_flag(live)},
      {"--record", optional, "[=DIR]",
       "archive this run as a forensics bundle — manifest (identity, "
       "machine, schedule IR, applied rules, cost summary) plus every JSON "
       "artifact the run emits — under DIR/<trace_id>/ (default "
       "$COLOP_RUN_DIR, else .colop/runs); honors $COLOP_RUN_RETENTION, "
       "e.g. \"count=32,age=604800\"",
       [&](const std::string& v) {
         record = true;
         if (!v.empty()) record_dir = v;
       }},
      {"--store", required, "DIR",
       "run-store root for --runs, --diff and --serve lookups (default: the "
       "--record DIR, else $COLOP_RUN_DIR, else .colop/runs)",
       set_text(store_dir)},
      {"--runs", none, "", "list the archived runs, most recent first, and exit",
       set_flag(list_runs)},
      {"--rules", none, "", "list the rule catalog and exit",
       [](const std::string&) {
         for (const auto& r : rules::all_rules())
           std::cout << r->name() << ":\n    " << r->description() << "\n";
         for (const auto& r : rules::overlap_rules())
           std::cout << r->name() << " (--overlap only):\n    "
                     << r->description() << "\n";
         std::exit(0);
       }},
  };
  // Each report contributes its mode flag and one flag per declared file;
  // a file flag implies the mode.
  for (int r = 0; r < kReportCount; ++r) {
    const ReportDecl& d = kReports[r];
    flags.push_back({d.mode, d.operands ? pair : none,
                     d.operands ? d.operands : "", d.help,
                     [&rep, r](const std::string& v) {
                       rep.on[r] = true;
                       auto& args = rep.args[r];
                       if (v.empty()) return;
                       if (args.size() == 2) args.clear();  // last one wins
                       args.push_back(v);
                     }});
    for (std::size_t i = 0; i < d.files.size(); ++i)
      flags.push_back({std::string(d.stem) + d.files[i].suffix,
                       required, "F", d.files[i].help,
                       [&rep, r, i](const std::string& v) {
                         rep.on[r] = true;
                         rep.paths[r][i] = v;
                       }});
  }
  flags.push_back({"--help", none, "", "print this help and exit",
                   [&](const std::string&) {
                     print_usage(std::cout, flags);
                     std::exit(0);
                   }});

  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "-h") arg = "--help";
      if (arg.empty() || arg[0] != '-') {
        program_text = arg;
        continue;
      }
      const auto eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const auto flag = std::find_if(flags.begin(), flags.end(),
                                     [&](const Flag& f) { return f.name == name; });
      if (flag == flags.end()) throw UsageError{"unknown option: " + arg};
      // One operand: inline (`--f=V`, the first operand only) or the next
      // argument.
      const auto operand = [&](bool inline_ok) {
        std::string v;
        if (inline_ok && eq != std::string::npos)
          v = arg.substr(eq + 1);
        else if (i + 1 < argc)
          v = argv[++i];
        else
          throw UsageError{"missing value for " + name};
        if (v.empty()) throw BadValue{"a value"};
        return v;
      };
      std::string v;
      try {
        switch (flag->operand) {
          case none:
            if (eq != std::string::npos)
              throw UsageError{name + " takes no value"};
            flag->act(v);
            break;
          case optional:
            if (eq != std::string::npos) v = operand(true);
            flag->act(v);
            break;
          case required:
            flag->act(v = operand(true));
            break;
          case pair:
            flag->act(v = operand(true));
            flag->act(v = operand(false));
            break;
        }
      } catch (const BadValue& b) {
        throw UsageError{"bad value for " + name + ": '" + v + "' (expected " +
                         b.expected + ")"};
      }
    }
    // Cross-flag checks: a combination that cannot mean what the user
    // intended must not be silently reinterpreted.
    if (exhaustive) {
      if (strategy && *strategy != rules::SearchStrategy::exhaustive)
        throw UsageError{"--exhaustive conflicts with --opt=" +
                         std::string(rules::strategy_name(*strategy))};
      strategy = rules::SearchStrategy::exhaustive;
    }
    if (beam_width != 0 && strategy != rules::SearchStrategy::beam)
      throw UsageError{"--beam-width is only meaningful with --opt=beam"};
    if (rep.on[kSearch] &&
        (!strategy || *strategy == rules::SearchStrategy::greedy))
      throw UsageError{
          "--search-report requires a search strategy (--opt=beam, "
          "--opt=bnb or --opt=exhaustive)"};
    if (live && serve_port < 0)
      throw UsageError{
          "--live requires --serve (it streams through the stats server)"};
    if (live && (!rt::kCompiledIn || !rt::config().enabled))
      throw UsageError{
          "--live reads the rank threads' flight recorders, which are off "
          "(COLOP_RT=0 or compiled out)"};
    for (int r = 0; r < kReportCount; ++r)
      if (kReports[r].operands && rep.on[r] && rep.args[r].empty())
        throw UsageError{std::string(kReports[r].stem) + "-* files need " +
                         kReports[r].mode + " " + kReports[r].operands};
    if (!list_runs && !rep.on[kDiff] && program_text.empty() &&
        example.empty())
      throw UsageError{"no program given"};
  } catch (const UsageError& e) {
    std::cerr << e.message << "\n\n";
    print_usage(std::cerr, flags);
    return 2;
  }
  const bool searching = strategy && *strategy != rules::SearchStrategy::greedy;

  // --overlap works with every strategy (greedy just appends the overlap
  // rules to its catalog); the segment count rides to the thread executor
  // through the environment, read once before rank threads spawn.
  if (overlap)
    ::setenv("COLOP_OVERLAP_SEGMENTS", std::to_string(overlap_segments).c_str(),
             1);

  // Store root: --record=DIR wins (what we write is what we read), then
  // --store, then the environment/default.
  const std::string store_root = !record_dir.empty()  ? record_dir
                                 : !store_dir.empty() ? store_dir
                                                      : obs::RunStore::default_root();

  // Destruction order matters for --serve: the server (workers may read
  // the sampler) goes down first, then the sampler (its thread writes the
  // hub), then the hub.
  obs::Registry hub;
  std::optional<rt::LiveSampler> live_sampler;
  std::optional<obs::StatsServer> server;

  try {
    // Archive modes: no program run, no fresh trace id.
    if (list_runs) {
      const obs::RunStore store(store_root);
      const auto ids = store.list();
      if (ids.empty())
        std::cout << "no archived runs in " << store.root()
                  << " (record with colopt --record)\n";
      for (const auto& id : ids) {
        const obs::RunBundle b = store.load(id);
        std::cout << id << "  " << b.timestamp << "  p=" << b.machine.p
                  << " m=" << b.machine.m << "  " << b.program_after << "\n";
      }
      return 0;
    }
    if (rep.on[kDiff]) {
      const obs::RunStore store(store_root);
      const obs::RunDiff d =
          obs::diff_runs(obs::load_run_or_file(store, rep.args[kDiff][0]),
                         obs::load_run_or_file(store, rep.args[kDiff][1]));
      rep.show(kDiff, {d.render_text(),
                       {[&](std::ostream& os) { d.write_json(os); },
                        [&](std::ostream& os) { d.write_html(os); }}});
      return 0;
    }

    ir::Program program;
    if (!example.empty()) {
      std::vector<double> coeffs(static_cast<std::size_t>(machine.p));
      for (std::size_t i = 0; i < coeffs.size(); ++i)
        coeffs[i] = static_cast<double>(i + 1);
      program = kExamples.at(example)(coeffs);
    } else {
      program = ir::parse_program(program_text);
    }
    if (auto err = ir::check_shapes(program)) {
      std::cerr << "shape error: " << *err << "\n";
      return 1;
    }

    // One TraceId per invocation: every artifact this run writes (Chrome
    // traces, drift/profile/rt/verify JSON, metrics, /runs) carries it.
    obs::set_trace_id(obs::mint_trace_id());
    std::cout << "program : " << program.show() << "\n";
    std::cout << "machine : p=" << machine.p << " m=" << machine.m
              << " ts=" << machine.ts << " tw=" << machine.tw << "\n";
    std::cout << "trace   : " << obs::trace_id() << "\n\n";

    std::optional<model::CalibrationResult> fit;
    if (rep.on[kCalibrate] || use_calibrated) {
      fit = model::fit_machine(calibrate_from == "mpsim"
                                   ? obs::measure_mpsim_timings()
                                   : obs::measure_simnet_timings(machine));
      fit->source = calibrate_from;
      rep.show(kCalibrate,
               {fit->render_text() +
                    obs::machine_drift(machine, *fit).render_text() + "\n",
                {[&](std::ostream& os) { fit->write_json(os); }}});
      if (use_calibrated) {
        machine = fit->machine(machine.p, machine.m);
        std::cout << "machine : (calibrated from " << calibrate_from
                  << ") ts=" << machine.ts << " tw=" << machine.tw << "\n\n";
      }
    }

    // The verification report, shown by the pre-check below or by --verify.
    std::optional<verify::VerifyResult> vres;
    const auto show_verify = [&] {
      rep.show(kVerify, {vres->render_text(lint),
                         {[&](std::ostream& os) {
                           vres->write_json(os, lint);
                           os << "\n";
                         }}});
      return vres->exit_code();
    };

    // A schedule with a contract error (V2xx: a root out of range, a
    // collective over blocks undefined on p-1 ranks, ...) stops here with
    // exit 3, --verify or not: it never reaches the optimizer, simnet or
    // the rank threads.
    {
      verify::ScheduleOptions sched;
      sched.p = machine.p;
      sched.lints = false;
      verify::VerifyResult pre;
      pre.report = verify::analyze_schedule(program, sched);
      if (!pre.ok()) {
        vres = std::move(pre);
        rep.on[kVerify] = true;
        return show_verify();
      }
    }

    // The telemetry hub wants the optimizer's attempt log even when the
    // user didn't ask for --explain: rule attempted/rejected counters come
    // from it.  A recorded bundle archives the hub snapshot, the explain
    // log and the profile, so --record implies all three.
    const bool hub_wanted = serve_port >= 0 || !metrics_file.empty() || record;
    rules::ExplainLog explain_log;
    if (rep.on[kExplain] || hub_wanted) options.explain = &explain_log;
    auto rule_set = rules::all_rules();
    if (overlap)
      for (auto& r : rules::overlap_rules()) rule_set.push_back(std::move(r));
    std::optional<rules::SearchResult> search_res;
    bool winner_fell_back = false, winner_demoted = false;
    std::vector<std::string> winner_not_evaluable;
    rules::OptimizeResult result;
    if (searching) {
      rules::SearchOptions sopts;
      sopts.strategy = *strategy;
      sopts.beam_width = *strategy != rules::SearchStrategy::beam ? 0
                         : beam_width != 0                        ? beam_width
                                                                  : 8;
      sopts.base = options;
      const rules::SearchOptimizer searcher(machine, rule_set, sopts);
      // The soundness gate: re-discharge every ranked schedule's rewrite
      // certificates (shared steps once) and install the cheapest CERTIFIED
      // schedule as the winner before anything downstream consumes it.
      auto cert = verify::certify_search(program, searcher.search(program));
      winner_fell_back = cert.fell_back_to_source;
      winner_demoted = cert.demoted;
      if (const auto* wc = cert.winner_certificates())
        winner_not_evaluable = wc->not_evaluable();
      search_res = std::move(cert.search);
      result = search_res->best;
    } else {
      result = rules::Optimizer(machine, rule_set, options).optimize(program);
    }

    if (rep.on[kExplain] || record)
      rep.show(kExplain,
               {searching ? "(--explain records the greedy strategy only)\n"
                          : "rule attempts (every rule x position, per step):\n" +
                                explain_log.render_text(true) + "\n",
                {[&](std::ostream& os) { explain_log.write_json(os); }},
                !searching});

    if (result.log.empty()) {
      std::cout << "no profitable rewrite on this machine.\n";
    } else {
      std::cout << "derivation ("
                << strategy_label(search_res ? &*search_res : nullptr)
                << "):\n";
      for (const auto& step : result.log) {
        std::cout << "  " << step.rule << " @" << step.position;
        if (!step.note.empty()) std::cout << " {" << step.note << "}";
        std::cout << "\n    = " << step.program_after << "\n";
      }
    }
    if (searching) {
      std::cout << "schedule : cost " << result.cost_final << " (greedy "
                << search_res->greedy_cost << "), certificates ";
      if (winner_fell_back)
        std::cout << "rejected every searched schedule — kept the source "
                     "program";
      else if (winner_demoted)
        std::cout << "demoted cheaper uncertified schedule(s); winner "
                     "discharged";
      else
        std::cout << "discharged";
      // A discharged certificate holds only as far as it was evaluated.
      if (!winner_fell_back && !winner_not_evaluable.empty()) {
        std::cout << " except NOT EVALUABLE:";
        for (std::size_t i = 0; i < winner_not_evaluable.size(); ++i)
          std::cout << (i > 0 ? "," : "") << " " << winner_not_evaluable[i];
      }
      std::cout << "\n";
    }
    std::cout << "\n";

    if (search_res)
      rep.show(kSearch,
               {search_res->render_report() + "\n",
                {[&](std::ostream& os) { search_res->write_json(os); }}});

    if (rep.on[kVerify]) {
      verify::VerifyOptions vopts;
      vopts.p = machine.p;
      vopts.lints = lint;
      vres = verify::verify_program(program, &result, vopts);
      const int code = show_verify();
      std::cout << "\n";
      // An unsound schedule stops at the report with exit 3: it is neither
      // simulated nor run (an out-of-range root names a rank neither side
      // has).
      if (code != 0) return code;
    }

    Table t("prediction", {"version", "analytic cost", "simnet time",
                           "messages", "words"});
    const auto before = exec::run_on_simnet(program, machine);
    const auto after = exec::run_on_simnet(result.program, machine);
    t.add("original", model::program_time(program, machine), before.time,
          before.messages, before.words);
    t.add("optimized", model::program_time(result.program, machine), after.time,
          after.messages, after.words);
    t.print(std::cout);
    if (before.time > 0)
      std::cout << "\npredicted speedup: " << before.time / after.time << "x\n";

    if (timeline) {
      // Timelines get unreadable beyond a screenful of processors.
      model::Machine tl = machine;
      tl.p = std::min(tl.p, 16);
      const auto tb = exec::trace_on_simnet(program, tl);
      const auto ta = exec::trace_on_simnet(result.program, tl);
      // The after chart shares the before chart's axis, so its own
      // makespan goes in the heading.
      std::cout << "\nbefore (p=" << tl.p << "):\n"
                << exec::render_timeline(tb, 72) << "\nafter (t="
                << ta.makespan << "):\n"
                << exec::render_timeline(ta, 72, tb.makespan);
    }

    if (!trace_file.empty()) {
      // Stage spans plus the fine-grained machine ops beneath them, all in
      // simulated time.
      obs::MemorySink machine_events;
      const auto tr =
          exec::trace_on_simnet(result.program, machine, {}, &machine_events);
      auto events = exec::trace_events(tr);
      for (const auto& ev : machine_events.events()) events.push_back(ev);
      emit(trace_file,
           "\nChrome trace (" + std::to_string(events.size()) + " events)",
           [&](std::ostream& os) {
             obs::write_chrome_trace(events, os, "colopt");
           });
    }

    std::optional<obs::DriftReport> drift_orig, drift_opt;
    if (rep.on[kDrift]) {
      drift_orig = obs::drift_report(program, machine);
      drift_opt = obs::drift_report(result.program, machine);
      rep.show(kDrift, {"\n" + drift_orig->render_text() + "\n" +
                            drift_opt->render_text(),
                        {[&](std::ostream& os) {
                          os << "{\"original\":";
                          drift_orig->write_json(os);
                          os << ",\"optimized\":";
                          drift_opt->write_json(os);
                          os << "}\n";
                        }}});
    }

    const auto provenance = rules::stage_provenance(program.size(), result.log);
    std::optional<obs::Profile> prof;
    if (rep.on[kProfile] || record) {
      obs::ProfileOptions popts;
      popts.provenance = provenance;
      prof = obs::profile_program(result.program, machine, popts);
      rep.show(kProfile,
               {"\n" + prof->render_text(),
                {[&](std::ostream& os) { prof->write_json(os); },
                 [&](std::ostream& os) { prof->write_chrome_trace(os); }}});
    }

    // --serve: one run summary for /runs, whether the server starts before
    // execution (--live) or after it.
    const auto start_server = [&](const rt::RtReport* done) {
      obs::RunSummary run;
      run.trace_id = obs::trace_id();
      run.program = program.show();
      run.optimized = result.program.show();
      run.started_at = obs::utc_timestamp();
      run.state = "live";
      run.rewrites = static_cast<int>(result.log.size());
      run.model_cost_before = model::program_time(program, machine);
      run.model_cost_after = model::program_time(result.program, machine);
      server.emplace(hub);
      server->add_run(run);
      if (done != nullptr) server->finish_run(run.trace_id, done->wall_ms);
      server->set_run_store(store_root);
      if (live_sampler) server->set_live(&*live_sampler);
      std::string err;
      if (!server->start(serve_port, &err)) throw Error(err);
      server->install_signal_stop();
      std::cout << "serving on http://127.0.0.1:" << server->port()
                << (live_sampler ? " (live; GET /metrics /metrics.json /runs "
                                   "/live /live.json /healthz; Ctrl-C to "
                                   "stop)\n"
                                 : " (GET /metrics /metrics.json /runs "
                                   "/runs/<trace_id> /healthz; Ctrl-C to "
                                   "stop)\n")
                << std::flush;
    };

    std::optional<rt::RtReport> rt_rep;
    if (rep.on[kRt] || serve_port >= 0) {
      // Run the optimized program for real on the thread executor and merge
      // the flight-recorder capture with the cost calculus' predictions.
      // Input: p blocks of small integers — safe for every arithmetic op in
      // the catalog (products stay in {-1, 0, 1}).
      const auto block =
          static_cast<std::size_t>(std::clamp(machine.m, 1.0, 4096.0));
      Rng rng(0x7c01);
      ir::Dist input(static_cast<std::size_t>(machine.p));
      for (auto& b : input) {
        b.resize(block);
        for (auto& v : b) v = ir::Value(rng.uniform(-1, 1));
      }

      if (live) {
        // Live mode starts the sampler and the server *before* execution
        // so scrapes and /live streams observe the run in flight.
        rt::LiveRunInfo info;
        info.trace_id = obs::trace_id();
        info.program = result.program.show();
        for (const auto& stage : result.program.stages())
          info.stage_labels.push_back(stage->show());
        info.ranks = machine.p;
        info.repeats = warmup + repeat;
        live_sampler.emplace(hub);
        live_sampler->begin_run(std::move(info));
        live_sampler->start();
        start_server(nullptr);
      }

      std::vector<double> samples_ms;
      samples_ms.reserve(static_cast<std::size_t>(repeat));
      std::optional<exec::ThreadRunResult> run;
      for (int it = 0; it < warmup + repeat; ++it) {
        if (live_sampler) live_sampler->note_repeat(it);
        auto r = exec::run_on_threads_instrumented(result.program, input);
        if (it >= warmup) samples_ms.push_back(r.wall_seconds * 1e3);
        run = std::move(r);
      }
      if (live_sampler) live_sampler->end_run();

      rt::RtReportOptions ropts;
      ropts.model_stage_times.reserve(result.program.size());
      for (const auto& stage : result.program.stages())
        ropts.model_stage_times.push_back(
            model::stage_cost(*stage).eval(machine));
      ropts.wall_seconds = run->wall_seconds;
      ropts.used_packed = run->used_packed;
      ropts.timing = rt::RepeatStats::of(samples_ms, warmup);
      rt_rep = rt::build_report(run->rt, ropts);
      if (server) server->finish_run(obs::trace_id(), rt_rep->wall_ms);
      rep.show(kRt,
               {"\n" + rt_rep->render_text(),
                {[&](std::ostream& os) { rt_rep->write_json(os); },
                 [&](std::ostream& os) { rt_rep->write_chrome_trace(os); },
                 [&](std::ostream& os) { rt_rep->write_html(os); }}});
      if (!run->rt.enabled)
        std::cout << "(runtime telemetry disabled: COLOP_RT=0 or compiled "
                     "out; per-rank and per-stage sections are empty)\n";
    }

    // Every subsystem that ran publishes its snapshot into the hub by name.
    if (hub_wanted) {
      hub.gauge("colop_machine_p", "Configured processor count")
          .set(static_cast<double>(machine.p));
      hub.gauge("colop_machine_m", "Configured block size, elements")
          .set(machine.m);
      hub.gauge("colop_machine_ts", "Message start-up time, op units")
          .set(machine.ts);
      hub.gauge("colop_machine_tw", "Per-word transfer time, op units")
          .set(machine.tw);
      const char* versions[] = {"original", "optimized"};
      const exec::SimRunResult* sims[] = {&before, &after};
      for (int v = 0; v < 2; ++v) {
        const obs::LabelSet label{{"version", versions[v]}};
        hub.gauge("colop_sim_time_units",
                  "Simulated execution time, op units", label)
            .set(sims[v]->time);
        hub.gauge("colop_sim_messages",
                  "Simulated point-to-point message count", label)
            .set(static_cast<double>(sims[v]->messages));
        hub.gauge("colop_sim_words", "Simulated words transferred", label)
            .set(sims[v]->words);
      }
      if (after.time > 0)
        hub.gauge("colop_predicted_speedup",
                  "Simulated original/optimized time ratio")
            .set(before.time / after.time);
      rules::publish_metrics(result, options.explain, hub);
      if (search_res) rules::publish_search_metrics(*search_res, hub);
      if (vres) verify::publish_metrics(*vres, hub);
      if (rt_rep) rt::publish_registry(*rt_rep, hub);
    }

    const bool prom = metrics_file.size() >= 5 &&
                      metrics_file.compare(metrics_file.size() - 5, 5,
                                           ".prom") == 0;
    emit(metrics_file, "metrics", [&](std::ostream& os) {
      if (prom) {
        hub.write_prometheus(os);
      } else {
        hub.write_json(os);
        os << "\n";
      }
    });

    if (record) {
      obs::RunBundle bundle;
      bundle.trace_id = obs::trace_id();
      bundle.git_sha = obs::env_git_sha();
      bundle.timestamp = obs::utc_timestamp();
      bundle.timestamp_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      bundle.machine = {machine.p, machine.m, machine.ts, machine.tw};
      if (const char* dp = std::getenv("COLOP_DATA_PLANE"))
        bundle.data_plane = dp;
      for (int a = 1; a < argc; ++a) bundle.args.emplace_back(argv[a]);
      bundle.program_before = program.show();
      bundle.program_after = result.program.show();
      bundle.stages_before = stage_records(program, machine, {});
      bundle.stages_after = stage_records(result.program, machine, provenance);
      for (const auto& step : result.log)
        bundle.rules.push_back({step.rule, step.position, step.count,
                                step.replaced_by, step.note, step.cost_before,
                                step.cost_after, step.program_after});
      bundle.model_cost_before = model::program_time(program, machine);
      bundle.model_cost_after = model::program_time(result.program, machine);
      bundle.sim_before = {before.time, before.messages, before.words};
      bundle.sim_after = {after.time, after.messages, after.words};
      if (rt_rep) bundle.wall_ms = rt_rep->wall_ms;
      if (search_res) bundle.search = search_record(*search_res);

      // Artifacts: each archived report's JSON, plus the hub snapshot.
      for (int r = 0; r < kReportCount; ++r) {
        const auto& out = rep.done[r];
        if (!out || !out->archive || kReports[r].artifact == nullptr) continue;
        std::ostringstream ss;
        out->files[0](ss);
        bundle.artifacts[kReports[r].artifact] = ss.str();
      }
      std::ostringstream ss;
      hub.write_json(ss);
      bundle.artifacts["metrics"] = ss.str();

      const obs::RunStore store(store_root);
      std::cout << "run recorded to " << store.save(bundle) << "\n";
      std::string retention_warning;
      const auto policy = obs::RetentionPolicy::from_env(&retention_warning);
      if (!retention_warning.empty())
        std::cerr << "warning: " << retention_warning << "\n";
      if (!policy.unlimited())
        for (const auto& id : store.prune(policy))
          std::cout << "retention: evicted run " << id << "\n";
    }

    if (serve_port >= 0) {
      if (!server) start_server(&*rt_rep);
      server->wait();
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
