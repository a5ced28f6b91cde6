#pragma once
// Run archive: persistent, self-describing bundles of everything one
// colopt run produced, discoverable after the process is gone.
//
// The paper's whole argument is comparative — every Table-1 rule is a
// claim about the DELTA between two schedules — but explain/profile/drift
// artifacts die with the run that wrote them.  `colopt --record` closes
// that gap: each recorded run persists one bundle under
//
//   .colop/runs/<trace_id>/manifest.json     identity + schedule IR +
//                                            applied rules + cost summary
//   .colop/runs/<trace_id>/<artifact>.json   every JSON artifact the run
//                                            emitted (explain, profile,
//                                            drift, rt, verify, metrics)
//
// Bundles are loadable back into memory and addressable by TraceId (or a
// unique prefix), by recency (`latest`, `latest~N`), and by age (the
// retention policy, COLOP_RUN_RETENTION, evicts oldest first).  run_diff.h
// consumes two bundles and answers "why did run B regress vs run A?".
//
// Deliberately no dependency above colop_support: machine parameters are
// archived as a plain struct, stages as flat records — a bundle must stay
// readable even if the IR it described has long since changed shape.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace colop::obs {

/// Machine parameters as archived (mirrors model::Machine without the
/// layering dependency).
struct MachineParams {
  int p = 0;
  double m = 0;
  double ts = 0;
  double tw = 0;

  friend bool operator==(const MachineParams&, const MachineParams&) = default;
};

/// One stage of an archived schedule: enough to diff schedules across
/// runs without reconstructing operator objects.
struct StageRecord {
  int index = 0;
  std::string label;      ///< ir::Stage::show()
  std::string kind;       ///< "map", "scan", "reduce", ...
  bool local = false;     ///< no communication
  std::string rule;       ///< optimizer rule that produced it, "" = source
  double model_time = 0;  ///< cost calculus' stage time on the bundle's machine
};

/// One derivation step, as archived (mirrors rules::AppliedRule).
struct RuleRecord {
  std::string rule;
  std::size_t position = 0;
  std::size_t count = 0;        ///< stages the match consumed
  std::size_t replaced_by = 0;  ///< stages the rewrite produced
  std::string note;
  double cost_before = 0;
  double cost_after = 0;
  std::string program_after;
};

/// Simulated totals of one program version.
struct SimSummary {
  double time = 0;
  std::uint64_t messages = 0;
  double words = 0;
};

/// Search provenance: which strategy chose the archived schedule and what
/// the exploration looked like — enough for run_diff to explain why two
/// runs picked different schedules.  Optional in the manifest (absent for
/// plain greedy runs and bundles written before the search layer).
struct SearchRecord {
  std::string strategy;        ///< "greedy" | "beam" | "bnb" | "exhaustive"
  std::size_t beam_width = 0;  ///< as searched; 0 = unbounded
  std::size_t nodes_expanded = 0;
  std::size_t nodes_generated = 0;
  std::size_t pruned_bound = 0;
  std::size_t pruned_beam = 0;
  std::size_t pruned_budget = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_entries = 0;
  std::size_t frontier_peak = 0;
  std::size_t depth = 0;
  double greedy_cost = 0;
  double winner_cost = 0;
  bool winner_certified = false;

  /// One ranked schedule of the top-K report.
  struct Candidate {
    double cost = 0;
    std::string path;    ///< "SR-Reduction@2 ; BS-Comcast@0", "(source)"
    int certified = -1;  ///< -1 unknown, 0 failed, 1 discharged
  };
  std::vector<Candidate> ranked;
};

/// Everything one run archived.  write_manifest/parse_manifest round-trip
/// the whole struct except `artifacts`, whose entries live in their own
/// files (the manifest lists their names).
struct RunBundle {
  static constexpr int kSchemaVersion = 1;

  std::string trace_id;
  std::string git_sha = "unknown";
  std::string timestamp;          ///< "YYYY-mm-dd HH:MM:SS" UTC
  std::uint64_t timestamp_ns = 0; ///< wall ns; orders runs within one second
  MachineParams machine;
  std::string data_plane = "auto";
  std::vector<std::string> args;  ///< CLI argv (without the binary name)

  std::string program_before;
  std::string program_after;
  std::vector<StageRecord> stages_before;
  std::vector<StageRecord> stages_after;
  std::vector<RuleRecord> rules;

  double model_cost_before = 0;
  double model_cost_after = 0;
  SimSummary sim_before;
  SimSummary sim_after;
  double wall_ms = 0;  ///< threaded execution, 0 when none ran

  /// Search provenance; nullopt when the run used plain greedy rewriting
  /// (the manifest then has no "search" object, keeping old readers happy).
  std::optional<SearchRecord> search;

  /// Artifact name -> JSON document text ("explain", "profile", ...).
  std::map<std::string, std::string> artifacts;

  void write_manifest(std::ostream& os) const;
  /// Throws colop::Error on malformed or wrong-kind documents.
  [[nodiscard]] static RunBundle parse_manifest(const std::string& text);
};

/// How many bundles to keep.  0 = unlimited on either axis.
struct RetentionPolicy {
  std::size_t max_count = 0;
  std::uint64_t max_age_seconds = 0;

  [[nodiscard]] bool unlimited() const {
    return max_count == 0 && max_age_seconds == 0;
  }

  /// Parse a retention spec: "12" (count), "count=12", "age=3600"
  /// (seconds), or "count=12,age=3600".  Throws colop::Error on anything
  /// else.
  [[nodiscard]] static RetentionPolicy parse(const std::string& spec);
  /// Parse $COLOP_RUN_RETENTION; unset/empty = unlimited.  A malformed
  /// spec is reported via *warning (when non-null) and treated as
  /// unlimited — a typo in an env var must not delete history.
  [[nodiscard]] static RetentionPolicy from_env(std::string* warning = nullptr);
};

class RunStore {
 public:
  /// $COLOP_RUN_DIR when set, else ".colop/runs" under the working dir.
  [[nodiscard]] static std::string default_root();

  explicit RunStore(std::string root = default_root());

  [[nodiscard]] const std::string& root() const { return root_; }

  /// Persist one bundle (manifest + artifact files); returns its
  /// directory.  Overwrites an existing bundle with the same trace id.
  std::string save(const RunBundle& bundle) const;

  /// Trace ids on disk, most recent first (manifest timestamp_ns, then
  /// timestamp, then trace id).  Unreadable bundles are skipped.
  [[nodiscard]] std::vector<std::string> list() const;

  /// Load a bundle (manifest + artifacts) by exact trace id.
  [[nodiscard]] RunBundle load(const std::string& trace_id) const;

  /// Resolve a selector — a full trace id, a unique id prefix, "latest",
  /// or "latest~N" (N back from the most recent) — and load the bundle.
  /// Throws colop::Error naming the available runs when it can't.
  [[nodiscard]] RunBundle resolve(const std::string& selector) const;

  /// Raw manifest text by exact trace id (the /runs/<id> endpoint body);
  /// nullopt when absent.
  [[nodiscard]] std::optional<std::string> manifest_text(
      const std::string& trace_id) const;

  /// Evict bundles beyond the policy, oldest first; returns the evicted
  /// trace ids in eviction order.
  std::vector<std::string> prune(const RetentionPolicy& policy) const;

 private:
  std::string root_;
};

/// Resolve `arg` as a path to a manifest.json (when it names a readable
/// file) or as a store selector — how colopt --diff accepts runs.
[[nodiscard]] RunBundle load_run_or_file(const RunStore& store,
                                         const std::string& arg);

/// Oldest-first (mtime) eviction for flat artifact directories such as
/// bench/out: delete `prefix*extension` files beyond the policy.  Returns
/// the removed paths in eviction order.  Missing dir = no-op.
std::vector<std::string> prune_files(const std::string& dir,
                                     const std::string& prefix,
                                     const std::string& extension,
                                     const RetentionPolicy& policy);

/// Best-effort commit identity: $COLOP_GIT_SHA, else $GITHUB_SHA, else
/// "unknown" (same resolution the bench harnesses use).
[[nodiscard]] std::string env_git_sha();

}  // namespace colop::obs
