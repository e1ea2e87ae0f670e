// Live telemetry: a background sampler that makes running experiments
// inspectable from the outside while they execute.
//
// Metrics JSONL, phase folds and the flight recorder appear when the
// process exits. Long sweeps and swarm runs also need a cheap, continuously
// refreshed view another process can attach to. One value type carries it,
// StatusSample: run identity, phase, jobs done/total/failed, throughput,
// ETA, RSS/peak-RSS, the serve daemon's queued jobs, one state character
// per shard, the last error, and the metrics registry's cumulative
// counters, gauges and sketch summaries. Each registered run keeps two
// artifacts of it, both schema 2:
//
//  * `<dir>/<name>.status.json` — the heartbeat: the latest sample written
//    with "type":"status", atomically replaced every sampling interval via
//    util::atomic_write. `dsa_cli status` polls it; staleness (pid gone, or
//    heartbeat older than 3 intervals) is how a reader tells a live run
//    from a stalled or SIGKILLed one.
//  * `<dir>/STATUS_<name>.timeseries.jsonl` — the series: every sample
//    appended as one line with "type":"telemetry". Counters are cumulative;
//    a reader differences consecutive lines. Resumed runs keep appending to
//    the same file, so the series spans crashes.
//
// One renderer (render_sample) writes both, and one parser (parse_sample)
// reads both through util::json::Cursor: a wrong-typed field or a schema
// other than 2 fails naming the file, line and `$.key` path.
//
// Determinism contract (same as the rest of src/obs, enforced by the
// telemetry test suite): the sampler runs on its own thread, consumes no
// RNG, takes no locks on simulation hot paths (worker-side updates are
// relaxed atomics), and timestamps never enter any fingerprint — every
// result CSV/manifest is bitwise-identical with telemetry on or off, at
// any thread count. Sampler I/O errors are swallowed: a full disk may lose
// telemetry, never the experiment.
//
// Enabled by the `status` token of DSA_OBS (obs/config.hpp), which also
// picks the directory. When telemetry is off, begin_run() returns an inert
// handle whose methods are single predictable branches.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dsa::util {
class ThreadPool;
namespace json {
class Value;
}  // namespace json
}  // namespace dsa::util

namespace dsa::obs {

/// Telemetry configuration, applied once at process start by obs::Session.
struct TelemetryOptions {
  bool enabled = false;
  std::uint32_t interval_ms = 1000;     // sampling period
  std::filesystem::path dir = "results";  // where status files land
};

/// Progress state of one shard (a scenario job); the value is the
/// character the shard string shows for it.
enum class ShardState : char {
  kTodo = '.',
  kRunning = '>',
  kDone = '#',
  kFailed = 'x',
  kResumed = '=',  // completed by a previous process, skipped on resume
};

/// Identity of a run registered with the telemetry sampler.
struct RunInfo {
  std::string name;   // becomes the status-file stem; sanitized by caller
  std::string kind;   // "sweep", "scenario", "explore", "swarm", ...
  std::uint64_t spec_fingerprint = 0;  // options/spec fingerprint, 0 if n/a
  std::uint64_t jobs_total = 0;        // 0 = unknown
  std::string output;                  // primary artifact path, for display
};

/// Handle for one live run. Workers drive progress through it; every
/// method is safe from any thread and costs a relaxed atomic (or, for the
/// rare string setters, a short mutex never held by sim hot loops). All
/// methods no-op on a disabled (default-constructed) handle. Move-only;
/// destruction finishes the run if finish() was not called explicitly.
class TelemetryRun {
 public:
  TelemetryRun() = default;
  TelemetryRun(TelemetryRun&& other) noexcept;
  TelemetryRun& operator=(TelemetryRun&& other) noexcept;
  TelemetryRun(const TelemetryRun&) = delete;
  TelemetryRun& operator=(const TelemetryRun&) = delete;
  ~TelemetryRun();

  [[nodiscard]] bool active() const noexcept { return state_ != nullptr; }

  /// Names the current coarse phase ("quantify", "merge", ...).
  void set_phase(std::string_view phase);
  /// Monotone progress counters; safe with concurrent adders.
  void add_done(std::uint64_t n = 1);
  void add_failed(std::uint64_t n = 1);
  /// Records the most recent error message (shown in the heartbeat).
  void set_last_error(std::string_view message);

  /// Points the sampler at a pool whose queued jobs to report as
  /// queue_depth (the serve daemon's submit backlog). The pool must outlive
  /// the watch: call watch_pool(nullptr) before the pool is destroyed (or
  /// finish the run first).
  void watch_pool(const util::ThreadPool* pool);

  /// Declares `count` shards (jobs, in plan order), all kTodo, and updates
  /// one shard's state.
  void init_shards(std::size_t count);
  void set_shard_state(std::size_t index, ShardState state);

  /// Writes the final heartbeat (state "done"/"failed") and detaches from
  /// the sampler. Idempotent; also run by the destructor (ok=true).
  void finish(bool ok);

  struct State;  // opaque; public so the sampler internals can reach it

 private:
  friend class Telemetry;
  explicit TelemetryRun(std::shared_ptr<State> state)
      : state_(std::move(state)) {}
  std::shared_ptr<State> state_;
};

/// The sampler. Most code uses the process-wide global() instance,
/// configured once from the environment; tests construct their own.
class Telemetry {
 public:
  Telemetry();
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  static Telemetry& global();

  /// Applies options: starts the sampler thread when enabled, stops it
  /// (joining) when disabled. Safe to call repeatedly and concurrently
  /// with begin_run/sample_now. Enabling also flips obs::set_enabled(true)
  /// so the metric feeds exist (when compiled in).
  void configure(const TelemetryOptions& options);

  [[nodiscard]] bool enabled() const noexcept;
  [[nodiscard]] TelemetryOptions options() const;

  /// Registers a run and writes its first heartbeat immediately. Returns
  /// an inert handle when telemetry is disabled.
  TelemetryRun begin_run(RunInfo info);

  /// Runs one sampling pass synchronously (tests, CLI epilogues). The
  /// background thread calls the same code on its interval.
  void sample_now();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replaces every character outside [A-Za-z0-9._-] with '_', so any spec
/// name or output stem yields a safe status-file stem. Empty input maps to
/// "run".
[[nodiscard]] std::string sanitize_run_name(std::string_view name);

// ---------------------------------------------------------------------------
// The sample: written by the sampler, read back by `dsa_cli status`,
// `dsa_cli report --health` and tests.

/// The schema both files carry.
inline constexpr int kStatusSchema = 2;

/// One telemetry sample of one run. Fields absent from a parsed file keep
/// these defaults; unknown extra fields are ignored (the schema may grow).
struct StatusSample {
  std::string name;
  std::string kind;
  std::int64_t pid = 0;
  std::string state;  // "running" | "done" | "failed"
  std::uint64_t seq = 0;
  std::string spec_fp;  // 16 hex digits (or empty)
  std::string output;
  std::string phase;
  std::uint32_t interval_ms = 0;
  std::int64_t started_unix_ms = 0;
  std::int64_t timestamp_unix_ms = 0;
  double uptime_sec = 0.0;
  std::uint64_t done = 0;  // rendered as "jobs": {"done","total","failed"}
  std::uint64_t total = 0;
  std::uint64_t failed = 0;
  double rate_per_sec = 0.0;
  double eta_sec = -1.0;  // -1 = unknown
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t queue_depth = 0;  // serve daemon's queued jobs; 0 elsewhere
  std::string last_error;
  std::string shards;  // one ShardState character per shard, in job order
  std::map<std::string, std::uint64_t> counters;  // cumulative values
  std::map<std::string, double> gauges;
  // Sketch summaries: name -> {"count","p50",...,"mean",...} field map.
  std::map<std::string, std::map<std::string, double>> sketches;

  bool operator==(const StatusSample&) const = default;
};

/// Renders `sample` as one line of JSON (no newline) tagged with `type`:
/// "status" for the heartbeat, "telemetry" for a series line.
[[nodiscard]] std::string render_sample(const StatusSample& sample,
                                        std::string_view type);

/// Reads a rendered sample back. Throws util::json::SchemaError naming
/// `origin`, the line and the `$.key` path when "type" is not `type`, the
/// schema is not kStatusSchema, or a known field has the wrong type.
[[nodiscard]] StatusSample parse_sample(const util::json::Value& root,
                                        std::string_view type,
                                        const std::string& origin);

/// Parses a heartbeat file. Throws on unreadable, malformed or
/// wrong-schema files, naming the path.
[[nodiscard]] StatusSample load_status_file(const std::filesystem::path& path);

/// Parses a time-series file in line order (blank lines skipped). Throws
/// on the first malformed or wrong-schema line, naming path:line.
[[nodiscard]] std::vector<StatusSample> load_timeseries(
    const std::filesystem::path& path);

/// Health classification of a run as seen through its heartbeat.
enum class RunHealth : std::uint8_t {
  kRunning,
  kStalled,  // process alive but heartbeat older than 3 intervals
  kDead,     // heartbeat says running but the pid is gone
  kDone,
  kFailed,
};

[[nodiscard]] const char* to_string(RunHealth health) noexcept;

/// True when `pid` names a live process (signal-0 probe; EPERM counts as
/// alive). Always false for pid <= 0.
[[nodiscard]] bool pid_alive(std::int64_t pid) noexcept;

/// Classifies a heartbeat given the reader's clock and a pid-liveness
/// answer (injectable for tests).
[[nodiscard]] RunHealth classify_status(const StatusSample& status,
                                        std::int64_t now_unix_ms,
                                        bool process_alive) noexcept;

/// Convenience: classify with the real clock and a real pid probe.
[[nodiscard]] RunHealth classify_status(const StatusSample& status);

/// Expands a target into heartbeat paths: a regular file is returned
/// as-is; a directory is scanned (non-recursively) for `*.status.json`,
/// sorted by filename. Anything else (or an empty scan) returns empty.
[[nodiscard]] std::vector<std::filesystem::path> find_status_files(
    const std::filesystem::path& target);

}  // namespace dsa::obs
