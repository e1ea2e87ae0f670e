// Live telemetry: a background sampler that makes running experiments
// inspectable from the outside while they execute.
//
// Everything observability has produced so far (metrics JSONL, phase
// reports, the flight recorder) is post-hoc: the artifacts appear when the
// process exits. Long sweeps and swarm runs need the opposite — a cheap,
// continuously refreshed view another process can attach to. This module
// provides it with two artifacts per registered run:
//
//  * `<dir>/<name>.status.json` — a heartbeat, atomically rewritten every
//    sampling interval via util::atomic_write: pid, spec fingerprint,
//    phase, jobs done/total/failed, throughput, ETA, RSS/peak-RSS, pool
//    queue depth, per-shard progress, last error. `dsa_cli top` and
//    `dsa_cli status` poll this file; staleness (pid gone, or heartbeat
//    older than 3 intervals) is how a reader distinguishes a live run from
//    a stalled or SIGKILLed one.
//  * `<dir>/STATUS_<name>.timeseries.jsonl` — an append-only schema-v1
//    time-series: one JSON line per sample with metric-counter deltas,
//    gauges, and the top profiler phases. Resumed runs keep appending to
//    the same file, so the series spans crashes.
//
// Determinism contract (same as the rest of src/obs, enforced by the
// telemetry test suite): the sampler runs on its own thread, consumes no
// RNG, takes no locks on simulation hot paths (worker-side updates are
// relaxed atomics), and timestamps never enter any fingerprint — every
// result CSV/checkpoint is bitwise-identical with telemetry on or off, at
// any thread count. Sampler I/O errors are swallowed: a full disk may lose
// telemetry, never the experiment.
//
// Enabled via DSA_STATUS=on (DSA_STATUS_INTERVAL_MS, DSA_STATUS_DIR tune
// it); parsing is strict like every other DSA_* knob. When telemetry is
// off, begin_run() returns an inert handle whose methods are single
// predictable branches.
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
}  // namespace dsa::util

namespace dsa::obs {

/// Telemetry configuration, normally read from the environment once at
/// process start (dsa_cli main, bench banners).
struct TelemetryOptions {
  bool enabled = false;
  std::uint32_t interval_ms = 1000;     // sampling period
  std::filesystem::path dir = "results";  // where status files land

  /// DSA_STATUS=off|on, DSA_STATUS_INTERVAL_MS (1..3600000),
  /// DSA_STATUS_DIR. Set-but-invalid values throw std::runtime_error
  /// naming the variable and value (env_enum/env_int machinery).
  static TelemetryOptions from_environment();
};

/// Progress state of one shard (checkpoint chunk, scenario job).
enum class ShardState : std::uint8_t {
  kTodo = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kResumed = 4,  // completed by a previous process, skipped on resume
};

[[nodiscard]] const char* to_string(ShardState state) noexcept;

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
  /// Monotone progress. add_done increments; update_done raises the done
  /// count to `done` if larger (CAS-max — safe with concurrent adders).
  void add_done(std::uint64_t n = 1);
  void update_done(std::uint64_t done);
  void add_failed(std::uint64_t n = 1);
  /// (Re)declares the total; 0 means unknown (no ETA).
  void set_total(std::uint64_t total);
  /// Records the most recent error message (shown in heartbeat + top).
  void set_last_error(std::string_view message);

  /// Points the sampler at a pool whose queue depth to report. The pool
  /// must outlive the watch: call watch_pool(nullptr) before the pool is
  /// destroyed (or finish the run first).
  void watch_pool(const util::ThreadPool* pool);

  /// Declares the run's shards (chunk/job labels, in stable order) and
  /// updates one shard's state. init_shards resets all states to kTodo.
  void init_shards(std::vector<std::string> labels);
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
// Reader side: parsing heartbeats back (dsa_cli top / status, tests).

/// One parsed heartbeat file. Absent fields keep their zero/empty
/// defaults; unknown extra fields are ignored (schema may grow).
struct StatusFile {
  std::filesystem::path path;
  int schema = 0;
  std::string name;
  std::string kind;
  std::string state;  // "running" | "done" | "failed"
  std::string phase;
  std::string last_error;
  std::string output;
  std::string spec_fp;  // 16 hex digits (or empty)
  std::int64_t pid = 0;
  std::uint64_t seq = 0;
  std::int64_t started_unix_ms = 0;
  std::int64_t timestamp_unix_ms = 0;
  std::uint32_t interval_ms = 0;
  double uptime_sec = 0.0;
  std::uint64_t done = 0;
  std::uint64_t total = 0;
  std::uint64_t failed = 0;
  double rate_per_sec = 0.0;
  double eta_sec = -1.0;  // -1 = unknown
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t queue_depth = 0;
  std::vector<std::pair<std::string, std::string>> shards;  // id -> state
  std::map<std::string, std::uint64_t> shard_counts;  // state -> count
  std::map<std::string, std::uint64_t> counters;      // cumulative values
  std::map<std::string, double> gauges;
  // Sketch summaries: name -> {"count","p50",...,"mean",...} field map.
  std::map<std::string, std::map<std::string, double>> sketches;
};

/// Health classification of a run as seen through its heartbeat.
enum class RunHealth : std::uint8_t {
  kRunning,
  kStalled,  // process alive but heartbeat older than 3 intervals
  kDead,     // heartbeat says running but the pid is gone
  kDone,
  kFailed,
};

[[nodiscard]] const char* to_string(RunHealth health) noexcept;

/// Parses a heartbeat file. Throws util::json::ParseError /
/// std::runtime_error on unreadable or malformed files; schema mismatches
/// (wrong "type") throw std::runtime_error naming the path.
[[nodiscard]] StatusFile load_status_file(const std::filesystem::path& path);

/// One parsed line of a STATUS_<name>.timeseries.jsonl file — the fields
/// the health-timeline report consumes. Absent fields keep their zero
/// defaults; unknown fields are ignored (schema may grow).
struct TimeseriesSample {
  std::uint64_t seq = 0;
  double uptime_sec = 0.0;
  std::uint64_t jobs_done = 0;
  std::map<std::string, std::uint64_t> counters_delta;
  std::map<std::string, double> gauges;
  // Sketch summaries at this sample: name -> {"count","p50",...} field map.
  std::map<std::string, std::map<std::string, double>> sketches;
};

/// Parses a telemetry time-series JSONL file in line order. Lines whose
/// "type" is not "telemetry" are skipped; malformed JSON throws
/// util::json::ParseError naming the offending line number via the path.
[[nodiscard]] std::vector<TimeseriesSample> load_timeseries(
    const std::filesystem::path& path);

/// True when `pid` names a live process (signal-0 probe; EPERM counts as
/// alive). Always false for pid <= 0.
[[nodiscard]] bool pid_alive(std::int64_t pid) noexcept;

/// Classifies a heartbeat given the reader's clock and a pid-liveness
/// answer (injectable for tests).
[[nodiscard]] RunHealth classify_status(const StatusFile& status,
                                        std::int64_t now_unix_ms,
                                        bool process_alive) noexcept;

/// Convenience: classify with the real clock and a real pid probe.
[[nodiscard]] RunHealth classify_status(const StatusFile& status);

/// Expands a target into heartbeat paths: a regular file is returned
/// as-is; a directory is scanned (non-recursively) for `*.status.json`,
/// sorted by filename. Anything else (or an empty scan) returns empty.
[[nodiscard]] std::vector<std::filesystem::path> find_status_files(
    const std::filesystem::path& target);

}  // namespace dsa::obs
