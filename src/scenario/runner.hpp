// The crash-tolerant job runner behind `dsa_cli run`.
//
// Jobs execute on a shared ThreadPool with per-job retry. Every finished
// job's rows are appended — one flushed JSONL line — to a manifest next to
// the output (`<output>.manifest-<spec fingerprint>.jsonl`), so a killed
// run loses at most the jobs in flight. Re-running the same spec loads the
// manifest, verifies the header and per-job fingerprints, skips completed
// jobs, and finishes the rest; because per-job numbers are deterministic
// and the merge walks jobs in plan order, the merged output is
// byte-identical to an uninterrupted single-thread run. The merge itself is
// atomic (write-then-rename via CsvTable::save), and the manifest is
// removed once the output exists.
//
// Next to the output the runner keeps `<output>.provenance.json`: the
// manifest header line of the plan that produced it. An existing output is
// reused only when that sidecar matches the current plan; a missing,
// unreadable, or foreign sidecar fails the run without touching the file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/plan.hpp"

namespace dsa::scenario {

struct RunOptions {
  /// Jobs run at once, the calling thread included (the pool starts one
  /// worker fewer); 0 = spec.threads, which itself defaults to hardware
  /// concurrency. Never affects the output bytes.
  std::size_t threads = 0;
  /// Resume notes and the job latency summary on stderr.
  bool verbose = true;
  /// Keep the manifest after a successful merge (debugging aid).
  bool keep_manifest = false;
  /// Test hook: abort the run (throwing RunAborted) after this many jobs
  /// have executed — a deterministic stand-in for kill -9. 0 = off.
  std::size_t max_jobs = 0;
  /// Test hook: invoked before each execution attempt of a job as
  /// (job index, attempt starting at 0); throwing makes the attempt fail.
  std::function<void(std::size_t, std::size_t)> before_attempt;
};

struct RunReport {
  std::size_t total = 0;      // jobs in the plan
  std::size_t executed = 0;   // jobs run in this process
  std::size_t skipped = 0;    // jobs restored from the manifest
  std::size_t retried = 0;    // failed attempts that were retried
  std::filesystem::path output;
  std::filesystem::path manifest;
  /// True when the output already existed with a matching provenance
  /// sidecar, and nothing ran.
  bool reused_output = false;
  /// Per-job wall-time summary over every job with a recorded latency
  /// (jobs executed here plus manifest-resumed jobs whose lines carried
  /// an "ms" field). All zero / slowest_job == -1 when nothing recorded.
  double job_ms_p50 = 0.0;
  double job_ms_p90 = 0.0;
  double job_ms_p99 = 0.0;
  std::int64_t slowest_job = -1;  // plan index of the slowest job
  std::string slowest_label;
  double slowest_ms = 0.0;
};

/// Thrown when RunOptions::max_jobs aborts a run. The manifest keeps every
/// job that finished before the abort.
struct RunAborted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Where the plan's manifest lives: `<output>.manifest-<16 hex>.jsonl`.
[[nodiscard]] std::filesystem::path manifest_path(const Plan& plan);

/// Where the output's provenance lives: `<output>.provenance.json`, the
/// plan's manifest header line, written with every merged output.
[[nodiscard]] std::filesystem::path provenance_path(const Plan& plan);

/// Job indices a manifest already holds valid results for (ascending).
/// Missing, foreign, or torn manifests yield the valid prefix (possibly
/// empty) — the same data a resumed run would reuse.
[[nodiscard]] std::vector<std::size_t> completed_jobs_in_manifest(
    const Plan& plan);

/// Executes the plan (see file comment for resume and reuse semantics).
/// Throws RunAborted on the max_jobs hook, and std::runtime_error when a job
/// exhausts its retries (completed jobs stay in the manifest either way) or
/// when an existing output's provenance does not match the plan.
RunReport run_scenario(const Plan& plan, const RunOptions& options = {});

}  // namespace dsa::scenario
