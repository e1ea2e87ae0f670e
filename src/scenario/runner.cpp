#include "scenario/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "scenario/exec.hpp"
#include "scenario/manifest.hpp"
#include "stats/descriptive.hpp"
#include "util/csv.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace dsa::scenario {

std::filesystem::path manifest_path(const Plan& plan) {
  std::filesystem::path path = plan.spec.output;
  path += ".manifest-" + hex16(plan.spec_fingerprint) + ".jsonl";
  return path;
}

std::filesystem::path provenance_path(const Plan& plan) {
  std::filesystem::path path = plan.spec.output;
  path += ".provenance.json";
  return path;
}

namespace {

/// Why the existing output of `plan` may not be reused, or empty when its
/// provenance sidecar describes this plan.
std::string reuse_refusal(const Plan& plan) {
  const std::filesystem::path sidecar = provenance_path(plan);
  if (!std::filesystem::exists(sidecar)) {
    return "has no provenance sidecar " + sidecar.string();
  }
  try {
    const util::json::Value header = util::json::parse_file(sidecar);
    if (header_matches(header, plan)) return {};
    const util::json::Value* fp = header.find("spec_fp");
    if (fp != nullptr && fp->type == util::json::Value::Type::kString &&
        fp->text != hex16(plan.spec_fingerprint)) {
      return "was computed by spec_fp " + fp->text + " (" + sidecar.string() +
             ")";
    }
    return "has a sidecar " + sidecar.string() +
           " that does not describe this plan";
  } catch (const std::exception& error) {
    return "has an unreadable provenance sidecar (" +
           std::string(error.what()) + ")";
  }
}

}  // namespace

std::vector<std::size_t> completed_jobs_in_manifest(const Plan& plan) {
  const ManifestData data = load_manifest(plan, manifest_path(plan));
  std::vector<std::size_t> completed;
  for (std::size_t i = 0; i < data.have.size(); ++i) {
    if (data.have[i]) completed.push_back(i);
  }
  return completed;
}

RunReport run_scenario(const Plan& plan, const RunOptions& options) {
  DSA_OBS_PHASE("scenario/run");
  RunReport report;
  report.total = plan.jobs.size();
  report.output = plan.spec.output;
  report.manifest = manifest_path(plan);

  // An existing output is reused only when its provenance sidecar proves
  // it came from this spec; anything else is refused, never loaded or
  // overwritten.
  if (std::filesystem::exists(plan.spec.output)) {
    const std::string refusal = reuse_refusal(plan);
    if (!refusal.empty()) {
      throw std::runtime_error(
          "output " + plan.spec.output.string() + " " + refusal +
          "; this spec is spec_fp " + hex16(plan.spec_fingerprint) +
          ". Delete " + plan.spec.output.string() +
          " to recompute it, or pass --force to `dsa_cli sweep`");
    }
    report.reused_output = true;
    report.skipped = report.total;
    if (options.verbose) {
      std::fprintf(stderr, "scenario '%s': output %s already exists\n",
                   plan.spec.name.c_str(),
                   plan.spec.output.string().c_str());
    }
    return report;
  }

  // Heartbeat + time-series for `dsa_cli status`: one shard per job.
  // A pure observer — no RNG, no locks shared with job execution — so the
  // merged CSV stays byte-identical with telemetry on or off.
  obs::TelemetryRun telemetry = obs::Telemetry::global().begin_run(
      {.name = obs::sanitize_run_name(plan.spec.name),
       .kind = to_string(plan.spec.kind),
       .spec_fingerprint = plan.spec_fingerprint,
       .jobs_total = plan.jobs.size(),
       .output = plan.spec.output.string()});
  telemetry.set_phase("resume-check");
  telemetry.init_shards(plan.jobs.size());

  // Resume state: trusted manifest lines become pre-completed jobs; the
  // first untrusted byte onward is truncated away so appends never chase a
  // torn tail.
  ManifestData manifest = load_manifest(plan, report.manifest);
  if (options.verbose && manifest.trust != ManifestTrust::kTrusted &&
      manifest.trust != ManifestTrust::kMissing) {
    std::fprintf(stderr,
                 "scenario '%s': manifest distrusted beyond byte %zu (%s: "
                 "%s)\n",
                 plan.spec.name.c_str(), manifest.valid_bytes,
                 to_string(manifest.trust), manifest.distrust_reason.c_str());
  }
  {
    std::error_code ignored;
    const auto size = std::filesystem::file_size(report.manifest, ignored);
    if (!ignored && size > manifest.valid_bytes) {
      if (manifest.valid_bytes == 0) {
        std::filesystem::remove(report.manifest, ignored);
      } else {
        std::filesystem::resize_file(report.manifest, manifest.valid_bytes,
                                     ignored);
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (!manifest.have[i]) {
      pending.push_back(i);
    } else {
      telemetry.set_shard_state(i, obs::ShardState::kResumed);
    }
  }
  report.skipped = plan.jobs.size() - pending.size();
  telemetry.add_done(report.skipped);
  if (report.skipped > 0) {
    if (options.verbose) {
      std::fprintf(stderr,
                   "scenario '%s': resuming from manifest (%zu/%zu jobs "
                   "done)\n",
                   plan.spec.name.c_str(), report.skipped, report.total);
    }
    if (obs::enabled()) {
      obs::Registry::global().counter("scenario.manifest_resumes").increment();
      obs::Registry::global()
          .counter("scenario.jobs_skipped")
          .add(report.skipped);
    }
    obs::TraceSink::global().instant("scenario/manifest-resume");
  }

  const std::filesystem::path parent = report.manifest.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  const bool fresh = !manifest.header_ok;
  std::ofstream out(report.manifest, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("cannot open scenario manifest: " +
                             report.manifest.string());
  }
  if (fresh) {
    out << manifest_header_line(plan) << '\n';
    out.flush();
  }

  std::vector<JobRows> results = std::move(manifest.rows);
  std::vector<double> job_ms = std::move(manifest.ms);
  telemetry.set_phase("jobs");

  std::mutex sink_mutex;  // manifest stream + failure bookkeeping
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> retried{0};
  std::atomic<std::size_t> tickets{0};
  std::atomic<bool> aborted{false};
  std::size_t failures = 0;
  std::string first_error;

  const std::size_t threads =
      options.threads != 0
          ? options.threads
          : (plan.spec.threads != 0 ? plan.spec.threads
                                    : util::ThreadPool::default_thread_count());
  // The calling thread runs jobs too (parallel_for), so `threads` jobs run
  // at once on threads - 1 workers.
  util::ThreadPool pool(threads - 1);
  pool.parallel_for(pending.size(), [&](std::size_t i) {
    const Job& job = plan.jobs[pending[i]];
    if (options.max_jobs > 0 &&
        tickets.fetch_add(1) >= options.max_jobs) {
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    telemetry.set_shard_state(job.index, obs::ShardState::kRunning);
    const auto start = std::chrono::steady_clock::now();
    JobRows rows;
    bool ok = false;
    for (std::size_t attempt = 0; attempt <= plan.spec.retries; ++attempt) {
      try {
        if (options.before_attempt) options.before_attempt(job.index, attempt);
        rows = execute_job(plan.spec, job);
        ok = true;
        break;
      } catch (const std::exception& error) {
        if (attempt == plan.spec.retries) {
          telemetry.set_shard_state(job.index, obs::ShardState::kFailed);
          telemetry.add_failed();
          telemetry.set_last_error("job " + std::to_string(job.index) + " (" +
                                   job.label + "): " + error.what());
          std::lock_guard lock(sink_mutex);
          ++failures;
          if (first_error.empty()) {
            first_error = "job " + std::to_string(job.index) + " (" +
                          job.label + "): " + error.what();
          }
          return;
        }
        retried.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) {
          obs::Registry::global().counter("scenario.jobs_retried").increment();
        }
      }
    }
    if (!ok) return;
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    {
      std::lock_guard lock(sink_mutex);
      out << manifest_job_line(job, rows, wall_ms) << '\n';
      out.flush();
    }
    results[job.index] = std::move(rows);
    job_ms[job.index] = wall_ms;
    executed.fetch_add(1, std::memory_order_relaxed);
    telemetry.set_shard_state(job.index, obs::ShardState::kDone);
    telemetry.add_done();
    if (obs::enabled()) {
      obs::Registry::global().counter("scenario.jobs_executed").increment();
      obs::Registry::global().distribution("scenario.job_ms").observe(wall_ms);
    }
    obs::TraceSink::global().instant("scenario/job-done");
  });
  out.flush();

  report.executed = executed.load();
  report.retried = retried.load();
  if (aborted.load()) {
    telemetry.set_last_error("aborted by max_jobs hook");
    throw RunAborted("scenario '" + plan.spec.name + "' aborted after " +
                     std::to_string(report.executed) +
                     " jobs (max_jobs hook); manifest retained");
  }
  if (failures > 0) {
    throw std::runtime_error(
        "scenario '" + plan.spec.name + "': " + std::to_string(failures) +
        " job(s) failed after " + std::to_string(plan.spec.retries + 1) +
        " attempt(s); completed jobs are in the manifest. First error: " +
        first_error);
  }

  // Per-job latency summary: jobs executed here plus resumed jobs whose
  // manifest lines carried an "ms" field. Slowness is as much a signal as
  // failure on long sweeps, so it gets the same end-of-run visibility.
  {
    std::vector<double> samples;
    samples.reserve(job_ms.size());
    std::size_t slowest = 0;
    bool any = false;
    for (std::size_t i = 0; i < job_ms.size(); ++i) {
      if (job_ms[i] < 0.0) continue;
      samples.push_back(job_ms[i]);
      if (!any || job_ms[i] > job_ms[slowest]) slowest = i;
      any = true;
    }
    if (any) {
      report.job_ms_p50 = stats::percentile(samples, 0.50);
      report.job_ms_p90 = stats::percentile(samples, 0.90);
      report.job_ms_p99 = stats::percentile(samples, 0.99);
      report.slowest_job = static_cast<std::int64_t>(slowest);
      report.slowest_label = plan.jobs[slowest].label;
      report.slowest_ms = job_ms[slowest];
      if (options.verbose) {
        std::fprintf(stderr,
                     "scenario '%s': job latency p50=%.1fms p90=%.1fms "
                     "p99=%.1fms over %zu job(s); slowest job %zu (%s) at "
                     "%.1fms\n",
                     plan.spec.name.c_str(), report.job_ms_p50,
                     report.job_ms_p90, report.job_ms_p99, samples.size(),
                     slowest, report.slowest_label.c_str(),
                     report.slowest_ms);
      }
    }
  }

  telemetry.set_phase("merge");
  {
    DSA_OBS_PHASE("scenario/merge");
    const util::CsvTable table = merge_rows(plan, results);
    // The sidecar lands first: an output without one would be refused.
    util::atomic_write(provenance_path(plan),
                       manifest_header_line(plan) + '\n');
    table.save(plan.spec.output);
  }
  if (!options.keep_manifest) {
    out.close();
    std::error_code ignored;
    std::filesystem::remove(report.manifest, ignored);
  }
  return report;
}

}  // namespace dsa::scenario
