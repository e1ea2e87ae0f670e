// Shared helpers for the figure/table bench binaries: PRA dataset access
// (the DSA_* sweep scenario, whose output results/pra_results.csv is reused
// when its provenance matches), the DSA_OBS session with its
// standardized perf output (BENCH_<name>.json), and small formatting
// utilities.
//
// Every bench prints (a) a short header with the experiment id and the
// paper's claim, (b) machine-readable series rows, and (c) a summary that
// states whether the claim's *shape* reproduced at the current scale.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "scenario/knobs.hpp"
#include "scenario/runner.hpp"
#include "stats/descriptive.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/env.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/proc_stat.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace dsa::bench {

/// Renders the shared BENCH_<name>.json schema: bench id, the env scale
/// knobs plus any bench-specific ones, threads, and the wall-time
/// distribution over the sample list (median / p10 / p90, milliseconds).
/// tools/bench_compare diffs two of these files (or directories of them).
inline std::string bench_json(
    const std::string& name, const std::vector<double>& wall_ms,
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  const std::size_t configured =
      scenario::sweep_knobs_from_environment().threads;
  // End-of-run memory footprint (zeros off-Linux). bench_compare reads only
  // the fields it is asked about, so the extra object never breaks committed
  // baselines.
  const util::ProcStat mem = util::read_proc_stat();
  const std::size_t threads =
      configured == 0 ? util::ThreadPool::default_thread_count() : configured;
  std::ostringstream out;
  out << "{\"type\":\"bench\",\"schema\":1,\"bench\":\""
      << util::json::escape(name) << "\",\"threads\":" << threads
      << ",\"repetitions\":" << wall_ms.size() << ",\"wall_time_ms\":{"
      << "\"median\":" << util::exact_number(stats::percentile(wall_ms, 0.5))
      << ",\"p10\":" << util::exact_number(stats::percentile(wall_ms, 0.1))
      << ",\"p90\":" << util::exact_number(stats::percentile(wall_ms, 0.9))
      << "},\"mem_kb\":{\"rss\":" << mem.rss_kb
      << ",\"peak\":" << mem.peak_rss_kb << "},\"knobs\":{";
  bool first = true;
  for (const auto& [key, json_value] : knobs) {
    if (!first) out << ',';
    first = false;
    out << '"' << util::json::escape(key) << "\":" << json_value;
  }
  out << "}}\n";
  return std::move(out).str();
}

/// RAII guard for bench mains: opens the DSA_OBS session (obs/config.hpp)
/// named after the bench and, on every exit path, finishes it. With the
/// `metrics` token it also writes the BENCH_<name>.json perf summary next
/// to METRICS_<name>.jsonl. Benches with a real repetition loop feed
/// per-repetition wall times through add_wall_ms(); otherwise the scope's
/// own lifetime becomes the single sample.
struct MetricsScope {
  explicit MetricsScope(const std::string& name)
      : name_(name),
        session_(environment_config(), name),
        start_(std::chrono::steady_clock::now()) {}

  /// One timed repetition, in milliseconds (steady-clock measured).
  void add_wall_ms(double ms) { wall_ms_.push_back(ms); }

  /// Bench-specific config knob for the BENCH json. The typed overloads
  /// render the JSON value; keys appear in insertion order.
  void knob(const std::string& key, std::int64_t value) {
    knobs_.emplace_back(key, std::to_string(value));
  }
  void knob(const std::string& key, std::size_t value) {
    knobs_.emplace_back(key, std::to_string(value));
  }
  void knob(const std::string& key, double value) {
    knobs_.emplace_back(key, util::exact_number(value));
  }
  void knob(const std::string& key, const std::string& value) {
    knobs_.emplace_back(key, '"' + util::json::escape(value) + '"');
  }

  ~MetricsScope() {
    // A bench's perf summary must never turn a successful run into a crash:
    // swallow I/O errors (e.g. a missing results/ dir on a read-only mount).
    try {
      if (session_.config().metrics) {
        const util::ProcStat mem = util::read_proc_stat();
        obs::Registry::global().gauge("proc.rss_kb").set(
            static_cast<double>(mem.rss_kb));
        obs::Registry::global().gauge("proc.peak_rss_kb").set(
            static_cast<double>(mem.peak_rss_kb));
      }
      session_.finish();
      if (session_.config().metrics) {
        if (wall_ms_.empty()) {
          const auto elapsed =
              std::chrono::steady_clock::now() - start_;
          wall_ms_.push_back(
              std::chrono::duration<double, std::milli>(elapsed).count());
        }
        const std::filesystem::path path =
            session_.artifact("BENCH_", ".json");
        util::atomic_write(path, bench_json(name_, wall_ms_, knobs_));
        std::fprintf(stderr, "[bench] wrote %s\n", path.string().c_str());
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "[bench] perf summary failed: %s\n", error.what());
    }
  }
  MetricsScope(const MetricsScope&) = delete;
  MetricsScope& operator=(const MetricsScope&) = delete;

 private:
  /// A malformed DSA_OBS or a removed variable stops the bench up front
  /// with the same exit status the CLI uses for usage errors.
  static obs::Config environment_config() {
    try {
      return obs::Config::from_environment();
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      std::exit(2);
    }
  }

  std::string name_;
  obs::Session session_;
  std::chrono::steady_clock::time_point start_;
  std::vector<double> wall_ms_;
  std::vector<std::pair<std::string, std::string>> knobs_;
};

/// The DSA_* scale knobs as a sweep spec (scenario/knobs.hpp). A bad knob
/// stops the bench with the CLI's usage-error status, naming the variable.
inline scenario::SweepKnobs sweep_knobs() {
  try {
    return scenario::sweep_knobs_from_environment();
  } catch (const scenario::KnobError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(2);
  }
}

/// The PRA dataset at the knobs' scale: the sweep scenario is run (or its
/// existing output reused, when its provenance sidecar matches), then
/// loaded. An output from another spec stops the bench, naming both
/// fingerprints.
inline std::vector<swarming::PraRecord> dataset() {
  const scenario::SweepKnobs knobs = sweep_knobs();
  try {
    const scenario::Plan plan = scenario::expand_plan(knobs.spec);
    scenario::RunOptions options;
    options.threads = knobs.threads;
    (void)scenario::run_scenario(plan, options);
    return swarming::load_pra_dataset(plan.spec.output);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    std::exit(1);
  }
}

/// Prints the effective runtime configuration — thread count and every DSA_*
/// scale knob — to stderr, so any captured bench output records the scale it
/// ran at and runs are comparable across machines/PRs.
inline void runtime_banner() {
  const scenario::SweepKnobs knobs = sweep_knobs();
  const scenario::ParamSet params = knobs.spec.scalar_params();
  const std::size_t threads = knobs.threads == 0
                                  ? util::ThreadPool::default_thread_count()
                                  : knobs.threads;
  std::fprintf(
      stderr,
      "[config] threads=%zu rounds=%lld population=%lld perf_runs=%lld "
      "encounter_runs=%lld opponents=%lld seed=%lld\n",
      threads, static_cast<long long>(params.get_int("rounds")),
      static_cast<long long>(params.get_int("population")),
      static_cast<long long>(params.get_int("performance_runs")),
      static_cast<long long>(params.get_int("encounter_runs")),
      static_cast<long long>(params.get_int("opponent_sample")),
      static_cast<long long>(params.get_int("seed")));
}

/// Prints the standard bench banner (and the runtime config to stderr).
inline void banner(const std::string& experiment, const std::string& claim) {
  runtime_banner();
  std::printf("================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("================================================================\n");
}

/// "[lo,hi)" with one decimal: a histogram bin's row label. Built by
/// appends, since GCC 12 warns (-Wrestrict, a libstdc++ false positive)
/// about `"[" + std::string&&`.
inline std::string interval_label(double lo, double hi) {
  std::string label = "[";
  label += util::fixed(lo, 1);
  label += ',';
  label += util::fixed(hi, 1);
  label += ')';
  return label;
}

/// "REPRODUCED" / "DEVIATION" verdict line.
inline void verdict(bool reproduced, const std::string& detail) {
  std::printf("[%s] %s\n", reproduced ? "REPRODUCED" : "DEVIATION",
              detail.c_str());
}

}  // namespace dsa::bench
