// Shared helpers for the figure/table bench binaries: PRA dataset access
// (the DSA_* sweep scenario, whose output results/pra_results.csv is reused
// when its provenance matches), the DSA_OBS session, and small formatting
// utilities.
//
// Every bench prints (a) a short header with the experiment id and the
// paper's claim, (b) machine-readable series rows, and (c) a summary that
// states whether the claim's *shape* reproduced at the current scale.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/config.hpp"
#include "obs/metrics.hpp"
#include "scenario/knobs.hpp"
#include "scenario/runner.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/env.hpp"
#include "util/proc_stat.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace dsa::bench {

/// RAII guard for bench mains: opens the DSA_OBS session (obs/config.hpp)
/// named after the bench and finishes it on every exit path. Under
/// `metrics`, METRICS_<name>.jsonl also carries the process's end-of-run
/// resident and peak resident set sizes.
struct MetricsScope {
  explicit MetricsScope(const std::string& name)
      : session_(environment_config(), name) {}

  ~MetricsScope() {
    if (session_.config().metrics) {
      const util::ProcStat mem = util::read_proc_stat();
      obs::Registry::global().gauge("proc.rss_kb").set(
          static_cast<double>(mem.rss_kb));
      obs::Registry::global().gauge("proc.peak_rss_kb").set(
          static_cast<double>(mem.peak_rss_kb));
    }
    session_.finish();
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

  obs::Session session_;
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
