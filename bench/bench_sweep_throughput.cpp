// Throughput harness for the PRA sweep's hot path: runs the same flattened
// quantify() batch on the dense oracle (the seed implementation's round
// model, kept test-side in tests/oracle) and on the sparse production engine,
// on the same machine with the same knobs, and emits machine-readable
// before/after numbers to results/BENCH_pra_sweep.json so future changes
// have a perf trajectory.
//
// The measured batch strides the full 3270-protocol space (SubspaceModel over
// ids 0, S, 2S, ...) rather than taking a contiguous prefix: protocol ids
// enumerate the design space lexicographically, so a prefix is one corner of
// it (small k, no strangers) and badly misrepresents sweep cost.
//
// The sparse engine's advantage grows with population (the terms it removes
// are the O(n^2) ones), so alongside the default-scale sweep the harness
// measures a per-simulation population-scaling series on both engines.
//
// JSON schema (one object):
//   bench            "pra_sweep_throughput"
//   threads          worker threads used
//   knobs            { protocols, stride, rounds, population,
//                      performance_runs, encounter_runs, opponents, seed }
//   modes            [ { engine, simulations, wall_seconds, sims_per_sec }, … ]
//                    (dense first = before, then sparse)
//   speedup_sparse_vs_dense   sims_per_sec ratio at the default population
//   scaling          [ { population, dense_ms_per_sim, sparse_ms_per_sim,
//                        speedup, identical }, … ]
//   outcomes_identical        quantify() results bitwise-equal across engines
//   peak_rss_kb      getrusage peak resident set after all passes
//
// Knobs: the DSA_* scale variables (see scenario/knobs.hpp) plus
//   DSA_BENCH_PROTOCOLS  protocols in the measured batch (default 64)
//   DSA_BENCH_JSON       output path (default results/BENCH_pra_sweep.json)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "oracle/dense_engine.hpp"
#include "swarming/dsa_model.hpp"
#include "scenario/exec.hpp"
#include "util/env.hpp"
#include "util/fs.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dsa;

std::vector<std::uint32_t> strided_members(std::uint32_t count) {
  const std::uint32_t stride = swarming::kProtocolCount / count;
  std::vector<std::uint32_t> members;
  members.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) members.push_back(i * stride);
  return members;
}

struct ModeResult {
  std::string engine;
  std::size_t simulations = 0;
  double wall_seconds = 0.0;
  double sims_per_sec = 0.0;
  std::vector<core::ProtocolMetrics> metrics;
};

ModeResult run_mode(const core::EncounterModel& model, const char* name,
                    const core::PraConfig& pra,
                    const std::vector<std::uint32_t>& members,
                    util::ThreadPool& pool) {
  core::SubspaceModel subspace(model, members);
  core::PraEngine engine_runner(subspace, pra, &pool);

  ModeResult result;
  result.engine = name;
  const std::size_t in_space = members.size();
  const std::size_t opponents =
      pra.opponent_sample > 0 && pra.opponent_sample < in_space - 1
          ? pra.opponent_sample
          : in_space - 1;
  result.simulations =
      in_space * (pra.performance_runs + 2 * opponents * pra.encounter_runs);

  const auto start = std::chrono::steady_clock::now();
  result.metrics =
      engine_runner.quantify(0, static_cast<std::uint32_t>(in_space));
  const auto stop = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();
  result.sims_per_sec = result.wall_seconds > 0.0
                            ? static_cast<double>(result.simulations) /
                                  result.wall_seconds
                            : 0.0;
  std::printf("%-6s  %8zu sims  %8.2f s  %10.1f sims/sec\n", name,
              result.simulations, result.wall_seconds, result.sims_per_sec);
  return result;
}

bool metrics_identical(const std::vector<core::ProtocolMetrics>& a,
                       const std::vector<core::ProtocolMetrics>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].raw_performance != b[i].raw_performance ||
        a[i].robustness != b[i].robustness ||
        a[i].aggressiveness != b[i].aggressiveness) {
      return false;
    }
  }
  return true;
}

struct ScalePoint {
  std::size_t population = 0;
  double dense_ms = 0.0;
  double sparse_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

// Per-simulation cost of one default protocol at growing swarm sizes. The
// sweep above fixes the population at the paper's default; this series shows
// where the removed O(n^2) terms start to dominate.
std::vector<ScalePoint> scaling_series(std::size_t rounds) {
  const auto dist = swarming::BandwidthDistribution::piatek();
  std::vector<ScalePoint> series;
  for (const std::size_t n : {std::size_t{50}, std::size_t{100},
                              std::size_t{200}, std::size_t{400}}) {
    const std::vector<swarming::ProtocolSpec> population(
        n, swarming::bittorrent_protocol());
    const std::vector<double> capacities = dist.stratified_sample(n);
    swarming::SimulationConfig config;
    config.rounds = rounds;
    config.seed = 42;

    ScalePoint point;
    point.population = n;
    constexpr int kReps = 3;
    std::vector<double> dense_throughput;
    std::vector<double> sparse_throughput;
    for (const bool dense : {true, false}) {
      const auto start = std::chrono::steady_clock::now();
      for (int rep = 0; rep < kReps; ++rep) {
        auto outcome =
            dense ? swarming::oracle::simulate_rounds_dense(
                        population, capacities, config, &dist)
                  : swarming::simulate_rounds(population, capacities, config,
                                              &dist);
        if (rep == 0) {
          (dense ? dense_throughput : sparse_throughput) =
              std::move(outcome.peer_throughput);
        }
      }
      const auto stop = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration<double, std::milli>(stop - start).count() /
          kReps;
      (dense ? point.dense_ms : point.sparse_ms) = ms;
    }
    point.speedup = point.sparse_ms > 0.0 ? point.dense_ms / point.sparse_ms
                                          : 0.0;
    point.identical = dense_throughput == sparse_throughput;
    std::printf("  n=%-4zu  dense %8.2f ms/sim  sparse %8.2f ms/sim  "
                "%5.2fx  %s\n",
                point.population, point.dense_ms, point.sparse_ms,
                point.speedup, point.identical ? "identical" : "MISMATCH");
    series.push_back(point);
  }
  return series;
}

}  // namespace

int main() {
  ::dsa::bench::MetricsScope metrics_scope("sweep_throughput");
  bench::runtime_banner();
  const scenario::SweepKnobs knobs = bench::sweep_knobs();
  const scenario::ParamSet params = knobs.spec.scalar_params();
  const core::PraConfig pra = scenario::sweep_pra_config(params);
  const auto rounds = static_cast<std::size_t>(params.get_int("rounds"));
  const auto protocols = static_cast<std::uint32_t>(std::min<long long>(
      util::env_int("DSA_BENCH_PROTOCOLS", 64), swarming::kProtocolCount));
  const std::string json_path =
      util::env_string("DSA_BENCH_JSON", "results/BENCH_pra_sweep.json");
  util::ThreadPool pool(knobs.threads == 0
                            ? util::ThreadPool::default_thread_count()
                            : knobs.threads);

  bench::banner("BENCH pra_sweep_throughput",
                "engineering target (ROADMAP): the PRA sweep runs as fast as "
                "the hardware allows; the sparse engine vs the dense seed "
                "path, bitwise-identical results");
  const std::vector<std::uint32_t> members = strided_members(protocols);
  std::printf("protocols in batch: %u (stride %u over the %u-protocol space)"
              "   threads: %zu\n\n",
              protocols, swarming::kProtocolCount / protocols,
              swarming::kProtocolCount, pool.thread_count());

  // Dense first (the "before"/seed implementation), then sparse.
  swarming::SimulationConfig sim;
  sim.rounds = rounds;
  const swarming::oracle::DenseSwarmingModel dense_model(
      sim, swarming::BandwidthDistribution::piatek());
  const swarming::SwarmingModel sparse_model(
      sim, swarming::BandwidthDistribution::piatek());
  const ModeResult dense =
      run_mode(dense_model, "dense", pra, members, pool);
  const ModeResult sparse =
      run_mode(sparse_model, "sparse", pra, members, pool);

  const bool identical = metrics_identical(dense.metrics, sparse.metrics);
  const double speedup = dense.sims_per_sec > 0.0
                             ? sparse.sims_per_sec / dense.sims_per_sec
                             : 0.0;

  std::printf("\nper-simulation cost vs population (%zu rounds):\n",
              rounds);
  const std::vector<ScalePoint> scaling = scaling_series(rounds);
  bool scaling_identical = true;
  double best_scaling_speedup = 0.0;
  for (const ScalePoint& point : scaling) {
    scaling_identical = scaling_identical && point.identical;
    best_scaling_speedup = std::max(best_scaling_speedup, point.speedup);
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  std::printf("\nsweep speedup (sparse vs dense, default population): %.2fx\n",
              speedup);
  std::printf("best scaling-series speedup: %.2fx\n", best_scaling_speedup);
  std::printf("outcomes identical: %s\n",
              identical && scaling_identical ? "yes" : "NO");
  std::printf("peak RSS: %ld KB\n", usage.ru_maxrss);
  bench::verdict(identical && scaling_identical &&
                     (speedup >= 3.0 || best_scaling_speedup >= 3.0),
                 "bitwise-identical metrics and >= 3x over the dense seed "
                 "path (default-scale sweep or the population series)");

  // Rendered to a string and atomically replaced on disk, so a crash or
  // concurrent reader never sees a truncated results file.
  std::string json;
  const auto append = [&json](const char* fmt, auto... args) {
    char buffer[512];
    std::snprintf(buffer, sizeof(buffer), fmt, args...);
    json += buffer;
  };
  append("{\n");
  append("  \"bench\": \"pra_sweep_throughput\",\n");
  append("  \"threads\": %zu,\n", pool.thread_count());
  append(
      "  \"knobs\": {\"protocols\": %u, \"stride\": %u, "
      "\"rounds\": %zu, \"population\": %zu, "
      "\"performance_runs\": %zu, \"encounter_runs\": %zu, "
      "\"opponents\": %zu, \"seed\": %llu},\n",
      protocols, swarming::kProtocolCount / protocols, rounds,
      pra.population, pra.performance_runs, pra.encounter_runs,
      pra.opponent_sample, static_cast<unsigned long long>(pra.seed));
  append("  \"modes\": [\n");
  for (const ModeResult* mode : {&dense, &sparse}) {
    append(
        "    {\"engine\": \"%s\", \"simulations\": %zu, "
        "\"wall_seconds\": %.6f, \"sims_per_sec\": %.1f}%s\n",
        mode->engine.c_str(), mode->simulations, mode->wall_seconds,
        mode->sims_per_sec, mode == &sparse ? "" : ",");
  }
  append("  ],\n");
  append("  \"speedup_sparse_vs_dense\": %.3f,\n", speedup);
  append("  \"scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalePoint& point = scaling[i];
    append(
        "    {\"population\": %zu, \"dense_ms_per_sim\": %.3f, "
        "\"sparse_ms_per_sim\": %.3f, \"speedup\": %.3f, "
        "\"identical\": %s}%s\n",
        point.population, point.dense_ms, point.sparse_ms, point.speedup,
        point.identical ? "true" : "false",
        i + 1 < scaling.size() ? "," : "");
  }
  append("  ],\n");
  append("  \"outcomes_identical\": %s,\n",
         identical && scaling_identical ? "true" : "false");
  append("  \"peak_rss_kb\": %ld\n", usage.ru_maxrss);
  append("}\n");
  util::atomic_write(json_path, json);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return identical && scaling_identical ? 0 : 1;
}
