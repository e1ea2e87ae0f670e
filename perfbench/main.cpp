// perfbench: runs one workload and prints, as its last stdout line, one
// JSON object with the keys correct, attempted, failed and metrics.
//
//   perfbench --workload pra-sweep|swarm-faults|serve-mix --seed N
//             --seconds S --trace 0|1 [--corrupt CHECK]
//
// Run it from the root of a checkout: scratch files and traces go under
// .bench_build/perfbench.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit code 0 when every output check held, 1 when one failed, 2 on a bad
// command line or an error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unistd.h>

#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Every per-layer metric, in BENCHMARK.json order. A workload reports the
/// layers it calls; the rest read 0 on that workload.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"host.ref_ms", "ms"},
    {"swarming.sim_ms", "ms"},
    {"swarming.round_us", "us"},
    {"swarming.sims", "count"},
    {"swarming.shuffle_us", "us"},
    {"core.quantify_ms", "ms"},
    {"core.engine_build_ms", "ms"},
    {"util.pool_busy_frac", "frac"},
    {"util.parallel_for_us", "us"},
    {"util.json_parse_us", "us"},
    {"util.connect_ping_us", "us"},
    {"swarm.run_ms", "ms"},
    {"swarm.tick_us", "us"},
    {"swarm.ticks", "count"},
    {"fault.plan_us", "us"},
    {"fault.messages_lost", "count"},
    {"fault.retries", "count"},
    {"scenario.parse_us", "us"},
    {"scenario.expand_us", "us"},
    {"scenario.merge_us", "us"},
    {"scenario.execute_ms", "ms"},
    {"scenario.manifest_load_us", "us"},
    {"serve.canonical_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.insert_us", "us"},
    {"serve.store_load_ms", "ms"},
    {"serve.hit_ms", "ms"},
    {"serve.miss_ms", "ms"},
    {"serve.hit_ratio", "frac"},
    {"serve.rss_per_conn_kb", "kB"},
    {"residual_frac", "frac"},
    {"trace_overhead_frac", "frac"},
};

/// Home of the per-run temporary directory and the trace files, relative to
/// the checkout root the harness runs from (next to run.py's build tree).
const std::filesystem::path kOutDir = ".bench_build/perfbench";

/// Names accepted by --corrupt, one per output check.
const std::vector<std::string> kChecks = {
    "pra.grid",       "pra.capacity",       "pra.serial",
    "swarm.complete", "swarm.conservation", "swarm.file",
    "swarm.zero_plan", "serve.repeat",      "serve.body",
    "serve.counters",
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "pra-sweep|swarm-faults|serve-mix --seed N --seconds S "
               "--trace 0|1 [--corrupt CHECK]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--corrupt") {
        if (std::find(kChecks.begin(), kChecks.end(), value) ==
            kChecks.end()) {
          usage("unknown check '" + value + "' for --corrupt");
        }
        options.corrupt = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

/// The program's observability layers read DSA_* variables; the benchmark
/// measures the program with all of them off.
void clear_dsa_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    if (std::strncmp(*entry, "DSA_", 4) == 0) {
      const char* eq = std::strchr(*entry, '=');
      names.emplace_back(*entry, eq != nullptr ? eq - *entry : 0);
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out + "}";
}

int run(const Options& options) {
  RefKernel ref;
  Outcome outcome;
  {
    TempDir tmp(kOutDir / "tmp");
    if (options.workload == "pra-sweep") {
      outcome = run_pra_sweep(options, ref);
    } else if (options.workload == "swarm-faults") {
      outcome = run_swarm_faults(options, ref);
    } else if (options.workload == "serve-mix") {
      outcome = run_serve_mix(options, ref, tmp.path());
    } else {
      usage("unknown workload " + options.workload);
    }
  }

  std::vector<Metric> per_layer;
  for (const auto& [name, unit] : kPerLayer) {
    double value = 0.0;
    for (const Metric& m : outcome.per_layer) {
      if (m.name == name) value = m.value;
    }
    per_layer.push_back({name, value, unit});
  }
  std::printf("workload %s, seed %llu, %.3g s per run, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  print_metrics("end-to-end (untraced slices):", outcome.end_to_end);
  std::printf("set-up samples (s):");
  for (const double s : outcome.setup_samples_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (options.trace) {
    print_metrics("per-layer (traced slices; 0 = layer not called here):",
                  per_layer);
    const std::filesystem::path trace_path =
        kOutDir / "traces" /
        (options.workload + "-seed" + std::to_string(options.seed) +
         ".trace.json");
    if (SpanLog::global().write_chrome_trace(trace_path)) {
      std::printf("spans written to %s\n", trace_path.string().c_str());
    }
  }
  for (const std::string& line : outcome.check_failures) {
    std::printf("CHECK FAILED: %s\n", line.c_str());
  }
  const bool correct = outcome.check_failures.empty() && outcome.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", outcome.attempted, outcome.failed,
      json_metrics(options.trace ? per_layer : outcome.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::clear_dsa_environment();
  const perfbench::Options options = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
