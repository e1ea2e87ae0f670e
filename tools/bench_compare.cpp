// bench_compare — diff two BENCH_<name>.json perf summaries (bench/common.hpp
// schema), or two directories of them, and fail when a bench's median wall
// time regressed past a threshold.
//
//   bench_compare <baseline> <candidate> [--threshold PCT]
//
// <baseline>/<candidate> are either single BENCH_*.json files or directories
// (every BENCH_*.json inside is matched by file name). Exit status:
//   0  no bench regressed more than the threshold
//   1  at least one regression past the threshold
//   2  usage / unreadable input
//
// CI's perf-smoke job runs this against the committed baselines in
// results/perf_baseline/ with --threshold 25 — wide enough for shared-runner
// noise, tight enough to catch a real slowdown.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/table_printer.hpp"

namespace {

namespace fs = std::filesystem;
using dsa::util::json::Value;

struct BenchSummary {
  std::string bench;
  double threads = 0.0;
  double repetitions = 0.0;
  double median_ms = 0.0;
  double p10_ms = 0.0;
  double p90_ms = 0.0;
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(stderr,
               "usage: bench_compare <baseline> <candidate> "
               "[--threshold PCT]\n\n"
               "Compare BENCH_*.json perf summaries (files or directories "
               "of them)\nand exit 1 when any bench's median wall time "
               "regressed by more\nthan PCT percent (default 10).\n");
  std::exit(2);
}

double number_field(const Value& object, const std::string& key,
                    const std::string& origin) {
  const Value* field = object.find(key);
  if (field == nullptr || field->type != Value::Type::kNumber) {
    throw std::runtime_error(origin + ": missing numeric \"" + key + "\"");
  }
  return field->number;
}

BenchSummary load_summary(const fs::path& path) {
  const Value root = dsa::util::json::parse_file(path);
  const std::string origin = path.string();
  if (root.type != Value::Type::kObject) {
    throw std::runtime_error(origin + ": not a JSON object");
  }
  const Value* type = root.find("type");
  if (type == nullptr || type->type != Value::Type::kString ||
      type->text != "bench") {
    throw std::runtime_error(origin + ": not a BENCH summary (type!=bench)");
  }
  const Value* bench = root.find("bench");
  if (bench == nullptr || bench->type != Value::Type::kString) {
    throw std::runtime_error(origin + ": missing \"bench\" name");
  }
  const Value* wall = root.find("wall_time_ms");
  if (wall == nullptr || wall->type != Value::Type::kObject) {
    throw std::runtime_error(origin + ": missing \"wall_time_ms\" object");
  }
  BenchSummary summary;
  summary.bench = bench->text;
  summary.threads = number_field(root, "threads", origin);
  summary.repetitions = number_field(root, "repetitions", origin);
  summary.median_ms = number_field(*wall, "median", origin);
  summary.p10_ms = number_field(*wall, "p10", origin);
  summary.p90_ms = number_field(*wall, "p90", origin);
  return summary;
}

/// File or directory -> summaries keyed by bench name.
std::map<std::string, BenchSummary> collect(const fs::path& path) {
  std::map<std::string, BenchSummary> summaries;
  if (fs::is_directory(path)) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(path)) {
      const std::string name = entry.path().filename().string();
      if (entry.is_regular_file() && name.rfind("BENCH_", 0) == 0 &&
          entry.path().extension() == ".json") {
        files.push_back(entry.path());
      }
    }
    std::sort(files.begin(), files.end());
    for (const auto& file : files) {
      const BenchSummary summary = load_summary(file);
      summaries[summary.bench] = summary;
    }
  } else if (fs::is_regular_file(path)) {
    const BenchSummary summary = load_summary(path);
    summaries[summary.bench] = summary;
  } else {
    throw std::runtime_error(path.string() + ": no such file or directory");
  }
  return summaries;
}

std::string fixed1(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positionals;
  double threshold = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) usage("--threshold needs a value");
      try {
        threshold = std::stod(argv[++i]);
      } catch (const std::exception&) {
        usage("--threshold must be a number");
      }
      if (threshold <= 0.0) usage("--threshold must be > 0");
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown flag " + arg);
    } else {
      positionals.push_back(arg);
    }
  }
  if (positionals.size() != 2) usage("need exactly two paths to compare");

  try {
    const auto baseline = collect(positionals[0]);
    const auto candidate = collect(positionals[1]);

    dsa::util::TablePrinter table(
        {"bench", "baseline (ms)", "candidate (ms)", "delta", "status"});
    std::size_t compared = 0;
    std::vector<std::string> regressions;
    for (const auto& [name, base] : baseline) {
      const auto it = candidate.find(name);
      if (it == candidate.end()) {
        table.add_row({name, fixed1(base.median_ms), "-", "-", "missing"});
        continue;
      }
      const BenchSummary& cand = it->second;
      ++compared;
      const double delta_pct =
          base.median_ms > 0.0
              ? 100.0 * (cand.median_ms - base.median_ms) / base.median_ms
              : 0.0;
      std::string status = "ok";
      if (delta_pct > threshold) {
        status = "REGRESSION";
        regressions.push_back(name);
      } else if (delta_pct < -threshold) {
        status = "improved";
      }
      // A different thread count means the numbers measure different
      // work — flag instead of judging.
      if (base.threads != cand.threads) {
        status = "incomparable (threads differ)";
      }
      table.add_row({name, fixed1(base.median_ms), fixed1(cand.median_ms),
                     fixed1(delta_pct) + "%", status});
    }
    for (const auto& [name, cand] : candidate) {
      if (baseline.find(name) == baseline.end()) {
        table.add_row({name, "-", fixed1(cand.median_ms), "-", "new"});
      }
    }
    table.print(std::cout);
    std::printf("\n%zu bench(es) compared, threshold %.1f%%\n", compared,
                threshold);
    if (!regressions.empty()) {
      std::printf("REGRESSED:");
      for (const auto& name : regressions) std::printf(" %s", name.c_str());
      std::printf("\n");
      return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
