#include "scenario/knobs.hpp"

#include <cstdlib>
#include <string>

#include "util/env.hpp"
#include "util/json.hpp"

namespace dsa::scenario {

namespace {

/// One scale knob: its variable, the sweep parameter it sets, and the
/// paper-fidelity value DSA_FULL gives it (-1: the quick default stays).
struct Knob {
  const char* variable;
  const char* param;
  std::int64_t full;
};

constexpr Knob kKnobs[] = {
    {"DSA_ROUNDS", "rounds", 500},
    {"DSA_POPULATION", "population", -1},
    {"DSA_PERF_RUNS", "performance_runs", 100},
    {"DSA_ENCOUNTER_RUNS", "encounter_runs", 10},
    {"DSA_OPPONENTS", "opponent_sample", 0},
    {"DSA_SEED", "seed", -1},
};

/// env_int with its error re-thrown as a KnobError.
std::int64_t knob_int(const char* variable, std::int64_t fallback) {
  try {
    return util::env_int(variable, fallback);
  } catch (const std::runtime_error& error) {
    throw KnobError(error.what());
  }
}

/// Turns the spec table's error for `$.params.<param>` into one naming the
/// knob that set it (the DSA_FULL values are all in range).
[[noreturn]] void rethrow_for_knob(const util::json::SchemaError& error) {
  const std::string what = error.what();
  for (const Knob& knob : kKnobs) {
    const std::string path = std::string("$.params.") + knob.param + ": ";
    const std::size_t at = what.find(path);
    if (at == std::string::npos) continue;
    throw KnobError(std::string(knob.variable) + "=" +
                    util::env_string(knob.variable, "") + " is invalid: " +
                    what.substr(at + path.size()));
  }
  throw KnobError(what);
}

}  // namespace

SweepKnobs sweep_knobs_from_environment(const std::filesystem::path& output) {
  if (std::getenv("DSA_CHECKPOINT") != nullptr) {
    throw KnobError(
        "DSA_CHECKPOINT is no longer read; a killed sweep resumes from its "
        "scenario manifest");
  }
  const bool full = util::env_flag("DSA_FULL");
  const std::filesystem::path path =
      !output.empty() ? output
                      : std::filesystem::path(util::env_string(
                            "DSA_RESULTS", "results/pra_results.csv"));
  std::string name = path.stem().string();
  if (name.empty()) name = "sweep";

  std::string params;
  for (const Knob& knob : kKnobs) {
    const std::int64_t fallback = full ? knob.full : -1;
    const std::int64_t value = knob_int(knob.variable, fallback);
    if (value < 0) continue;  // unset: the spec table's default
    if (!params.empty()) params += ", ";
    params += std::string("\"") + knob.param + "\": " + std::to_string(value);
  }
  const std::string text =
      "{\"scenario\": \"" + util::json::escape(name) +
      "\", \"kind\": \"sweep\", \"output\": \"" +
      util::json::escape(path.string()) + "\", \"chunk\": 256, \"params\": {" +
      params + "}}";

  SweepKnobs knobs;
  try {
    knobs.spec = parse_scenario_text(text, "DSA_* knobs");
  } catch (const util::json::SchemaError& error) {
    rethrow_for_knob(error);
  }
  knobs.threads = static_cast<std::size_t>(knob_int("DSA_THREADS", 0));
  return knobs;
}

}  // namespace dsa::scenario
