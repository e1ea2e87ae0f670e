// The DSA_* scale knobs as a `sweep` scenario: the one reader of these
// variables, shared by `dsa_cli sweep` and the figure benches.
//
//   DSA_ROUNDS          rounds per simulation       (default 120; paper 500)
//   DSA_POPULATION      peers per simulation        (default 50;  paper 50)
//   DSA_PERF_RUNS       homogeneous runs/protocol   (default 3;   paper 100)
//   DSA_ENCOUNTER_RUNS  runs per protocol pair      (default 1;   paper 10)
//   DSA_OPPONENTS       opponents sampled/protocol  (default 24;  paper: all)
//   DSA_SEED            master seed                 (default 2011)
//   DSA_FULL=1          shorthand for the paper-fidelity values above
//   DSA_RESULTS         dataset path (default results/pra_results.csv)
//   DSA_THREADS         jobs run at once            (default: hardware)
//
// The knobs become JSON text that parse_scenario_text validates, so the
// sweep kind's parameter table range-checks every value. An unset knob
// takes the table's default, which makes the default spec's fingerprint
// that of examples/scenarios/pra_sweep.json, the committed dataset's
// provenance. The spec is named after the output's stem; the name is not
// part of the fingerprint.
#pragma once

#include <filesystem>
#include <stdexcept>

#include "scenario/spec.hpp"

namespace dsa::scenario {

/// A knob that is unreadable, out of range, or no longer read. what() is
/// one line that names the DSA_* variable.
struct KnobError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct SweepKnobs {
  ScenarioSpec spec;        // kind "sweep" over all protocols, chunk 256
  std::size_t threads = 0;  // RunOptions::threads; 0 = hardware
};

/// Reads the knobs above. A non-empty `output` replaces DSA_RESULTS.
/// Throws KnobError.
[[nodiscard]] SweepKnobs sweep_knobs_from_environment(
    const std::filesystem::path& output = {});

}  // namespace dsa::scenario
