// Minimal reproducing counterexample: the artifact the explorer leaves
// behind. It bundles a (shrunk) FaultPlan with everything needed to replay
// the exact run that exhibited the worst objective value — the mixed-swarm
// composition, the swarm knobs, the seed — plus search provenance (which
// objective, the value reached, the fault-free baseline for contrast).
//
// The JSON document is a superset of the bare fault-plan format, so one
// loader serves both `dsa_cli swarm --fault-file <bare plan>` and
// `--fault-file <counterexample>`:
//
//   {"type":"fault_plan","schema":2, <fault-plan fields>,
//    "swarm":{"a":"bt","b":"same","count_a":10,"total":20,"seed":500,
//             "piece_count":40,"piece_size_kb":64,
//             "seeder_capacity_kbps":128,"max_ticks":20000},
//    "search":{"objective":"mean_time","value":812.5,"baseline":600.25,
//              "schedule":"crash:l2@81x60"}}
//
// Replay is bitwise: run_counterexample() builds the same SwarmConfig the
// explorer used, so re-running a committed counterexample reproduces the
// recorded value exactly (ReplayIsBitwise test).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "fault/fault_plan.hpp"
#include "swarm/swarm_sim.hpp"

namespace dsa::explore {

struct Counterexample {
  fault::FaultPlan plan;

  // Swarm composition and knobs (the explorer's pinned experiment).
  std::string a = "bt";
  std::string b = "same";  ///< "same" = everyone runs `a`
  std::size_t count_a = 10;
  std::size_t total = 20;
  std::uint64_t seed = 500;
  std::size_t piece_count = 40;
  double piece_size_kb = 64.0;
  double seeder_capacity_kbps = 128.0;
  std::size_t max_ticks = 20000;

  // Search provenance.
  std::string objective = "mean_time";
  double value = 0.0;     ///< objective value of the plan
  double baseline = 0.0;  ///< objective value of the fault-free run
  std::string schedule;   ///< explore::describe() form, for humans
};

/// Maps "bt"|"birds"|"loyal"|"sorts"|"random" to a variant; throws
/// std::invalid_argument otherwise (same vocabulary as scenario specs).
[[nodiscard]] swarm::ClientVariant client_from_name(const std::string& name);

/// The newline-terminated JSON document above.
[[nodiscard]] std::string to_json(const Counterexample& ce);

/// Parses either a counterexample or a bare fault-plan document (missing
/// "swarm"/"search" blocks keep their defaults). Strict keys; the embedded
/// plan is validated against the document's own swarm composition.
[[nodiscard]] Counterexample load_counterexample(
    const std::filesystem::path& path);

/// to_json() via util::atomic_write.
void save_counterexample(const std::filesystem::path& path,
                         const Counterexample& ce);

/// The exact SwarmConfig the replay (and the original search) uses.
[[nodiscard]] swarm::SwarmConfig swarm_config(const Counterexample& ce);

/// Replays the counterexample run (run_mixed_swarm with the stored
/// composition, seed, and plan).
[[nodiscard]] swarm::SwarmResult run_counterexample(const Counterexample& ce);

}  // namespace dsa::explore
