// Bridge between explore-kind scenario specs and the explore library: turns
// a validated ParamSet into the fault Domain + pinned swarm experiment the
// exploration runs, and evaluates one schedule into the spec's objective.
// Lives in the scenario layer (not src/explore) because only this layer
// knows about ParamSets; dsa_explore stays a pure search library.
#pragma once

#include <cstdint>
#include <string>

#include "explore/explore.hpp"
#include "scenario/spec.hpp"
#include "swarm/swarm_sim.hpp"

namespace dsa::scenario {

/// Everything one explore job needs: the schedule space, the pinned swarm
/// run every schedule is injected into, and the ranking objective.
struct ExploreContext {
  explore::Domain domain;
  /// Swarm knobs with `faults` left empty — run_explore_schedule fills it
  /// per schedule. The seed is pinned: every schedule perturbs the *same*
  /// run, so objective differences are attributable to the faults alone.
  swarm::SwarmConfig config;
  swarm::ClientVariant a;
  swarm::ClientVariant b;
  std::string a_name;
  std::string b_name;  ///< resolved ("same" replaced by a_name)
  std::size_t count_a = 0;
  std::size_t total = 0;
  explore::Objective objective = explore::Objective::kMeanTime;
  double loss = 0.0;  ///< ambient message loss on every plan
};

/// Builds the context from a validated explore-kind ParamSet. Throws
/// std::invalid_argument on cross-field violations the per-param checks
/// cannot see: crash targets beyond the swarm size, a start-tick grid
/// reaching the horizon, an empty template vocabulary, or a schedule space
/// above Domain::kMaxSpace.
[[nodiscard]] ExploreContext explore_context(const ParamSet& params);

/// Runs the pinned swarm under one schedule's materialized FaultPlan.
[[nodiscard]] swarm::SwarmResult run_explore_schedule(
    const ExploreContext& ctx, const explore::Schedule& schedule);

/// The spec's objective value for one run (cap = the run's max_ticks).
[[nodiscard]] double explore_value(const ExploreContext& ctx,
                                   const swarm::SwarmResult& result);

}  // namespace dsa::scenario
