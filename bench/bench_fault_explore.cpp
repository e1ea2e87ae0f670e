// Coverage experiment for the fault-schedule explorer (src/explore): the
// bounded worst-case search covers its schedule space exactly, in two
// passes — pure enumeration (walking ordinals with partial-order pruning,
// no simulation) and full exploration (every canonical schedule simulated
// through the pinned swarm run, the scenario runner's hot path). Both
// passes print their throughput; perfbench's swarm-faults workload is the
// timed benchmark of the simulation they share.
//
// The enumeration pass walks a deliberately larger domain than any committed
// spec (8 templates x 12 ticks, <= 3 simultaneous faults: 100k+ schedules) so
// the pruning ratio is measured where pruning actually pays. The simulation
// pass runs the committed example spec's space (127 schedules, 20 leechers)
// end to end, which is what `dsa_cli explore` spends its time on.
#include <chrono>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "explore/explore.hpp"
#include "scenario/explore_kind.hpp"
#include "scenario/plan.hpp"
#include "scenario/spec.hpp"

namespace {

using namespace dsa;

/// The committed example spec's parameters (examples/scenarios/
/// fault_explore.json) without the file dependency: 3 templates x 6 ticks,
/// <= 2 simultaneous faults = 127 schedules over a 20-leecher swarm.
scenario::ExploreContext example_context() {
  const std::string json = R"({
    "scenario": "bench-fault-explore", "kind": "explore",
    "output": "unused.csv", "params": {
      "a": "bt", "total": 20, "seed": 500, "max_ticks": 2000,
      "crash_leechers": 2, "crash_downtime": 60,
      "outage_count": 1, "outage_length": 80,
      "tick_start": 1, "tick_step": 40, "tick_count": 6,
      "max_faults": 2, "objective": "mean_time"}})";
  const scenario::Plan plan =
      scenario::expand_plan(scenario::parse_scenario_text(json));
  return scenario::explore_context(plan.jobs.front().params);
}

/// Enumeration-only domain: large enough that the walk, not setup, dominates.
explore::Domain enumeration_domain() {
  explore::Domain domain;
  for (std::size_t l = 0; l < 6; ++l) {
    domain.templates.push_back(
        {explore::FaultTemplate::Kind::kCrash, l, /*duration=*/60});
  }
  domain.templates.push_back({explore::FaultTemplate::Kind::kOutage, 0, 80});
  domain.templates.push_back({explore::FaultTemplate::Kind::kOutage, 0, 120});
  for (std::size_t i = 0; i < 12; ++i) domain.ticks.push_back(1 + 40 * i);
  domain.max_faults = 3;
  return domain;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  bench::MetricsScope metrics_scope("fault_explore");
  bench::banner("BENCH fault_explore",
                "design-space lens on robustness: the bounded fault-schedule "
                "search covers its declared space exactly (visited + pruned "
                "== closed form) at throughput that keeps full exploration "
                "an interactive-scale job");

  // --- enumeration pass (no simulation) ---------------------------------
  const explore::Domain domain = enumeration_domain();
  const std::uint64_t space = explore::count_space(domain);
  const auto enum_start = std::chrono::steady_clock::now();
  std::uint64_t callbacks = 0;
  const explore::SpaceCount counts = explore::for_each_schedule(
      domain,
      [&callbacks](std::uint64_t, const explore::Schedule&) { ++callbacks; });
  const double enum_seconds = seconds_since(enum_start);
  const bool counts_ok = counts.total == space &&
                         counts.visited + counts.pruned == counts.total &&
                         counts.visited == callbacks;
  const double pruning_ratio =
      counts.total > 0
          ? static_cast<double>(counts.pruned) /
                static_cast<double>(counts.total)
          : 0.0;
  const double enum_rate =
      enum_seconds > 0.0 ? static_cast<double>(counts.total) / enum_seconds
                         : 0.0;
  std::printf("enumeration: %llu schedules (%llu visited, %llu pruned, "
              "%.1f%% pruned)  %.3f s  %.0f schedules/sec\n",
              static_cast<unsigned long long>(counts.total),
              static_cast<unsigned long long>(counts.visited),
              static_cast<unsigned long long>(counts.pruned),
              100.0 * pruning_ratio, enum_seconds, enum_rate);

  // --- simulation pass (the example spec, end to end) -------------------
  const scenario::ExploreContext ctx = example_context();
  const std::uint64_t sim_space = explore::count_space(ctx.domain);
  std::uint64_t simulated = 0;
  double worst = 0.0;
  const auto sim_start = std::chrono::steady_clock::now();
  explore::for_each_schedule(
      ctx.domain, [&](std::uint64_t, const explore::Schedule& schedule) {
        const double value = scenario::explore_value(
            ctx, scenario::run_explore_schedule(ctx, schedule));
        if (value > worst) worst = value;
        ++simulated;
      });
  const double sim_seconds = seconds_since(sim_start);
  const double sim_rate =
      sim_seconds > 0.0 ? static_cast<double>(simulated) / sim_seconds : 0.0;
  std::printf("simulation:  %llu-schedule space, worst %s = %.2f  %.3f s  "
              "%.1f schedules/sec\n",
              static_cast<unsigned long long>(sim_space),
              explore::to_string(ctx.objective), worst, sim_seconds, sim_rate);

  bench::verdict(counts_ok && pruning_ratio > 0.0 && worst > 0.0,
                 "exact space coverage (visited + pruned == closed form), "
                 "nonzero pruning, and a worst schedule strictly above zero");
  return counts_ok ? 0 : 1;
}
