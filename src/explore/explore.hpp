// Bounded worst-case search over fault schedules (robustness tooling for the
// Sec. 5 swarm substrate). The design-space message of the paper is that a
// protocol's quality is a property of a *space* of conditions, not of one
// run; this layer applies the same lens to faults: instead of sampling
// FaultSpec intensities, it enumerates every schedule a small fault
// vocabulary can produce and ranks them by how badly they hurt the swarm.
//
// The space is declared as a Domain: a finite set of fault *templates*
// (crash of leecher l for d ticks; seeder outage of length d) and a finite
// grid of candidate start ticks. A Schedule picks a subset of at most
// `max_faults` templates (delta-bounding) and assigns each a start tick.
// The full space therefore has
//
//     sum_{d=0}^{k} C(m, d) * g^d        (m templates, g ticks, k max faults)
//
// schedules — the closed-form oracle the tests check enumeration against.
//
// Enumeration is an iterative-deepening DFS: depth 0 (the fault-free
// baseline) first, then all 1-fault schedules, then 2-fault, ... Every
// schedule has a stable *ordinal* — its position in this fixed order — so
// the space can be chunked into [begin, end) ordinal ranges that different
// workers (or a resumed run) walk independently with bitwise-identical
// results.
//
// Partial-order pruning: two assignments are independent when they strike
// different peers and their tick windows stay disjoint whether or not the
// start ticks are swapped — such a pair commutes through the swarm dynamics,
// so the schedule and its tick-swapped twin explore the same behavior. The
// walker visits only the canonical twin (earlier template index gets the
// earlier tick) and counts the rest as pruned without simulating them;
// visited + pruned always equals the closed-form total.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "swarm/swarm_sim.hpp"

namespace dsa::explore {

/// One reusable fault shape. Templates are the alphabet of the search; a
/// schedule instantiates a template by giving it a start tick.
struct FaultTemplate {
  enum class Kind : std::uint8_t { kCrash = 0, kOutage = 1 };

  Kind kind = Kind::kCrash;
  /// Crash target (input-order leecher index); ignored for outages, which
  /// always strike the seeder.
  std::size_t leecher = 0;
  /// Crash downtime / outage window length, in ticks. Must be > 0.
  std::size_t duration = 1;
};

/// Peer footprint of a template: 0 = seeder, leecher l occupies l + 1 —
/// the same indexing the swarm engine (and kFault events) use.
[[nodiscard]] std::size_t footprint_peer(const FaultTemplate& tmpl) noexcept;

/// The declared, finite schedule space.
struct Domain {
  std::vector<FaultTemplate> templates;
  /// Candidate start ticks, strictly ascending.
  std::vector<std::size_t> ticks;
  /// Delta bound: schedules use at most this many simultaneous faults.
  std::size_t max_faults = 2;

  /// Rejects malformed domains with std::invalid_argument naming the field:
  /// no templates, empty or non-ascending tick grid, zero durations, crash
  /// targets outside [0, leecher_count), start ticks at or past `max_ticks`
  /// (when > 0), and spaces larger than kMaxSpace schedules.
  void validate(std::size_t leecher_count, std::size_t max_ticks = 0) const;

  /// Largest schedule space a domain may declare (keeps one exploration an
  /// overnight job, not an open-ended one).
  static constexpr std::uint64_t kMaxSpace = 10'000'000;
};

/// One scheduled fault: templates[tmpl] starting at ticks[tick_index].
struct Assignment {
  std::size_t tmpl = 0;
  std::size_t tick_index = 0;
};

/// A point of the space: assignments with strictly ascending `tmpl` (a
/// template fires at most once per schedule). Empty = fault-free baseline.
using Schedule = std::vector<Assignment>;

/// Closed-form size of the schedule space (the oracle).
[[nodiscard]] std::uint64_t count_space(const Domain& domain);

/// Walk bookkeeping. For any partition of [0, count_space) into ranges,
/// the per-range counts sum to: total == count_space, visited + pruned ==
/// total.
struct SpaceCount {
  std::uint64_t total = 0;    ///< ordinals covered by the walked range
  std::uint64_t visited = 0;  ///< canonical schedules handed to the callback
  std::uint64_t pruned = 0;   ///< order-equivalent twins skipped unsimulated
};

using ScheduleFn =
    std::function<void(std::uint64_t ordinal, const Schedule& schedule)>;

/// Walks ordinals [begin, end) (clamped to the space) in ordinal order,
/// invoking `fn` for every canonical schedule. Deterministic in (domain,
/// begin, end) alone — the chunking/resume primitive.
SpaceCount for_schedules_in(const Domain& domain, std::uint64_t begin,
                            std::uint64_t end, const ScheduleFn& fn);

/// for_schedules_in over the whole space.
SpaceCount for_each_schedule(const Domain& domain, const ScheduleFn& fn);

/// Compact human/CSV form, e.g. "crash:l2@81x60;outage@121x80" (';'-joined,
/// "none" for the empty schedule). Stable — reports and manifests key on it.
[[nodiscard]] std::string describe(const Domain& domain,
                                   const Schedule& schedule);

/// Expands a schedule into a concrete FaultPlan: crashes become CrashEvents,
/// outages become SeederOutage windows (overlapping windows are unioned —
/// the seeder-down predicate is a union anyway), and the ambient loss
/// rides along on every plan of the exploration.
[[nodiscard]] fault::FaultPlan materialize(const Domain& domain,
                                           const Schedule& schedule,
                                           double message_loss);

/// What "worst" means. All objectives are higher-is-worse.
enum class Objective : std::uint8_t {
  kMeanTime = 0,   ///< mean leecher completion time (unfinished = cap)
  kMaxTime = 1,    ///< slowest leecher (unfinished = cap)
  kStallTicks = 2, ///< ticks the swarm moved no bytes while incomplete
};

[[nodiscard]] const char* to_string(Objective objective) noexcept;

/// Parses "mean_time" | "max_time" | "stall_ticks"; throws
/// std::invalid_argument otherwise.
[[nodiscard]] Objective parse_objective(const std::string& text);

/// Scores one run under an objective. `cap_seconds` stands in for leechers
/// that never finished (use the run's max_ticks).
[[nodiscard]] double objective_value(Objective objective,
                                     const swarm::SwarmResult& result,
                                     double cap_seconds);

/// Evaluates a candidate schedule; returns its objective value.
using EvaluateFn = std::function<double(const Schedule& schedule)>;

/// Outcome of shrinking: the (locally) minimal schedule still reaching the
/// target, its value, and how many evaluations the search spent.
struct ShrinkResult {
  Schedule schedule;
  double value = 0.0;
  std::size_t evaluations = 0;
};

/// Delta-debugging-style greedy minimization: repeatedly drop the leftmost
/// single assignment whose removal keeps `evaluate` at or above
/// `target_value`, restarting the scan after every successful drop. The
/// result is 1-minimal — removing any one remaining assignment falls below
/// the target — which is what makes a committed counterexample readable.
ShrinkResult shrink(const Schedule& worst, double target_value,
                    const EvaluateFn& evaluate);

}  // namespace dsa::explore
