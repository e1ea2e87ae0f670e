// Deterministic fault schedules for the piece-level swarm simulator
// (Sec. 5 validation substrate). A FaultPlan is a value object describing
// every adverse event of one run — per-link message loss, leecher
// crash/rejoin events, and seeder outage windows. The swarm engine replays
// the plan tick by tick from a dedicated fault RNG stream, so the same
// (seed, plan) pair always yields a bitwise-identical SwarmResult and an
// empty plan leaves the baseline run untouched.
//
// Plans are either assembled field by field or generated from a FaultSpec,
// whose single `intensity` dial scales every fault class at once — the knob
// the degradation bench sweeps.
#pragma once

#include <cstdint>
#include <vector>

namespace dsa::fault {

/// Half-open tick range [begin_tick, end_tick) during which the seeder is
/// dark: it uploads nothing and its pieces leave the availability census.
struct SeederOutage {
  std::size_t begin_tick = 0;
  std::size_t end_tick = 0;
};

/// Leecher `leecher` (input order) crashes at `tick`, losing all pieces and
/// history, and rejoins `downtime` ticks later as a fresh peer with an empty
/// piece map. Its download time keeps counting from the original arrival.
struct CrashEvent {
  std::size_t leecher = 0;
  std::size_t tick = 0;
  std::size_t downtime = 0;
};

/// Full fault schedule of one swarm run. Default-constructed = no faults.
struct FaultPlan {
  /// Probability that one tick's delivery on one (sender, receiver) link is
  /// lost: the bytes evaporate, crediting neither side and advancing no
  /// piece. In [0, 1].
  double message_loss = 0.0;

  std::vector<SeederOutage> seeder_outages;
  std::vector<CrashEvent> crashes;

  /// True when the plan injects nothing (the engine's fast path).
  [[nodiscard]] bool empty() const noexcept;

  /// True when `tick` falls inside any seeder outage window.
  [[nodiscard]] bool seeder_down(std::size_t tick) const noexcept;

  /// Rejects malformed plans with std::invalid_argument naming the offending
  /// field: loss probability outside [0, 1], empty/inverted/overlapping
  /// outage windows, crash targets outside [0, leecher_count), zero
  /// downtime, and — when `max_ticks` > 0 — crash ticks at or past the
  /// horizon. Every construction path (field-by-field, FaultSpec expansion,
  /// JSON) funnels through this before a plan reaches the engine.
  void validate(std::size_t leecher_count, std::size_t max_ticks = 0) const;
};

/// Intensity-scaled plan generator. Every knob below is the value reached at
/// intensity 1; intensity 0 produces an empty plan so a swept baseline run
/// is bitwise-identical to a no-fault run.
struct FaultSpec {
  /// Master dial in [0, 1] scaling all fault classes together.
  double intensity = 0.0;

  double max_message_loss = 0.25;   // loss probability at intensity 1
  double crash_fraction = 0.5;      // fraction of leechers crashed once
  double outage_fraction = 0.25;    // fraction of the horizon the seeder is dark

  std::uint64_t seed = 1;
};

/// Deterministically expands `spec` into a plan for a swarm of
/// `leecher_count` leechers whose interesting dynamics fit in
/// `horizon_ticks` (crashes and outages are scheduled inside the horizon).
/// Throws std::invalid_argument on out-of-range spec fields.
FaultPlan make_fault_plan(const FaultSpec& spec, std::size_t leecher_count,
                          std::size_t horizon_ticks);

}  // namespace dsa::fault
