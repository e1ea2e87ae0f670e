// Discrete-time piece-level BitTorrent swarm simulator — the validation
// substrate of Sec. 5, replacing the authors' instrumented client + cluster.
//
// Mechanics modeled:
//  * one seeder (128 KBps in the paper's setup) that stays for the whole
//    experiment and unchokes interested leechers round-robin (uniform
//    interaction, as the paper assumes of seeders);
//  * leechers with heterogeneous upload capacities (Piatek et al.
//    distribution), downloading a fixed-size file split into pieces;
//  * choke rounds every `rechoke_interval` ticks: each leecher ranks the
//    interested peers per its ClientVariant and unchokes the top
//    `regular_slots`; an optimistic slot rotates every `optimistic_period`
//    choke rounds (policy varies per variant, see client.hpp);
//  * per-tick transfers: a peer's capacity splits equally across the
//    unchoked peers that are actively downloading from it; receivers pick
//    pieces rarest-first, one in-flight piece per (receiver, sender) pair.
//    The pick is the first least-available piece the sender can assign
//    (the receiver neither has nor has claimed it) at or after an offset
//    drawn uniformly from [0, piece_count), wrapping around. Every attempt on
//    a pair without an in-flight piece draws one offset, even when nothing
//    turns out to be assignable;
//  * leechers depart the moment they complete, as in the paper's setup
//    ("peers leave upon completing their download");
//  * optional fault injection driven by a deterministic FaultPlan (see
//    fault/fault_plan.hpp): per-link message loss, leecher crash/rejoin,
//    and seeder outage windows. An empty plan leaves the run
//    bitwise-identical to the fault-free baseline.
//
// One tick is one second; download times are reported in seconds.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hpp"
#include "swarm/client.hpp"

namespace dsa::swarm {

/// Experiment controls, defaulted to the paper's Sec. 5 setup (5 MB file,
/// 128 KBps seeder, 50 leechers supplied by the caller).
struct SwarmConfig {
  std::size_t piece_count = 80;          // 5 MB in 64 KB pieces
  double piece_size_kb = 64.0;
  double seeder_capacity_kbps = 128.0;
  std::size_t regular_slots = 4;         // leecher unchoke slots (Sort-S: 1)
  std::size_t seeder_slots = 5;
  std::size_t rechoke_interval = 10;     // ticks between choke rounds
  std::size_t optimistic_period = 3;     // choke rounds per optimistic slot
  std::size_t max_ticks = 20000;         // safety cap
  std::uint64_t seed = 1;
  /// Ticks between successive leecher arrivals; 0 = everyone starts at
  /// tick 0 (the paper's setup). With a positive interval, leecher l joins
  /// at tick l * arrival_interval and its download time is measured from
  /// its own arrival.
  std::size_t arrival_interval = 0;
  /// When true, SwarmResult::series records per-tick swarm health.
  bool record_series = false;
  /// Fault schedule replayed during the run; default-constructed = no
  /// faults. Validated (together with the fields above) on entry to
  /// run_swarm.
  fault::FaultPlan faults;

  /// Rejects degenerate configurations with std::invalid_argument naming
  /// the offending field.
  void validate(std::size_t leecher_count) const;
};

/// One per-tick snapshot of swarm health (record_series only).
struct SwarmTick {
  std::uint32_t active_leechers = 0;    // arrived, not yet complete
  std::uint32_t completed_leechers = 0;
  double transferred_kb = 0.0;          // bytes moved this tick
  double mean_progress = 0.0;           // mean piece completion in [0, 1]
};

/// Degradation instrumentation accumulated over one run; all zeros (and a
/// negative recovery time) when the fault plan is empty.
struct FaultStats {
  std::uint64_t messages_lost = 0;   // per-tick deliveries eaten by loss
  double lost_kb = 0.0;              // bytes those deliveries carried
  /// Always 0: the engine has no piece timeouts, so nothing is retried.
  /// Kept so existing readers of the struct (and its golden hash) stand.
  std::uint64_t retries_issued = 0;
  std::uint64_t crashes = 0;         // crash events that actually struck
  std::uint64_t pieces_wiped = 0;    // pieces erased by those crashes
  std::uint64_t stall_ticks = 0;     // ticks with active leechers but no bytes
  std::uint64_t seeder_down_ticks = 0;
  /// Mean ticks from a seeder-outage end until the seeder uploads again
  /// (re-unchoke latency); negative when no outage ended during the run.
  double mean_seeder_recovery_ticks = -1.0;
};

/// Per-leecher outcome of one swarm run.
struct SwarmResult {
  /// Download time in seconds per leecher (input order), measured from the
  /// leecher's own arrival; < 0 when it never finished within max_ticks.
  std::vector<double> completion_time;
  bool all_completed = false;

  /// Instrumentation: bytes each leecher uploaded / downloaded (KB), input
  /// order. Upload counts only bytes that reached a receiver.
  std::vector<double> uploaded_kb;
  std::vector<double> downloaded_kb;

  /// Per-tick swarm health; empty unless SwarmConfig::record_series.
  std::vector<SwarmTick> series;

  /// Degradation instrumentation (see FaultStats).
  FaultStats fault_stats;

  /// Mean completion time over leechers [begin, end); unfinished leechers
  /// count as the run's duration cap. Throws std::invalid_argument on a bad
  /// range.
  [[nodiscard]] double group_mean_time(std::size_t begin, std::size_t end,
                                       double cap_seconds) const;
};

/// Runs one swarm: `leechers[i]` runs the given variant with upload capacity
/// `capacities[i]` (KBps). Throws std::invalid_argument on empty/mismatched
/// inputs or non-positive capacities.
SwarmResult run_swarm(const std::vector<ClientVariant>& leechers,
                      const std::vector<double>& capacities,
                      const SwarmConfig& config);

/// Sec. 5 experiment helper: a 50-leecher swarm in which `count_a` leechers
/// run `a` and the rest run `b`, capacities drawn from the Piatek
/// distribution (stratified, shuffled by the run's seed). Returns the full
/// result plus the group boundary = count_a (group A occupies [0, count_a)).
SwarmResult run_mixed_swarm(ClientVariant a, ClientVariant b,
                            std::size_t count_a, std::size_t total,
                            const SwarmConfig& config);

}  // namespace dsa::swarm
