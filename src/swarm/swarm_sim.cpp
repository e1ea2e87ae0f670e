#include "swarm/swarm_sim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "swarming/bandwidth.hpp"
#include "util/rng.hpp"

namespace dsa::swarm {

std::string to_string(ClientVariant variant) {
  switch (variant) {
    case ClientVariant::kBitTorrent: return "BitTorrent";
    case ClientVariant::kBirds: return "Birds";
    case ClientVariant::kLoyalWhenNeeded: return "Loyal-When-needed";
    case ClientVariant::kSortSlowest: return "Sort-S";
    case ClientVariant::kRandomRank: return "Random";
  }
  return "?";
}

void SwarmConfig::validate(std::size_t leecher_count) const {
  if (piece_count == 0) {
    throw std::invalid_argument("SwarmConfig.piece_count: must be > 0");
  }
  if (!(piece_size_kb > 0.0)) {
    throw std::invalid_argument("SwarmConfig.piece_size_kb: must be > 0");
  }
  if (!(seeder_capacity_kbps > 0.0)) {
    throw std::invalid_argument(
        "SwarmConfig.seeder_capacity_kbps: must be > 0");
  }
  if (regular_slots == 0) {
    throw std::invalid_argument("SwarmConfig.regular_slots: must be > 0");
  }
  if (seeder_slots == 0) {
    throw std::invalid_argument("SwarmConfig.seeder_slots: must be > 0");
  }
  if (rechoke_interval == 0) {
    throw std::invalid_argument("SwarmConfig.rechoke_interval: must be > 0");
  }
  if (optimistic_period == 0) {
    throw std::invalid_argument("SwarmConfig.optimistic_period: must be > 0");
  }
  if (max_ticks == 0) {
    throw std::invalid_argument("SwarmConfig.max_ticks: must be > 0");
  }
  faults.validate(leecher_count, max_ticks);
}

double SwarmResult::group_mean_time(std::size_t begin, std::size_t end,
                                    double cap_seconds) const {
  if (begin >= end || end > completion_time.size()) {
    throw std::invalid_argument("SwarmResult::group_mean_time: bad range");
  }
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += completion_time[i] >= 0.0 ? completion_time[i] : cap_seconds;
  }
  return sum / static_cast<double>(end - begin);
}

namespace {

constexpr std::int32_t kNoPiece = -1;
constexpr std::int32_t kNoPeer = -1;

/// Piece p's bit within its 64-piece word of a peer's bitset row.
constexpr std::uint64_t piece_bit(std::size_t p) {
  return std::uint64_t{1} << (p % 64);
}

/// Full mutable state of one swarm run. Peer 0 is the seeder; leecher l of
/// the input sits at index l + 1.
class SwarmEngine {
 public:
  SwarmEngine(const std::vector<ClientVariant>& leechers,
              const std::vector<double>& capacities,
              const SwarmConfig& config)
      : config_(config),
        plan_(config.faults),
        n_(leechers.size() + 1),
        pieces_(config.piece_count),
        words_((config.piece_count + 63) / 64),
        rng_(config.seed),
        // Faults draw from their own stream so an empty plan leaves the
        // baseline run bitwise-identical.
        fault_rng_(util::hash64(config.seed ^ 0x0fa17ed5eedc0deULL)),
        variant_(n_, ClientVariant::kBitTorrent),
        capacity_(n_, config.seeder_capacity_kbps),
        have_(n_ * words_, 0),
        have_count_(n_, 0),
        active_(n_, 1),
        completion_tick_(n_, -1),
        availability_(pieces_, 1),  // the seeder has everything
        claimed_(n_ * words_, 0),
        piece_from_(n_ * n_, kNoPiece),
        bytes_done_(n_ * pieces_, 0.0),
        recv_cur_(n_ * n_, 0.0),
        recv_prev_(n_ * n_, 0.0),
        streak_(n_ * n_, 0),
        unchoked_(n_),
        optimistic_(n_, kNoPeer),
        rechokes_since_rotation_(n_, 0),
        tie_priority_(n_, 0),
        arrival_tick_(n_, 0),
        uploaded_(n_, 0.0),
        downloaded_(n_, 0.0),
        crashed_until_(n_, -1),
        crash_schedule_(config.faults.crashes) {
    for (std::size_t l = 0; l < leechers.size(); ++l) {
      variant_[l + 1] = leechers[l];
      capacity_[l + 1] = capacities[l];
      if (config.arrival_interval > 0) {
        arrival_tick_[l + 1] =
            static_cast<std::int64_t>(l * config.arrival_interval);
        if (arrival_tick_[l + 1] > 0) active_[l + 1] = 0;
      }
    }
    // Seeder starts complete.
    for (std::size_t p = 0; p < pieces_; ++p) have_[p / 64] |= piece_bit(p);
    have_count_[0] = pieces_;
    completion_tick_[0] = 0;
    // Crash events fire in tick order; stable sort keeps same-tick events in
    // plan order so replays are deterministic.
    std::stable_sort(crash_schedule_.begin(), crash_schedule_.end(),
                     [](const fault::CrashEvent& a, const fault::CrashEvent& b) {
                       return a.tick < b.tick;
                     });
  }

  SwarmResult run() {
    DSA_OBS_PHASE("swarm/run");
    if (capture_.rounds()) {
      capture_.emit({.kind = obs::EventKind::kRun,
                     .run = config_.seed,
                     .value = {{static_cast<double>(n_),
                                static_cast<double>(config_.max_ticks),
                                static_cast<double>(config_.piece_count), 0.0}},
                     .label = "swarm",
                     .detail = capture_.context()});
    }
    SwarmResult result;
    std::size_t tick = 0;
    {
      DSA_OBS_PHASE("swarm/ticks");
      for (; tick < config_.max_ticks && incomplete_leechers() > 0; ++tick) {
        tick_ = static_cast<std::uint32_t>(tick);
        record_full_tick_ = capture_.full() && capture_.sampled(tick_);
        apply_faults(tick);
        process_arrivals(tick);
        if (tick % config_.rechoke_interval == 0) rechoke();
        tick_transferred_ = 0.0;
        transfer(tick);
        process_departures();
        if (tick_transferred_ == 0.0 && any_active_incomplete()) {
          ++stats_.stall_ticks;
        }
        if (config_.record_series) {
          result.series.push_back(snapshot());
        }
      }
    }
    result.completion_time.resize(n_ - 1);
    result.uploaded_kb.resize(n_ - 1);
    result.downloaded_kb.resize(n_ - 1);
    result.all_completed = true;
    for (std::size_t l = 0; l + 1 < n_; ++l) {
      const std::int64_t t = completion_tick_[l + 1];
      result.completion_time[l] =
          t >= 0 ? static_cast<double>(t - arrival_tick_[l + 1]) : -1.0;
      if (t < 0) result.all_completed = false;
      result.uploaded_kb[l] = uploaded_[l + 1];
      result.downloaded_kb[l] = downloaded_[l + 1];
    }
    if (capture_.rounds()) {
      for (std::size_t l = 0; l + 1 < n_; ++l) {
        capture_.emit({.kind = obs::EventKind::kLeecher,
                       .run = config_.seed,
                       .actor = static_cast<std::uint32_t>(l),
                       .value = {{capacity_[l + 1], result.completion_time[l],
                                  result.uploaded_kb[l],
                                  result.downloaded_kb[l]}},
                       .label = to_string(variant_[l + 1])});
      }
    }
    stats_.mean_seeder_recovery_ticks =
        recoveries_ > 0 ? recovery_total_ / static_cast<double>(recoveries_)
                        : -1.0;
    result.fault_stats = stats_;
    flush_metrics(tick);
    return result;
  }

  /// Exports the run's tick count and FaultStats into the metrics registry
  /// (one flush per run; the tick loop itself is untouched).
  void flush_metrics(std::size_t ticks) const {
    if (!obs::enabled()) return;
    auto& registry = obs::Registry::global();
    registry.counter("swarm.runs").increment();
    registry.counter("swarm.ticks").add(ticks);
    registry.counter("swarm.fault.messages_lost").add(stats_.messages_lost);
    registry.gauge("swarm.fault.lost_kb").add(stats_.lost_kb);
    registry.counter("swarm.fault.crashes").add(stats_.crashes);
    registry.counter("swarm.fault.pieces_wiped").add(stats_.pieces_wiped);
    registry.counter("swarm.fault.stall_ticks").add(stats_.stall_ticks);
    registry.counter("swarm.fault.seeder_down_ticks")
        .add(stats_.seeder_down_ticks);
  }

 private:
  // --- health sketches ----------------------------------------------------
  // Pure observers feeding the swarm-health timelines: never touch rng_,
  // fault_rng_, or any simulation state, so results are bitwise-identical
  // with observability on or off.

  /// Download progress (completed-piece fraction) of one leecher, sampled
  /// every time it finishes a piece.
  void observe_progress(std::size_t receiver) {
    if (!obs::enabled()) return;
    static const obs::Distribution distribution =
        obs::Registry::global().distribution("swarm.progress");
    const double fraction = static_cast<double>(have_count_[receiver]) /
                            static_cast<double>(pieces_);
    distribution.observe(fraction);
  }

  /// Upload-capacity utilization of every active peer over the choke window
  /// that just closed (recv_prev_ after the window roll). Sampled once per
  /// choke round.
  void observe_peer_utilization() {
    if (!obs::enabled()) return;
    static const obs::Distribution distribution =
        obs::Registry::global().distribution("swarm.peer_util");
    const double window =
        static_cast<double>(config_.rechoke_interval);
    for (std::size_t sender = 0; sender < n_; ++sender) {
      if (!active_[sender] || !(capacity_[sender] > 0.0)) continue;
      double sent = 0.0;
      for (std::size_t receiver = 0; receiver < n_; ++receiver) {
        sent += recv_prev_[receiver * n_ + sender];
      }
      const double utilization = sent / (capacity_[sender] * window);
      distribution.observe(utilization);
    }
  }

  /// Fraction of a leecher's fresh unchoke list that was not unchoked in
  /// the previous round (prev_unchoked_ snapshot). 0 = stable partners,
  /// 1 = full churn.
  void observe_switch_rate(const std::vector<std::uint32_t>& fresh) {
    static const obs::Distribution distribution =
        obs::Registry::global().distribution("swarm.switch_rate");
    std::size_t switched = 0;
    for (std::uint32_t peer : fresh) {
      if (std::find(prev_unchoked_.begin(), prev_unchoked_.end(), peer) ==
          prev_unchoked_.end()) {
        ++switched;
      }
    }
    const double rate =
        static_cast<double>(switched) / static_cast<double>(fresh.size());
    distribution.observe(rate);
  }
  void process_arrivals(std::size_t tick) {
    for (std::size_t i = 1; i < n_; ++i) {
      if (active_[i] || is_complete(i)) continue;
      if (crashed_until_[i] >= 0) {
        // A crashed leecher sits out its downtime, then rejoins as a fresh
        // peer (its piece map was wiped at crash time).
        if (static_cast<std::int64_t>(tick) >= crashed_until_[i]) {
          active_[i] = 1;
          crashed_until_[i] = -1;
        }
      } else if (static_cast<std::int64_t>(tick) >= arrival_tick_[i]) {
        active_[i] = 1;
      }
    }
  }

  // --- fault injection ----------------------------------------------------

  void apply_faults(std::size_t tick) {
    while (next_crash_ < crash_schedule_.size() &&
           crash_schedule_[next_crash_].tick <= tick) {
      crash_leecher(crash_schedule_[next_crash_], tick);
      ++next_crash_;
    }
    if (!plan_.seeder_outages.empty()) {
      const bool down = plan_.seeder_down(tick);
      if (down && !seeder_out_) {
        take_seeder_down(tick);
      } else if (!down && seeder_out_) {
        restore_seeder(tick);
      }
      if (seeder_out_) ++stats_.seeder_down_ticks;
    }
  }

  /// Wipes a leecher's pieces and history and schedules its rejoin. No-op
  /// when the leecher already completed, already crashed, or has not
  /// arrived yet.
  void crash_leecher(const fault::CrashEvent& crash, std::size_t tick) {
    const std::size_t i = crash.leecher + 1;
    if (!active_[i] || is_complete(i)) return;
    ++stats_.crashes;
    stats_.pieces_wiped += have_count_[i];
    if (capture_.rounds()) {
      capture_.emit({.kind = obs::EventKind::kFault,
                     .run = config_.seed,
                     .time = static_cast<std::uint32_t>(tick),
                     .actor = static_cast<std::uint32_t>(i),
                     .value = {{static_cast<double>(crash.downtime),
                                static_cast<double>(have_count_[i]), 0.0, 0.0}},
                     .label = "crash"});
    }
    drop_availability(i);
    std::fill_n(&have_[i * words_], words_, 0);
    std::fill_n(&claimed_[i * words_], words_, 0);
    std::fill_n(&bytes_done_[i * pieces_], pieces_, 0.0);
    have_count_[i] = 0;
    // In-flight pieces it was receiving die with it (claimed_ row already
    // cleared above); pieces it was sending free up for other senders.
    for (std::size_t sender = 0; sender < n_; ++sender) {
      piece_from_[i * n_ + sender] = kNoPiece;
    }
    for (std::size_t receiver = 0; receiver < n_; ++receiver) {
      release_assignment(receiver, i);
    }
    // The rejoined peer is a stranger: no receipts or streaks survive in
    // either direction.
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t row = i * n_ + j;
      const std::size_t col = j * n_ + i;
      recv_cur_[row] = recv_cur_[col] = 0.0;
      recv_prev_[row] = recv_prev_[col] = 0.0;
      streak_[row] = streak_[col] = 0;
    }
    unchoked_[i].clear();
    optimistic_[i] = kNoPeer;
    active_[i] = 0;
    crashed_until_[i] = static_cast<std::int64_t>(tick + crash.downtime);
  }

  void take_seeder_down(std::size_t tick) {
    seeder_out_ = true;
    down_since_ = tick;
    active_[0] = 0;
    for (std::size_t p = 0; p < pieces_; ++p) --availability_[p];
    for (std::size_t receiver = 0; receiver < n_; ++receiver) {
      release_assignment(receiver, 0);
    }
    unchoked_[0].clear();
    if (capture_.rounds()) {
      // value[0] = the containing window's end tick, so a report can draw
      // the full outage bar from its begin event alone.
      double end_tick = 0.0;
      for (const fault::SeederOutage& outage : plan_.seeder_outages) {
        if (tick >= outage.begin_tick && tick < outage.end_tick) {
          end_tick = static_cast<double>(outage.end_tick);
          break;
        }
      }
      capture_.emit({.kind = obs::EventKind::kFault,
                     .run = config_.seed,
                     .time = static_cast<std::uint32_t>(tick),
                     .actor = 0,
                     .value = {{end_tick, 0.0, 0.0, 0.0}},
                     .label = "outage_begin"});
    }
  }

  void restore_seeder(std::size_t tick) {
    seeder_out_ = false;
    active_[0] = 1;
    for (std::size_t p = 0; p < pieces_; ++p) ++availability_[p];
    awaiting_recovery_ = true;
    recovery_start_ = tick;
    if (capture_.rounds()) {
      capture_.emit({.kind = obs::EventKind::kFault,
                     .run = config_.seed,
                     .time = static_cast<std::uint32_t>(tick),
                     .actor = 0,
                     .value = {{static_cast<double>(tick - down_since_), 0.0,
                                0.0, 0.0}},
                     .label = "outage_end"});
    }
  }

  [[nodiscard]] bool any_active_incomplete() const {
    for (std::size_t i = 1; i < n_; ++i) {
      if (active_[i] && !is_complete(i)) return true;
    }
    return false;
  }

  [[nodiscard]] SwarmTick snapshot() const {
    SwarmTick snap;
    double progress = 0.0;
    for (std::size_t i = 1; i < n_; ++i) {
      if (is_complete(i)) {
        ++snap.completed_leechers;
      } else if (active_[i]) {
        ++snap.active_leechers;
      }
      progress += static_cast<double>(have_count_[i]) /
                  static_cast<double>(pieces_);
    }
    snap.mean_progress = progress / static_cast<double>(n_ - 1);
    snap.transferred_kb = tick_transferred_;
    return snap;
  }

  /// Leechers that have not completed yet (arrived or still to arrive).
  [[nodiscard]] std::size_t incomplete_leechers() const {
    std::size_t count = 0;
    for (std::size_t i = 1; i < n_; ++i) {
      if (have_count_[i] < pieces_) ++count;
    }
    return count;
  }

  [[nodiscard]] bool is_complete(std::size_t i) const {
    return have_count_[i] == pieces_;
  }

  /// j wants data at all (and i has at least one piece). The exact
  /// "i has something j lacks" check happens at piece assignment; a lane
  /// that cannot be fed simply idles.
  [[nodiscard]] bool interested_in(std::size_t i, std::size_t j) const {
    return j != i && active_[j] && !is_complete(j) && have_count_[i] > 0;
  }

  // --- choke rounds ------------------------------------------------------

  void rechoke() {
    DSA_OBS_PHASE("swarm/choke");
    // Fresh random ranking tie-breaks each choke round; a fixed order would
    // funnel every all-zero-tied choice onto the same peers.
    for (auto& priority : tie_priority_) {
      priority = static_cast<std::uint32_t>(rng_());
    }
    // Window roll + loyalty streak update (one choke period granularity).
    recv_prev_.swap(recv_cur_);
    std::fill(recv_cur_.begin(), recv_cur_.end(), 0.0);
    for (std::size_t idx = 0; idx < n_ * n_; ++idx) {
      streak_[idx] = recv_prev_[idx] > 0.0 ? streak_[idx] + 1 : 0;
    }
    observe_peer_utilization();

    for (std::size_t i = 0; i < n_; ++i) {
      if (!active_[i]) continue;
      if (i == 0) {
        rechoke_seeder();
      } else if (!is_complete(i)) {
        rechoke_leecher(i);
      }
    }

    // Release in-flight assignments on pairs that are no longer unchoked so
    // a choked-off piece can be re-claimed from another sender. Each release
    // touches only its own pair, so the walk follows piece_from_'s layout.
    for (std::size_t receiver = 0; receiver < n_; ++receiver) {
      for (std::size_t sender = 0; sender < n_; ++sender) {
        if (piece_from_[receiver * n_ + sender] == kNoPiece) continue;
        if (!is_unchoked(sender, receiver)) {
          release_assignment(receiver, sender);
        }
      }
    }
  }

  [[nodiscard]] bool is_unchoked(std::size_t sender,
                                 std::size_t receiver) const {
    if (optimistic_[sender] == static_cast<std::int32_t>(receiver)) {
      return true;
    }
    const auto& list = unchoked_[sender];
    return std::find(list.begin(), list.end(),
                     static_cast<std::uint32_t>(receiver)) != list.end();
  }

  void release_assignment(std::size_t receiver, std::size_t sender) {
    const std::int32_t piece = piece_from_[receiver * n_ + sender];
    if (piece == kNoPiece) return;
    // Progress on the piece persists (block-level download, as in BT):
    // another sender can pick it up and continue where this one stopped.
    const auto p = static_cast<std::size_t>(piece);
    claimed_[receiver * words_ + p / 64] &= ~piece_bit(p);
    piece_from_[receiver * n_ + sender] = kNoPiece;
  }

  void rechoke_seeder() {
    // Uniform round-robin over interested leechers (the paper's seeder
    // assumption, after Chow et al.).
    unchoked_[0].clear();
    if (n_ <= 1) return;
    std::size_t scanned = 0;
    while (unchoked_[0].size() < config_.seeder_slots && scanned < n_ - 1) {
      seeder_rr_ = seeder_rr_ % (n_ - 1) + 1;  // cycles 1..n-1
      ++scanned;
      if (interested_in(0, seeder_rr_)) {
        unchoked_[0].push_back(static_cast<std::uint32_t>(seeder_rr_));
      }
    }
  }

  void rechoke_leecher(std::size_t i) {
    candidates_.clear();
    for (std::size_t j = 1; j < n_; ++j) {
      if (interested_in(i, j)) {
        candidates_.push_back(static_cast<std::uint32_t>(j));
      }
    }

    const ClientVariant variant = variant_[i];
    const std::size_t slots = variant == ClientVariant::kSortSlowest
                                  ? 1
                                  : config_.regular_slots;
    const std::size_t picked = std::min(slots, candidates_.size());
    rank_candidates(i, variant, picked);
    const bool observe = obs::enabled() && picked > 0;
    if (observe) prev_unchoked_ = unchoked_[i];
    unchoked_[i].assign(candidates_.begin(), candidates_.begin() + picked);
    if (observe) observe_switch_rate(unchoked_[i]);

    update_optimistic(i, variant, slots);

    if (record_full_tick_) {
      for (std::uint32_t peer : unchoked_[i]) {
        capture_.emit({.kind = obs::EventKind::kChoke,
                       .run = config_.seed,
                       .time = tick_,
                       .actor = static_cast<std::uint32_t>(i),
                       .peer = peer,
                       .value = {{1.0, 0.0, 0.0, 0.0}}});
      }
      if (optimistic_[i] >= 0) {
        capture_.emit({.kind = obs::EventKind::kChoke,
                       .run = config_.seed,
                       .time = tick_,
                       .actor = static_cast<std::uint32_t>(i),
                       .peer = static_cast<std::uint32_t>(optimistic_[i]),
                       .value = {{2.0, 0.0, 0.0, 0.0}}});
      }
    }
  }

  void rank_candidates(std::size_t i, ClientVariant variant,
                       std::size_t top) {
    if (top == 0) return;
    auto by_key = [&](auto key, bool descending) {
      std::partial_sort(candidates_.begin(), candidates_.begin() + top,
                        candidates_.end(),
                        [&, descending](std::uint32_t a, std::uint32_t b) {
                          const double ka = key(a);
                          const double kb = key(b);
                          if (ka != kb) return descending ? ka > kb : ka < kb;
                          if (tie_priority_[a] != tie_priority_[b]) {
                            return tie_priority_[a] < tie_priority_[b];
                          }
                          return a < b;
                        });
    };
    switch (variant) {
      case ClientVariant::kBitTorrent:
        by_key([&](std::uint32_t j) { return recv_prev_[i * n_ + j]; }, true);
        break;
      case ClientVariant::kSortSlowest:
        by_key([&](std::uint32_t j) { return recv_prev_[i * n_ + j]; }, false);
        break;
      case ClientVariant::kBirds:
        by_key(
            [&](std::uint32_t j) {
              return std::fabs(capacity_[j] - capacity_[i]);
            },
            false);
        break;
      case ClientVariant::kLoyalWhenNeeded:
        by_key(
            [&](std::uint32_t j) {
              return static_cast<double>(streak_[i * n_ + j]);
            },
            true);
        break;
      case ClientVariant::kRandomRank:
        for (std::size_t s = 0; s < top; ++s) {
          const std::size_t j =
              s + static_cast<std::size_t>(rng_.below(candidates_.size() - s));
          std::swap(candidates_[s], candidates_[j]);
        }
        break;
    }
  }

  void update_optimistic(std::size_t i, ClientVariant variant,
                         std::size_t slots) {
    // Sort-S defects on strangers: never an optimistic slot.
    if (variant == ClientVariant::kSortSlowest) {
      optimistic_[i] = kNoPeer;
      return;
    }
    // Loyal-When-needed only opens the stranger slot while it lacks
    // established (positive-streak) partners.
    if (variant == ClientVariant::kLoyalWhenNeeded) {
      std::size_t established = 0;
      for (std::uint32_t j : unchoked_[i]) {
        if (streak_[i * n_ + j] > 0) ++established;
      }
      if (established >= slots) {
        optimistic_[i] = kNoPeer;
        return;
      }
    }

    const std::int32_t current = optimistic_[i];
    const bool current_valid =
        current != kNoPeer &&
        interested_in(i, static_cast<std::size_t>(current)) &&
        std::find(unchoked_[i].begin(), unchoked_[i].end(),
                  static_cast<std::uint32_t>(current)) == unchoked_[i].end();
    const bool due_for_rotation =
        ++rechokes_since_rotation_[i] >= config_.optimistic_period;
    if (current_valid && !due_for_rotation) return;

    rechokes_since_rotation_[i] = 0;
    // Candidates for the optimistic slot: interested peers outside the
    // regular set.
    scratch_.clear();
    for (std::uint32_t j : candidates_) {
      if (std::find(unchoked_[i].begin(), unchoked_[i].end(), j) ==
          unchoked_[i].end()) {
        scratch_.push_back(j);
      }
    }
    optimistic_[i] =
        scratch_.empty()
            ? kNoPeer
            : static_cast<std::int32_t>(
                  scratch_[static_cast<std::size_t>(rng_.below(scratch_.size()))]);
  }

  // --- transfers ----------------------------------------------------------

  void transfer(std::size_t tick) {
    DSA_OBS_PHASE("swarm/transfer");
    for (std::size_t sender = 0; sender < n_; ++sender) {
      if (!active_[sender] || have_count_[sender] == 0) continue;

      // Feedable targets: unchoked, active, and with an assignable piece.
      targets_.clear();
      auto consider = [&](std::size_t receiver) {
        if (!active_[receiver] || is_complete(receiver)) return;
        if (ensure_assignment(receiver, sender)) {
          targets_.push_back(static_cast<std::uint32_t>(receiver));
        }
      };
      for (std::uint32_t receiver : unchoked_[sender]) consider(receiver);
      if (optimistic_[sender] != kNoPeer) {
        consider(static_cast<std::size_t>(optimistic_[sender]));
      }
      if (targets_.empty()) continue;

      const double rate =
          capacity_[sender] / static_cast<double>(targets_.size());
      for (std::uint32_t receiver : targets_) {
        deliver(sender, receiver, rate, tick);
      }
    }
  }

  /// Guarantees an in-flight piece from sender to receiver. Among the
  /// assignable pieces (the sender has them, the receiver neither has nor
  /// has claimed them) it picks the first least-available one at or after a
  /// uniformly drawn offset, wrapping around. Returns false when nothing is
  /// assignable.
  bool ensure_assignment(std::size_t receiver, std::size_t sender) {
    if (piece_from_[receiver * n_ + sender] != kNoPiece) return true;
    // Drawn even when the scan finds nothing: every draw is part of the
    // pinned RNG stream.
    const std::size_t offset = static_cast<std::size_t>(rng_.below(pieces_));
    std::size_t best = pieces_;
    std::uint32_t best_availability = std::numeric_limits<std::uint32_t>::max();
    rarest_in(receiver, sender, offset, pieces_, best, best_availability);
    rarest_in(receiver, sender, 0, offset, best, best_availability);
    if (best == pieces_) return false;
    claimed_[receiver * words_ + best / 64] |= piece_bit(best);
    piece_from_[receiver * n_ + sender] = static_cast<std::int32_t>(best);
    return true;
  }

  /// Walks the pieces in [begin, end) that sender could assign to receiver,
  /// in index order, and keeps the first one whose availability is strictly
  /// below best_availability.
  void rarest_in(std::size_t receiver, std::size_t sender, std::size_t begin,
                 std::size_t end, std::size_t& best,
                 std::uint32_t& best_availability) const {
    if (begin >= end) return;
    const std::uint64_t* offered = &have_[sender * words_];
    const std::uint64_t* held = &have_[receiver * words_];
    const std::uint64_t* claimed = &claimed_[receiver * words_];
    const std::size_t last = (end - 1) / 64;
    for (std::size_t w = begin / 64; w <= last; ++w) {
      std::uint64_t candidates = offered[w] & ~held[w] & ~claimed[w];
      if (w == begin / 64) candidates &= ~std::uint64_t{0} << (begin % 64);
      if (w == last && end % 64 != 0) candidates &= piece_bit(end) - 1;
      for (; candidates != 0; candidates &= candidates - 1) {
        const std::size_t p =
            w * 64 + static_cast<std::size_t>(std::countr_zero(candidates));
        if (availability_[p] < best_availability) {
          best = p;
          best_availability = availability_[p];
        }
      }
    }
  }

  void deliver(std::size_t sender, std::size_t receiver, double rate_kbps,
               std::size_t tick) {
    // Message loss eats this tick's delivery on the link: the bytes
    // evaporate, crediting neither side and advancing no piece.
    if (plan_.message_loss > 0.0 && fault_rng_.chance(plan_.message_loss)) {
      ++stats_.messages_lost;
      stats_.lost_kb += rate_kbps;
      return;
    }
    if (sender == 0 && awaiting_recovery_) {
      recovery_total_ += static_cast<double>(tick - recovery_start_);
      ++recoveries_;
      awaiting_recovery_ = false;
    }
    uploaded_[sender] += rate_kbps;
    downloaded_[receiver] += rate_kbps;
    tick_transferred_ += rate_kbps;
    recv_cur_[receiver * n_ + sender] += rate_kbps;
    const auto piece =
        static_cast<std::size_t>(piece_from_[receiver * n_ + sender]);
    double& done = bytes_done_[receiver * pieces_ + piece];
    done += rate_kbps;  // one tick = one second
    if (done + 1e-9 < config_.piece_size_kb) return;

    have_[receiver * words_ + piece / 64] |= piece_bit(piece);
    ++have_count_[receiver];
    ++availability_[piece];
    observe_progress(receiver);
    if (record_full_tick_) {
      capture_.emit({.kind = obs::EventKind::kPiece,
                     .run = config_.seed,
                     .time = static_cast<std::uint32_t>(tick),
                     .actor = static_cast<std::uint32_t>(receiver),
                     .peer = static_cast<std::uint32_t>(sender),
                     .value = {{static_cast<double>(piece),
                                static_cast<double>(have_count_[receiver]), 0.0,
                                0.0}}});
    }
    piece_from_[receiver * n_ + sender] = kNoPiece;
    done = 0.0;

    if (is_complete(receiver)) {
      completion_tick_[receiver] = static_cast<std::int64_t>(tick) + 1;
      departing_.push_back(static_cast<std::uint32_t>(receiver));
    }
  }

  void process_departures() {
    for (std::uint32_t peer : departing_) {
      active_[peer] = 0;
      // Its pieces leave the swarm.
      drop_availability(peer);
      // Free pieces other peers were downloading from it.
      for (std::size_t receiver = 0; receiver < n_; ++receiver) {
        release_assignment(receiver, peer);
      }
      unchoked_[peer].clear();
      optimistic_[peer] = kNoPeer;
    }
    departing_.clear();
  }

  /// Removes every piece `peer` holds from the availability census.
  void drop_availability(std::size_t peer) {
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t held = have_[peer * words_ + w]; held != 0;
           held &= held - 1) {
        --availability_[w * 64 +
                        static_cast<std::size_t>(std::countr_zero(held))];
      }
    }
  }

  const SwarmConfig& config_;
  const fault::FaultPlan& plan_;
  const std::size_t n_;
  const std::size_t pieces_;
  const std::size_t words_;  // 64-piece words per bitset row
  util::Rng rng_;
  util::Rng fault_rng_;

  std::vector<ClientVariant> variant_;
  std::vector<double> capacity_;
  // Piece bitsets, one row of words_ words per peer: bit p % 64 of word
  // [peer * words + p / 64].
  std::vector<std::uint64_t> have_;
  std::vector<std::size_t> have_count_;
  std::vector<std::uint8_t> active_;
  std::vector<std::int64_t> completion_tick_;
  std::vector<std::uint32_t> availability_;  // active holders per piece
  std::vector<std::uint64_t> claimed_;  // in flight to the row's receiver
  std::vector<std::int32_t> piece_from_;     // [receiver * n + sender]
  std::vector<double> bytes_done_;           // [receiver * pieces + p], KB
  std::vector<double> recv_cur_, recv_prev_;  // [receiver * n + sender], KB
  std::vector<std::uint32_t> streak_;        // choke periods of cooperation
  std::vector<std::vector<std::uint32_t>> unchoked_;
  std::vector<std::int32_t> optimistic_;
  std::vector<std::size_t> rechokes_since_rotation_;
  std::vector<std::uint32_t> tie_priority_;
  std::vector<std::int64_t> arrival_tick_;
  std::vector<double> uploaded_, downloaded_;
  double tick_transferred_ = 0.0;
  std::size_t seeder_rr_ = 0;

  // Fault state.
  std::vector<std::int64_t> crashed_until_;   // rejoin tick; -1 = not crashed
  std::vector<fault::CrashEvent> crash_schedule_;  // sorted by tick
  std::size_t next_crash_ = 0;
  bool seeder_out_ = false;
  bool awaiting_recovery_ = false;
  std::size_t recovery_start_ = 0;
  std::size_t down_since_ = 0;
  double recovery_total_ = 0.0;
  std::size_t recoveries_ = 0;
  FaultStats stats_;

  // Scratch.
  std::vector<std::uint32_t> candidates_;
  std::vector<std::uint32_t> scratch_;
  std::vector<std::uint32_t> targets_;
  std::vector<std::uint32_t> departing_;
  // Previous-round unchoke list, captured only while obs::enabled() so the
  // switch-rate sketch can diff against it. Never read by the simulation.
  std::vector<std::uint32_t> prev_unchoked_;

  // Flight recorder: level/stride latched at construction, events buffered
  // locally and flushed once when the engine dies. Never touches rng_ or
  // fault_rng_.
  obs::RunCapture capture_{obs::Recorder::global()};
  std::uint32_t tick_ = 0;
  bool record_full_tick_ = false;
};

}  // namespace

SwarmResult run_swarm(const std::vector<ClientVariant>& leechers,
                      const std::vector<double>& capacities,
                      const SwarmConfig& config) {
  if (leechers.empty() || leechers.size() != capacities.size()) {
    throw std::invalid_argument(
        "run_swarm: leechers/capacities must be equal-length and non-empty");
  }
  for (double c : capacities) {
    if (!(c > 0.0)) {
      throw std::invalid_argument("run_swarm: capacities must be positive");
    }
  }
  config.validate(leechers.size());
  SwarmEngine engine(leechers, capacities, config);
  return engine.run();
}

SwarmResult run_mixed_swarm(ClientVariant a, ClientVariant b,
                            std::size_t count_a, std::size_t total,
                            const SwarmConfig& config) {
  if (total == 0 || count_a > total) {
    throw std::invalid_argument("run_mixed_swarm: bad group sizes");
  }
  std::vector<ClientVariant> leechers;
  leechers.reserve(total);
  leechers.insert(leechers.end(), count_a, a);
  leechers.insert(leechers.end(), total - count_a, b);

  std::vector<double> capacities =
      swarming::BandwidthDistribution::piatek().stratified_sample(total);
  util::Rng rng(util::hash64(config.seed ^ 0x5b8f9a3c2d1e4f07ULL));
  rng.shuffle(capacities);

  {
    obs::RunCapture capture(obs::Recorder::global());
    if (capture.rounds()) {
      capture.emit({.kind = obs::EventKind::kMixedSwarm,
                    .run = config.seed,
                    .value = {{static_cast<double>(count_a),
                               static_cast<double>(total),
                               static_cast<double>(config.max_ticks), 0.0}},
                    .label = to_string(a) + "|" + to_string(b),
                    .detail = capture.context()});
    }
  }

  return run_swarm(leechers, capacities, config);
}

}  // namespace dsa::swarm
