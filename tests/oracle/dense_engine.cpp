#include "oracle/dense_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace dsa::swarming::oracle {

namespace {

/// The original (seed) implementation: all mutable per-run state laid out as
/// dense n^2 matrices refilled every round, freshly allocated per run.
/// Matrices are indexed [receiver * n + giver] so that one peer's view of
/// everyone who served it is a contiguous row. The numeric code and RNG draw
/// order are the seed's, verbatim; only its observability hooks are gone.
class DenseEngine {
 public:
  DenseEngine(const std::vector<ProtocolSpec>& protocols,
              const std::vector<double>& capacities,
              const SimulationConfig& config,
              const BandwidthDistribution* churn_source)
      : protocols_(protocols),
        capacities_(capacities),
        config_(config),
        churn_source_(churn_source),
        n_(protocols.size()),
        rng_(config.seed),
        received_now_(n_ * n_, 0.0),
        received_prev_(n_ * n_, 0.0),
        received_next_(n_ * n_, 0.0),
        interacted_now_(n_ * n_, 0),
        interacted_prev_(n_ * n_, 0),
        interacted_next_(n_ * n_, 0),
        streak_(n_ * n_, 0),
        aspiration_(capacities),
        round_received_(n_, 0.0),
        total_received_(n_, 0.0) {
    candidates_.reserve(n_);
    eligible_strangers_.reserve(n_);
    is_candidate_.assign(n_, 0);
    tie_priority_.assign(n_, 0);
  }

  SimulationOutcome run() {
    SimulationOutcome outcome;
    if (config_.record_round_series) {
      outcome.round_throughput.reserve(config_.rounds);
    }
    for (std::size_t round = 0; round < config_.rounds; ++round) {
      step(round);
      if (config_.record_round_series) {
        double round_mean = 0.0;
        for (std::size_t i = 0; i < n_; ++i) round_mean += round_received_[i];
        outcome.round_throughput.push_back(round_mean /
                                           static_cast<double>(n_));
      }
    }
    outcome.peer_throughput.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      outcome.peer_throughput[i] =
          total_received_[i] / static_cast<double>(config_.rounds);
    }
    outcome.peers_replaced = peers_replaced_;
    return outcome;
  }

 private:
  void step(std::size_t round) {
    std::fill(round_received_.begin(), round_received_.end(), 0.0);
    std::fill(received_next_.begin(), received_next_.end(), 0.0);
    std::fill(interacted_next_.begin(), interacted_next_.end(), 0);
    // Fresh random ranking tie-breaks each round; a fixed (e.g. index-based)
    // order would funnel every all-zero-tied choice onto the same peers.
    for (auto& priority : tie_priority_) {
      priority = static_cast<std::uint32_t>(rng_());
    }

    for (std::size_t me = 0; me < n_; ++me) act(me);

    finish_round(round);
  }

  /// Peer `me` selects partners/strangers and allocates its capacity,
  /// reading only the *_now_ / *_prev_ state and writing *_next_.
  void act(std::size_t me) {
    const ProtocolSpec& spec = protocols_[me];
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;

    // 1. Candidate list: everyone that interacted with me in the window.
    candidates_.clear();
    const std::uint8_t* now_row = &interacted_now_[me * n_];
    const std::uint8_t* prev_row = &interacted_prev_[me * n_];
    for (std::size_t j = 0; j < n_; ++j) {
      const bool known = now_row[j] || (two_rounds && prev_row[j]);
      is_candidate_[j] = known ? 1 : 0;
      if (known) candidates_.push_back(static_cast<std::uint32_t>(j));
    }

    // 2. Rank and select the top k partners.
    const std::size_t k = spec.partner_slots;
    std::size_t partner_count = std::min(k, candidates_.size());
    if (partner_count > 0) rank_candidates(me, spec, partner_count);

    // 3. Strangers. "When needed" measures fullness in *contributing*
    // partners (positive receipts over the window): a partner set stuffed
    // with zero-giving candidates is not full, so the peer keeps recruiting
    // — otherwise freeriders could permanently lock it out of cooperation by
    // flooding its candidate list.
    std::size_t stranger_count = 0;
    if (spec.stranger_slots > 0) {
      bool wants_strangers = true;
      if (spec.stranger_policy == StrangerPolicy::kWhenNeeded) {
        std::size_t contributing = 0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          if (window_received(me, candidates_[p], two_rounds) > 0.0) {
            ++contributing;
          }
        }
        wants_strangers = contributing < k;
      }
      if (wants_strangers) {
        stranger_count = pick_strangers(me, spec.stranger_slots);
      }
    }

    // 4. Allocation over FIXED lanes. The protocol's partner-slot count k is
    // one of its "magic numbers": capacity is split across k partner lanes
    // plus one lane per gifted stranger, and a partner lane with no partner
    // behind it simply wastes its bandwidth. This fixed-lane structure is
    // what makes low-k protocols the performance leaders (Fig. 3: filling 1
    // lane is easy, filling 9 is not) and caps partner-freeriders' utility
    // at their stranger-gift fraction (the ~0.31 ceiling of Sec. 4.4).
    // Defect-policy stranger contacts open no lane: defecting costs nothing.
    const bool defects_on_strangers =
        spec.stranger_policy == StrangerPolicy::kDefect;
    const std::size_t gifted_strangers =
        defects_on_strangers ? 0 : stranger_count;
    // Under kDivideAmongSelected the partner-lane count shrinks to the
    // partners actually present, so nothing is wasted (the ablation mode).
    const std::size_t partner_lanes =
        config_.lane_model == LaneModel::kFixedLanes ? k : partner_count;
    const std::size_t lanes = partner_lanes + gifted_strangers;
    if (defects_on_strangers) {
      for (std::size_t s = 0; s < stranger_count; ++s) {
        give(me, eligible_strangers_[s], 0.0);  // visible defection
      }
    }
    if (lanes == 0) return;

    const double capacity = capacities_[me];
    const double lane_rate = capacity / static_cast<double>(lanes);
    // Stranger lanes are short-lived probes; only a fraction of the lane's
    // bandwidth reaches the stranger (see SimulationConfig).
    const double gift = lane_rate * config_.stranger_efficiency;
    for (std::size_t s = 0; s < gifted_strangers; ++s) {
      give(me, eligible_strangers_[s], gift);
    }

    if (partner_count == 0) return;
    const double partner_budget =
        lane_rate * static_cast<double>(partner_lanes);
    switch (spec.allocation) {
      case AllocationPolicy::kEqualSplit: {
        // One lane per partner; unfilled lanes (partner_count < k) waste.
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates_[p], lane_rate);
        }
        break;
      }
      case AllocationPolicy::kPropShare: {
        double contribution_sum = 0.0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          contribution_sum += window_received(me, candidates_[p], two_rounds);
        }
        for (std::size_t p = 0; p < partner_count; ++p) {
          // An all-zero window gives nothing — the paper's bootstrap hazard.
          const double share =
              contribution_sum > 0.0
                  ? partner_budget *
                        window_received(me, candidates_[p], two_rounds) /
                        contribution_sum
                  : 0.0;
          give(me, candidates_[p], share);
        }
        break;
      }
      case AllocationPolicy::kFreeride: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates_[p], 0.0);
        }
        break;
      }
    }
  }

  /// Bandwidth `me` observed from `j` over the candidate window.
  [[nodiscard]] double window_received(std::size_t me, std::size_t j,
                                       bool two_rounds) const {
    double amount = received_now_[me * n_ + j];
    if (two_rounds) amount += received_prev_[me * n_ + j];
    return amount;
  }

  /// Partially sorts candidates_ so its first `top` entries are the selected
  /// partners under `spec.ranking`. Ties break on peer index for
  /// reproducibility.
  void rank_candidates(std::size_t me, const ProtocolSpec& spec,
                       std::size_t top) {
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;
    auto by_key = [&](auto key, bool descending) {
      auto cmp = [&, descending](std::uint32_t a, std::uint32_t b) {
        const double ka = key(a);
        const double kb = key(b);
        if (ka != kb) return descending ? ka > kb : ka < kb;
        if (tie_priority_[a] != tie_priority_[b]) {
          return tie_priority_[a] < tie_priority_[b];
        }
        return a < b;
      };
      std::partial_sort(candidates_.begin(), candidates_.begin() + top,
                        candidates_.end(), cmp);
    };
    switch (spec.ranking) {
      case RankingFunction::kFastest:
        by_key([&](std::uint32_t j) { return window_received(me, j, two_rounds); },
               /*descending=*/true);
        break;
      case RankingFunction::kSlowest:
        by_key([&](std::uint32_t j) { return window_received(me, j, two_rounds); },
               /*descending=*/false);
        break;
      case RankingFunction::kProximity:
        by_key(
            [&](std::uint32_t j) {
              return std::fabs(capacities_[j] - capacities_[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kAdaptive:
        by_key(
            [&](std::uint32_t j) {
              return std::fabs(capacities_[j] - aspiration_[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kLoyal:
        by_key(
            [&](std::uint32_t j) {
              return static_cast<double>(streak_[me * n_ + j]);
            },
            /*descending=*/true);
        break;
      case RankingFunction::kRandom:
        // A random draw of `top` candidates via partial Fisher-Yates.
        for (std::size_t i = 0; i < top; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(candidates_.size() - i));
          std::swap(candidates_[i], candidates_[j]);
        }
        break;
    }
  }

  /// Fills the front of eligible_strangers_ with up to `want` uniformly
  /// chosen peers outside the candidate list; returns how many were found.
  std::size_t pick_strangers(std::size_t me, std::size_t want) {
    eligible_strangers_.clear();
    for (std::size_t j = 0; j < n_; ++j) {
      if (j != me && !is_candidate_[j]) {
        eligible_strangers_.push_back(static_cast<std::uint32_t>(j));
      }
    }
    const std::size_t found = std::min(want, eligible_strangers_.size());
    for (std::size_t i = 0; i < found; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(
                  rng_.below(eligible_strangers_.size() - i));
      std::swap(eligible_strangers_[i], eligible_strangers_[j]);
    }
    return found;
  }

  /// Opens a slot from `me` to `to` carrying `amount` (possibly zero).
  void give(std::size_t me, std::size_t to, double amount) {
    interacted_next_[to * n_ + me] = 1;
    received_next_[to * n_ + me] = amount;
    round_received_[to] += amount;
  }

  void finish_round(std::size_t round) {
    // Receiver intake cap: a peer absorbs at most intake_factor * capacity
    // per round; excess inbound is lost proportionally across senders.
    if (config_.intake_factor > 0.0) {
      for (std::size_t j = 0; j < n_; ++j) {
        const double intake = config_.intake_factor * capacities_[j];
        if (round_received_[j] <= intake) continue;
        const double scale = intake / round_received_[j];
        double* row = &received_next_[j * n_];
        for (std::size_t i = 0; i < n_; ++i) row[i] *= scale;
        round_received_[j] = intake;
      }
    }

    // Shift the history window.
    received_prev_.swap(received_now_);
    received_now_.swap(received_next_);
    interacted_prev_.swap(interacted_now_);
    interacted_now_.swap(interacted_next_);

    // Cooperation streaks (Loyal): consecutive rounds with a positive gift.
    for (std::size_t idx = 0; idx < n_ * n_; ++idx) {
      streak_[idx] = received_now_[idx] > 0.0
                         ? static_cast<std::uint16_t>(
                               std::min<int>(streak_[idx] + 1, 0xffff))
                         : std::uint16_t{0};
    }

    // Aspiration tracking (Adaptive): smooth toward this round's per-slot
    // receipts.
    for (std::size_t i = 0; i < n_; ++i) {
      const double slots =
          std::max<double>(1.0, protocols_[i].partner_slots);
      const double per_slot = round_received_[i] / slots;
      aspiration_[i] += config_.aspiration_smoothing *
                        (per_slot - aspiration_[i]);
      total_received_[i] += round_received_[i];
    }

    // Churn: replace peers with fresh same-protocol ones. The legacy knob
    // runs first (preserving the historical RNG draw order), then the
    // scheduled fault processes in list order.
    if (config_.churn_rate > 0.0) {
      for (std::size_t i = 0; i < n_; ++i) {
        if (rng_.chance(config_.churn_rate)) replace_peer(i);
      }
    }
    for (const fault::FaultProcess& process : config_.faults) {
      apply_fault(process, round);
    }
  }

  void apply_fault(const fault::FaultProcess& process, std::size_t round) {
    using fault::FaultProcessKind;
    switch (process.kind) {
      case FaultProcessKind::kMemorylessChurn: {
        if (process.rate <= 0.0) break;
        for (std::size_t i = 0; i < n_; ++i) {
          if (rng_.chance(process.rate)) replace_peer(i);
        }
        break;
      }
      case FaultProcessKind::kBurstChurn: {
        // The burst strikes at the end of rounds period-1, 2*period-1, ...
        if ((round + 1) % process.period != 0) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        victim_scratch_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victim_scratch_[i] = static_cast<std::uint32_t>(i);
        }
        for (std::size_t i = 0; i < hit; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(n_ - i));
          std::swap(victim_scratch_[i], victim_scratch_[j]);
          replace_peer(victim_scratch_[i]);
        }
        break;
      }
      case FaultProcessKind::kCapacityDegradation: {
        if (round != process.round) break;
        for (std::size_t i = 0; i < n_; ++i) {
          capacities_[i] *= process.factor;
        }
        break;
      }
      case FaultProcessKind::kTargetedFailure: {
        if (round != process.round) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        // Take out exactly the top-capacity class (ties break on index so
        // replays are deterministic).
        victim_scratch_.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victim_scratch_[i] = static_cast<std::uint32_t>(i);
        }
        std::partial_sort(victim_scratch_.begin(),
                          victim_scratch_.begin() +
                              static_cast<std::ptrdiff_t>(std::min(hit, n_)),
                          victim_scratch_.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                            if (capacities_[a] != capacities_[b]) {
                              return capacities_[a] > capacities_[b];
                            }
                            return a < b;
                          });
        for (std::size_t i = 0; i < std::min(hit, n_); ++i) {
          replace_peer(victim_scratch_[i]);
        }
        break;
      }
    }
  }

  void replace_peer(std::size_t i) {
    ++peers_replaced_;
    capacities_[i] = churn_source_->sample(rng_);
    aspiration_[i] = capacities_[i];
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t row = i * n_ + j;
      const std::size_t col = j * n_ + i;
      for (auto* m : {&received_now_, &received_prev_}) {
        (*m)[row] = 0.0;
        (*m)[col] = 0.0;
      }
      for (auto* m : {&interacted_now_, &interacted_prev_}) {
        (*m)[row] = 0;
        (*m)[col] = 0;
      }
      streak_[row] = 0;
      streak_[col] = 0;
    }
    // The fresh peer's past downloads belong to the departed peer; the
    // paper measures population throughput, so the accumulator stays.
  }

  const std::vector<ProtocolSpec>& protocols_;
  std::vector<double> capacities_;
  const SimulationConfig& config_;
  const BandwidthDistribution* churn_source_;
  const std::size_t n_;
  util::Rng rng_;

  // History matrices, [receiver * n + giver].
  std::vector<double> received_now_, received_prev_, received_next_;
  std::vector<std::uint8_t> interacted_now_, interacted_prev_,
      interacted_next_;
  std::vector<std::uint16_t> streak_;

  std::vector<double> aspiration_;
  std::vector<double> round_received_;
  std::vector<double> total_received_;

  // Scratch buffers reused across rounds.
  std::vector<std::uint32_t> candidates_;
  std::vector<std::uint32_t> eligible_strangers_;
  std::vector<std::uint8_t> is_candidate_;
  std::vector<std::uint32_t> tie_priority_;
  std::vector<std::uint32_t> victim_scratch_;

  std::size_t peers_replaced_ = 0;
};

}  // namespace

SimulationOutcome simulate_rounds_dense(
    const std::vector<ProtocolSpec>& protocols,
    const std::vector<double>& capacities, const SimulationConfig& config,
    const BandwidthDistribution* churn_source) {
  if (protocols.empty() || protocols.size() != capacities.size()) {
    throw std::invalid_argument(
        "simulate_rounds_dense: protocols/capacities must be equal-length "
        "and non-empty");
  }
  config.validate();
  if (config.needs_churn_source() && churn_source == nullptr) {
    throw std::invalid_argument(
        "simulate_rounds_dense: replacing peers (churn_rate or a fault "
        "process) requires a bandwidth distribution");
  }
  DenseEngine engine(protocols, capacities, config, churn_source);
  return engine.run();
}

double DenseSwarmingModel::homogeneous_utility(std::uint32_t protocol,
                                               std::size_t population,
                                               std::uint64_t seed) const {
  SimulationConfig config = base_;
  config.seed = seed;
  const std::vector<ProtocolSpec> protocols(population,
                                            decode_protocol(protocol));
  return simulate_rounds_dense(
             protocols, shuffled_capacities(population, bandwidths_, seed),
             config, &bandwidths_)
      .population_mean();
}

std::pair<double, double> DenseSwarmingModel::mixed_utilities(
    std::uint32_t a, std::uint32_t b, std::size_t count_a,
    std::size_t count_b, std::uint64_t seed) const {
  SimulationConfig config = base_;
  config.seed = seed;
  const std::size_t n = count_a + count_b;
  std::vector<ProtocolSpec> protocols;
  protocols.reserve(n);
  protocols.insert(protocols.end(), count_a, decode_protocol(a));
  protocols.insert(protocols.end(), count_b, decode_protocol(b));
  const SimulationOutcome outcome = simulate_rounds_dense(
      protocols, shuffled_capacities(n, bandwidths_, seed), config,
      &bandwidths_);
  return {outcome.group_mean(0, count_a), outcome.group_mean(count_a, n)};
}

}  // namespace dsa::swarming::oracle
