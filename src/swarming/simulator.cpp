#include "swarming/simulator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"

namespace dsa::swarming {

void SimulationConfig::validate() const {
  if (rounds == 0) {
    throw std::invalid_argument("SimulationConfig.rounds: must be > 0");
  }
  if (!(churn_rate >= 0.0 && churn_rate <= 1.0)) {
    throw std::invalid_argument(
        "SimulationConfig.churn_rate: must be in [0, 1]");
  }
  if (!(aspiration_smoothing >= 0.0 && aspiration_smoothing <= 1.0)) {
    throw std::invalid_argument(
        "SimulationConfig.aspiration_smoothing: must be in [0, 1]");
  }
  if (!(stranger_efficiency >= 0.0 && stranger_efficiency <= 1.0)) {
    throw std::invalid_argument(
        "SimulationConfig.stranger_efficiency: must be in [0, 1]");
  }
  if (!(intake_factor >= 0.0)) {
    throw std::invalid_argument(
        "SimulationConfig.intake_factor: must be >= 0");
  }
  for (const fault::FaultProcess& process : faults) process.validate();
}

bool SimulationConfig::needs_churn_source() const noexcept {
  if (churn_rate > 0.0) return true;
  for (const fault::FaultProcess& process : faults) {
    if (process.replaces_peers()) return true;
  }
  return false;
}

double SimulationOutcome::group_mean(std::size_t begin, std::size_t end) const {
  if (begin >= end || end > peer_throughput.size()) {
    throw std::invalid_argument("SimulationOutcome::group_mean: bad range");
  }
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) sum += peer_throughput[i];
  return sum / static_cast<double>(end - begin);
}

double SimulationOutcome::population_mean() const {
  return group_mean(0, peer_throughput.size());
}

// ------------------------------------------------------------ workspace --

struct SimWorkspace::Impl {
  /// One generation of the interaction history. The now/prev/next roles
  /// rotate between rounds instead of copying. value[receiver * n + giver]
  /// carries a slot's bandwidth; the slot exists only while stamp matches
  /// the generation's epoch, so recycling a generation is an epoch bump
  /// plus list clears instead of an O(n^2) fill, and invalidating a churned
  /// peer's history is an O(n) stamp walk.
  /// A slot's bandwidth and the epoch stamp that says whether it is live.
  /// Packed together so a give or a stamped read touches one cache line.
  struct Cell {
    double value;
    std::uint64_t stamp;
  };
  struct Streak {
    std::uint64_t stamp;
    std::uint16_t value;
  };

  struct Generation {
    std::vector<Cell> cell;
    std::uint64_t epoch = 0;
    /// Per receiver: the givers that opened a slot to it this round, in
    /// ascending order (peers act in index order). Doubles as the round's
    /// touched-cell list — each ordered (giver, receiver) pair opens at
    /// most one slot per round.
    std::vector<std::vector<std::uint32_t>> in;
  };

  std::array<Generation, 3> gen;
  std::vector<Streak> streak;
  std::uint64_t streak_epoch = 0;
  /// Monotone epoch source, never reset: stamps written in earlier rounds
  /// or earlier runs can never collide with a live epoch, which is what
  /// makes cross-run reuse safe without clearing the O(n^2) arrays.
  std::uint64_t epoch_counter = 0;

  std::vector<double> capacities;
  std::vector<double> aspiration;
  std::vector<double> round_received;
  std::vector<double> total_received;

  // Per-peer scratch reused across rounds.
  std::vector<std::uint32_t> candidates;
  std::vector<std::uint32_t> eligible_strangers;
  std::vector<std::uint8_t> is_candidate;
  std::vector<std::uint32_t> tie_priority;
  std::vector<std::uint32_t> victim_scratch;
  std::vector<double> intake_scale;

  /// One ranked candidate with its ordering key hoisted out, so the
  /// partial sort compares scalars instead of re-reading the stamped
  /// history matrices on every comparison.
  struct RankEntry {
    double key;
    std::uint32_t tie;
    std::uint32_t id;
  };
  std::vector<RankEntry> rank_entries;
  std::vector<std::uint32_t> excluded_scratch;
  /// Window bandwidth per candidate, aligned with `candidates` at build
  /// time — the Fastest/Slowest ranking key without re-reading the
  /// history matrices.
  std::vector<double> candidate_window;

  std::uint64_t next_epoch() noexcept { return ++epoch_counter; }

  /// True when the last prepare() found the O(n^2) arrays already sized.
  bool last_prepare_reused = false;

  /// Readies the workspace for a fresh n-peer run. O(n) work and, once the
  /// buffers have grown to this n, zero allocations.
  void prepare(std::size_t n, const std::vector<double>& caps) {
    const std::size_t cells = n * n;
    // A reuse hit means the epoch-stamped arrays were already big enough —
    // the whole run proceeds allocation-free (reported as the
    // sim.sparse.workspace_reuse_hits metric).
    last_prepare_reused =
        gen[0].cell.size() >= cells && streak.size() >= cells;
    for (Generation& g : gen) {
      g.cell.resize(cells);
      g.epoch = next_epoch();
      // Clear every receiver list, including ones beyond this run's n left
      // over from an earlier, larger run.
      for (auto& list : g.in) list.clear();
      g.in.resize(n);
    }
    streak.resize(cells);
    streak_epoch = next_epoch();

    capacities = caps;
    aspiration = caps;
    round_received.assign(n, 0.0);
    total_received.assign(n, 0.0);
    candidates.clear();
    candidates.reserve(n);
    eligible_strangers.clear();
    eligible_strangers.reserve(n);
    is_candidate.assign(n, 0);
    tie_priority.assign(n, 0);
    victim_scratch.clear();
    intake_scale.assign(n, 0.0);
    rank_entries.clear();
    rank_entries.reserve(n);
    excluded_scratch.clear();
    excluded_scratch.reserve(n);
    candidate_window.clear();
    candidate_window.reserve(n);
  }
};

SimWorkspace::SimWorkspace() : impl_(std::make_unique<Impl>()) {}
SimWorkspace::~SimWorkspace() = default;
SimWorkspace::SimWorkspace(SimWorkspace&&) noexcept = default;
SimWorkspace& SimWorkspace::operator=(SimWorkspace&&) noexcept = default;

namespace {

/// Streams one finished run's per-peer score spread into the swarm-health
/// distribution "sim.score". Pure observer — never touches RNG or outcome
/// values.
void observe_score_spread(const std::vector<double>& peer_throughput) {
  if (!obs::enabled()) return;
  static const obs::Distribution score =
      obs::Registry::global().distribution("sim.score");
  for (double value : peer_throughput) score.observe(value);
}

/// The round model's one engine. It makes the same RNG draws and the same
/// floating-point operations, in the same order, as the seed's dense
/// O(n^2)-per-round implementation, which the tests keep as an oracle
/// (tests/oracle/dense_engine.cpp) and assert bitwise-identical outcomes
/// against. The state lives in a reusable SimWorkspace and a round costs
/// O(n * (k + h)), proportional to the slots actually opened:
///
///  * The three history generations rotate roles; recycling one bumps its
///    epoch instead of refilling n^2 cells, and stamp mismatches read as
///    "no slot" / 0.0.
///  * Candidate lists come from per-receiver incoming-giver lists (built
///    ascending as peers act in index order, so the merged candidate order
///    matches the dense engine's ascending row scan exactly).
///  * Streaks update only over the cells touched this round; absent stamped
///    entries are streak 0, which is exactly what the dense full-matrix
///    pass computes for untouched cells.
///  * Churn invalidates a peer's history with an O(n) stamp walk (stamp 0
///    is never a live epoch), mirroring the dense row/column zeroing.
class SparseEngine {
  using Generation = SimWorkspace::Impl::Generation;

 public:
  SparseEngine(const std::vector<ProtocolSpec>& protocols,
               const std::vector<double>& capacities,
               const SimulationConfig& config,
               const BandwidthDistribution* churn_source,
               SimWorkspace::Impl& ws)
      : protocols_(protocols),
        config_(config),
        churn_source_(churn_source),
        n_(protocols.size()),
        rng_(config.seed),
        ws_(ws) {
    ws_.prepare(n_, capacities);
  }

  SimulationOutcome run() {
    DSA_OBS_PHASE("sim/run");
    SimulationOutcome outcome;
    if (config_.record_round_series) {
      outcome.round_throughput.reserve(config_.rounds);
    }
    if (capture_.rounds()) {
      capture_.emit({.kind = obs::EventKind::kRun,
                     .run = config_.seed,
                     .value = {{static_cast<double>(n_),
                                static_cast<double>(config_.rounds),
                                config_.churn_rate, 1.0}},
                     .label = "round",
                     .detail = capture_.context()});
    }
    {
      DSA_OBS_PHASE("sim/rounds");
      for (std::size_t round = 0; round < config_.rounds; ++round) {
        step(round);
        if (config_.record_round_series) {
          double round_mean = 0.0;
          for (std::size_t i = 0; i < n_; ++i) {
            round_mean += ws_.round_received[i];
          }
          outcome.round_throughput.push_back(round_mean /
                                             static_cast<double>(n_));
        }
        if (capture_.rounds() && capture_.sampled(round)) {
          double round_mean = 0.0;
          for (std::size_t i = 0; i < n_; ++i) {
            round_mean += ws_.round_received[i];
          }
          capture_.emit({.kind = obs::EventKind::kRound,
                         .run = config_.seed,
                         .time = static_cast<std::uint32_t>(round),
                         .value = {{round_mean / static_cast<double>(n_),
                                    static_cast<double>(peers_replaced_), 0.0,
                                    0.0}}});
        }
      }
    }
    outcome.peer_throughput.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      outcome.peer_throughput[i] =
          ws_.total_received[i] / static_cast<double>(config_.rounds);
    }
    outcome.peers_replaced = peers_replaced_;
    observe_score_spread(outcome.peer_throughput);
    if (capture_.rounds()) {
      for (std::size_t i = 0; i < n_; ++i) {
        capture_.emit({.kind = obs::EventKind::kPeer,
                       .run = config_.seed,
                       .actor = static_cast<std::uint32_t>(i),
                       .value = {{ws_.capacities[i], outcome.peer_throughput[i],
                                  0.0, 0.0}},
                       .label = protocols_[i].describe()});
      }
    }
    flush_metrics();
    return outcome;
  }

 private:
  [[nodiscard]] Generation& gen(int role) { return ws_.gen[role]; }
  [[nodiscard]] const Generation& gen(int role) const { return ws_.gen[role]; }

  void step(std::size_t round) {
    std::fill(ws_.round_received.begin(), ws_.round_received.end(), 0.0);
    // Same tie-break draws, in the same RNG positions, as the dense engine.
    for (auto& priority : ws_.tie_priority) {
      priority = static_cast<std::uint32_t>(rng_());
    }

    round_ = static_cast<std::uint32_t>(round);
    // act() is templated on the record flag so the non-recording
    // instantiation compiles to exactly the pre-recorder hot path — the
    // emit sites must not cost codegen when recording is off.
    const bool record_full = capture_.full() && capture_.sampled(round);
    for (std::size_t me = 0; me < n_; ++me) {
      if (record_full) {
        act<true>(me);
      } else {
        act<false>(me);
      }
      // Restore the all-zero candidate-mark invariant for the next peer
      // (the dense engine instead overwrites the whole array per peer).
      // excluded_scratch holds the full candidate set in build order — the
      // candidates list itself only keeps its ranked top-k intact.
      for (const std::uint32_t j : ws_.excluded_scratch) {
        ws_.is_candidate[j] = 0;
      }
    }

    finish_round(round);
  }

  /// Builds the candidate list of `me` — everyone with a live slot to it in
  /// the window — in ascending peer order, matching the dense row scan.
  void build_candidates(std::size_t me, bool two_rounds) {
    auto& candidates = ws_.candidates;
    candidates.clear();
    ws_.candidate_window.clear();
    const Generation& now = gen(now_);
    const std::size_t base = me * n_;
    // Each push records the candidate's window bandwidth alongside it; the
    // arithmetic mirrors window_received() addend for addend, so a ranking
    // key read from candidate_window is bit-equal to recomputing it.
    auto push = [&](std::uint32_t j, double window) {
      ws_.is_candidate[j] = 1;
      candidates.push_back(j);
      ws_.candidate_window.push_back(window);
    };
    const std::vector<std::uint32_t>& now_in = now.in[me];
    if (!two_rounds) {
      for (const std::uint32_t j : now_in) {
        const SimWorkspace::Impl::Cell& cell = now.cell[base + j];
        if (cell.stamp == now.epoch) push(j, cell.value);
      }
      return;
    }
    // Merge the two ascending giver lists, deduplicating; a giver counts if
    // its slot in either generation is still live (churn may have stamped
    // one of them out).
    const Generation& prev = gen(prev_);
    const std::vector<std::uint32_t>& prev_in = prev.in[me];
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < now_in.size() || b < prev_in.size()) {
      if (b == prev_in.size() ||
          (a < now_in.size() && now_in[a] < prev_in[b])) {
        // Only in now's list: the prev generation never wrote this cell, so
        // the prev addend of the window is exactly 0.0.
        const std::uint32_t j = now_in[a++];
        const SimWorkspace::Impl::Cell& cell = now.cell[base + j];
        if (cell.stamp == now.epoch) push(j, cell.value + 0.0);
      } else if (a == now_in.size() || prev_in[b] < now_in[a]) {
        const std::uint32_t j = prev_in[b++];
        const SimWorkspace::Impl::Cell& cell = prev.cell[base + j];
        if (cell.stamp == prev.epoch) push(j, 0.0 + cell.value);
      } else {
        const std::uint32_t j = now_in[a];
        ++a;
        ++b;
        const SimWorkspace::Impl::Cell& now_cell = now.cell[base + j];
        const SimWorkspace::Impl::Cell& prev_cell = prev.cell[base + j];
        const bool now_live = now_cell.stamp == now.epoch;
        const bool prev_live = prev_cell.stamp == prev.epoch;
        if (now_live || prev_live) {
          double window = now_live ? now_cell.value : 0.0;
          window += prev_live ? prev_cell.value : 0.0;
          push(j, window);
        }
      }
    }
  }

  template <bool kRecordFull>
  void act(std::size_t me) {
    const ProtocolSpec& spec = protocols_[me];
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;

    // 1. Candidate list (see build_candidates).
    build_candidates(me, two_rounds);
    auto& candidates = ws_.candidates;
    candidates_scanned_ += candidates.size();  // only live slots are touched
    // Snapshot the ascending candidate set before ranking permutes the
    // list: it is the stranger-exclusion set and the mark-clearing list.
    ws_.excluded_scratch.assign(candidates.begin(), candidates.end());

    // 2. Rank and select the top k partners.
    const std::size_t k = spec.partner_slots;
    std::size_t partner_count = std::min(k, candidates.size());
    if (partner_count > 0) rank_candidates(me, spec, partner_count);

    // 3. Strangers — same "when needed" fullness rule as the dense engine.
    std::size_t stranger_count = 0;
    if (spec.stranger_slots > 0) {
      bool wants_strangers = true;
      if (spec.stranger_policy == StrangerPolicy::kWhenNeeded) {
        std::size_t contributing = 0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          if (window_received(me, candidates[p], two_rounds) > 0.0) {
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
    // Under kDivideAmongSelected the partner-lane count shrinks to the
    // partners actually present, so nothing is wasted (the ablation mode).
    const bool defects_on_strangers =
        spec.stranger_policy == StrangerPolicy::kDefect;
    const std::size_t gifted_strangers =
        defects_on_strangers ? 0 : stranger_count;
    const std::size_t partner_lanes =
        config_.lane_model == LaneModel::kFixedLanes ? k : partner_count;
    const std::size_t lanes = partner_lanes + gifted_strangers;
    // Decision events (full level, strided): pure reads of already-computed
    // values; rng_ is never touched.
    if constexpr (kRecordFull) {
      capture_.emit({.kind = obs::EventKind::kSelect,
                     .run = config_.seed,
                     .time = round_,
                     .actor = static_cast<std::uint32_t>(me),
                     .value = {{static_cast<double>(candidates.size()),
                                static_cast<double>(partner_count),
                                static_cast<double>(stranger_count),
                                static_cast<double>(lanes)}}});
    }
    auto record_give = [&](obs::EventKind kind, std::uint32_t to,
                           double amount) {
      if constexpr (!kRecordFull) {
        (void)kind;
        (void)to;
        (void)amount;
        return;
      } else {
        obs::Event event{.kind = kind,
                         .run = config_.seed,
                         .time = round_,
                         .actor = static_cast<std::uint32_t>(me),
                         .peer = to};
        event.value[0] = amount;
        if (kind == obs::EventKind::kPartner) {
          event.value[1] = window_received(me, to, two_rounds);
        }
        capture_.emit(std::move(event));
      }
    };
    if (defects_on_strangers) {
      for (std::size_t s = 0; s < stranger_count; ++s) {
        give(me, ws_.eligible_strangers[s], 0.0);  // visible defection
        record_give(obs::EventKind::kStranger, ws_.eligible_strangers[s], 0.0);
      }
    }
    if (lanes == 0) return;

    const double capacity = ws_.capacities[me];
    const double lane_rate = capacity / static_cast<double>(lanes);
    const double gift = lane_rate * config_.stranger_efficiency;
    for (std::size_t s = 0; s < gifted_strangers; ++s) {
      give(me, ws_.eligible_strangers[s], gift);
      record_give(obs::EventKind::kStranger, ws_.eligible_strangers[s], gift);
    }

    if (partner_count == 0) return;
    const double partner_budget =
        lane_rate * static_cast<double>(partner_lanes);
    switch (spec.allocation) {
      case AllocationPolicy::kEqualSplit: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates[p], lane_rate);
          record_give(obs::EventKind::kPartner, candidates[p], lane_rate);
        }
        break;
      }
      case AllocationPolicy::kPropShare: {
        double contribution_sum = 0.0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          contribution_sum += window_received(me, candidates[p], two_rounds);
        }
        for (std::size_t p = 0; p < partner_count; ++p) {
          const double share =
              contribution_sum > 0.0
                  ? partner_budget *
                        window_received(me, candidates[p], two_rounds) /
                        contribution_sum
                  : 0.0;
          give(me, candidates[p], share);
          record_give(obs::EventKind::kPartner, candidates[p], share);
        }
        break;
      }
      case AllocationPolicy::kFreeride: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, candidates[p], 0.0);
          record_give(obs::EventKind::kPartner, candidates[p], 0.0);
        }
        break;
      }
    }
  }

  /// Bandwidth `me` observed from `j` over the window: stamped reads, so a
  /// recycled or churn-invalidated cell contributes exactly 0.0.
  [[nodiscard]] double window_received(std::size_t me, std::size_t j,
                                       bool two_rounds) const {
    const std::size_t idx = me * n_ + j;
    const Generation& now = gen(now_);
    const SimWorkspace::Impl::Cell& now_cell = now.cell[idx];
    double amount = now_cell.stamp == now.epoch ? now_cell.value : 0.0;
    if (two_rounds) {
      const Generation& prev = gen(prev_);
      const SimWorkspace::Impl::Cell& prev_cell = prev.cell[idx];
      amount += prev_cell.stamp == prev.epoch ? prev_cell.value : 0.0;
    }
    return amount;
  }

  [[nodiscard]] double streak_of(std::size_t me, std::size_t j) const {
    const SimWorkspace::Impl::Streak& s = ws_.streak[me * n_ + j];
    return s.stamp == ws_.streak_epoch ? static_cast<double>(s.value) : 0.0;
  }

  void rank_candidates(std::size_t me, const ProtocolSpec& spec,
                       std::size_t top) {
    auto& candidates = ws_.candidates;
    // The ordering (key, then tie priority, then index) is a strict total
    // order, so the selected top-k — and their order — is the same for any
    // correct selection algorithm; hoisting the keys out of the comparator
    // cannot change the result, only the cost per comparison.
    auto by_key = [&](auto key, bool descending) {
      using RankEntry = SimWorkspace::Impl::RankEntry;
      auto cmp = [descending](const RankEntry& a, const RankEntry& b) {
        if (a.key != b.key) return descending ? a.key > b.key : a.key < b.key;
        if (a.tie != b.tie) return a.tie < b.tie;
        return a.id < b.id;
      };
      constexpr std::size_t kSmallTop = 16;  // design space: k <= 9
      const std::size_t count = candidates.size();
      if (top <= kSmallTop) {
        ++topk_boundary_scans_;
        // Boundary-scan selection: keep a sorted window of the best `top`
        // seen so far; most entries fail the single compare against the
        // window's worst and cost nothing more.
        RankEntry best[kSmallTop];
        std::size_t filled = 0;
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint32_t j = candidates[i];
          const RankEntry e{key(i, j), ws_.tie_priority[j], j};
          if (filled == top && !cmp(e, best[top - 1])) continue;
          std::size_t pos = filled < top ? filled : top - 1;
          while (pos > 0 && cmp(e, best[pos - 1])) {
            best[pos] = best[pos - 1];
            --pos;
          }
          best[pos] = e;
          if (filled < top) ++filled;
        }
        for (std::size_t i = 0; i < top; ++i) candidates[i] = best[i].id;
        return;
      }
      auto& entries = ws_.rank_entries;
      entries.clear();
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t j = candidates[i];
        entries.push_back({key(i, j), ws_.tie_priority[j], j});
      }
      std::partial_sort(entries.begin(), entries.begin() + top, entries.end(),
                        cmp);
      for (std::size_t i = 0; i < top; ++i) candidates[i] = entries[i].id;
    };
    // Keys take (position, id): Fastest/Slowest read the window recorded at
    // build time (bit-equal to window_received, see build_candidates), the
    // others derive from the id.
    switch (spec.ranking) {
      case RankingFunction::kFastest:
        by_key([&](std::size_t i, std::uint32_t) {
                 return ws_.candidate_window[i];
               },
               /*descending=*/true);
        break;
      case RankingFunction::kSlowest:
        by_key([&](std::size_t i, std::uint32_t) {
                 return ws_.candidate_window[i];
               },
               /*descending=*/false);
        break;
      case RankingFunction::kProximity:
        by_key(
            [&](std::size_t, std::uint32_t j) {
              return std::fabs(ws_.capacities[j] - ws_.capacities[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kAdaptive:
        by_key(
            [&](std::size_t, std::uint32_t j) {
              return std::fabs(ws_.capacities[j] - ws_.aspiration[me]);
            },
            /*descending=*/false);
        break;
      case RankingFunction::kLoyal:
        by_key([&](std::size_t, std::uint32_t j) { return streak_of(me, j); },
               /*descending=*/true);
        break;
      case RankingFunction::kRandom:
        for (std::size_t i = 0; i < top; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(candidates.size() - i));
          std::swap(candidates[i], candidates[j]);
        }
        break;
    }
  }

  /// Uniform strangers without materializing the eligible list. The dense
  /// engine builds `eligible` = ascending [0, n) minus {me} minus the
  /// candidates, then partially Fisher-Yates-shuffles its front; here the
  /// same draws (`below(eligible_size - i)`, identical arguments, identical
  /// order) index a *virtual* copy of that list: position x resolves to the
  /// x-th non-excluded peer in O(|excluded|), and the handful of swaps the
  /// shuffle would have made live in a tiny overlay. Falls back to the
  /// materialized scan when the exclusion set is a large fraction of n —
  /// both paths pick identical peers.
  std::size_t pick_strangers(std::size_t me, std::size_t want) {
    constexpr std::size_t kMaxOverlayPicks = 8;  // design space: h <= 3
    auto& eligible = ws_.eligible_strangers;

    // excluded_scratch already holds the ascending candidate set (snapshot
    // taken in act() before ranking permuted the list); slot `me` in.
    auto& excluded = ws_.excluded_scratch;
    const auto me_id = static_cast<std::uint32_t>(me);
    excluded.insert(std::lower_bound(excluded.begin(), excluded.end(), me_id),
                    me_id);
    const std::size_t eligible_size = n_ - excluded.size();

    if (want > kMaxOverlayPicks) {
      // Materialize the eligible list as the complement of the sorted
      // exclusions — contiguous runs instead of a per-element branch.
      eligible.clear();
      std::uint32_t from = 0;
      for (const std::uint32_t e : excluded) {
        for (std::uint32_t j = from; j < e; ++j) eligible.push_back(j);
        from = e + 1;
      }
      for (std::uint32_t j = from; j < n_; ++j) eligible.push_back(j);
      const std::size_t found = std::min(want, eligible.size());
      for (std::size_t i = 0; i < found; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng_.below(eligible.size() - i));
        std::swap(eligible[i], eligible[j]);
      }
      return found;
    }

    // x-th element of ascending [0, n) minus the sorted exclusions. The
    // full walk is branch-predictable (a conditional increment, no early
    // exit) and the exclusion list is small.
    auto base = [&](std::size_t x) {
      std::uint32_t value = static_cast<std::uint32_t>(x);
      for (const std::uint32_t e : excluded) {
        if (e <= value) ++value;
      }
      return value;
    };
    // Sparse overlay of the virtual list: at most two entries per pick.
    struct Patch {
      std::size_t pos;
      std::uint32_t value;
    };
    Patch patches[2 * kMaxOverlayPicks];
    std::size_t patch_count = 0;
    auto read = [&](std::size_t pos) {
      for (std::size_t p = 0; p < patch_count; ++p) {
        if (patches[p].pos == pos) return patches[p].value;
      }
      return base(pos);
    };
    auto write = [&](std::size_t pos, std::uint32_t value) {
      for (std::size_t p = 0; p < patch_count; ++p) {
        if (patches[p].pos == pos) {
          patches[p].value = value;
          return;
        }
      }
      patches[patch_count++] = {pos, value};
    };

    eligible.clear();
    const std::size_t found = std::min(want, eligible_size);
    for (std::size_t i = 0; i < found; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.below(eligible_size - i));
      const std::uint32_t picked = read(j);
      write(j, read(i));
      write(i, picked);
      eligible.push_back(picked);
    }
    return found;
  }

  /// Opens a slot from `me` to `to` carrying `amount` (possibly zero).
  void give(std::size_t me, std::size_t to, double amount) {
    Generation& next = gen(next_);
    next.cell[to * n_ + me] = {amount, next.epoch};
    next.in[to].push_back(static_cast<std::uint32_t>(me));
    ws_.round_received[to] += amount;
  }

  void finish_round(std::size_t round) {
    auto& round_received = ws_.round_received;

    // Receiver intake cap, over the touched cells only. Every touched cell
    // of `next` is still live here (nothing can invalidate `next` before
    // the swap), and scaling untouched cells would multiply zeros.
    if (config_.intake_factor > 0.0) {
      Generation& next = gen(next_);
      bool any_capped = false;
      for (std::size_t j = 0; j < n_; ++j) {
        const double intake = config_.intake_factor * ws_.capacities[j];
        if (round_received[j] <= intake) {
          ws_.intake_scale[j] = -1.0;  // sentinel: not capped
          continue;
        }
        ws_.intake_scale[j] = intake / round_received[j];
        round_received[j] = intake;
        any_capped = true;
      }
      if (any_capped) {
        for (std::size_t to = 0; to < n_; ++to) {
          const double scale = ws_.intake_scale[to];
          if (scale < 0.0) continue;
          const std::size_t base = to * n_;
          for (const std::uint32_t giver : next.in[to]) {
            next.cell[base + giver].value *= scale;
          }
        }
      }
    }

    // Shift the history window: rotate generation roles; the recycled one
    // gets a fresh epoch instead of an O(n^2) refill.
    const int recycled = prev_;
    prev_ = now_;
    now_ = next_;
    next_ = recycled;
    Generation& fresh = gen(next_);
    fresh.epoch = ws_.next_epoch();
    for (std::size_t j = 0; j < n_; ++j) fresh.in[j].clear();

    // Cooperation streaks: only cells given to this round can be positive;
    // every other cell's streak is 0, i.e. simply absent under the new
    // streak epoch. The in-lists enumerate exactly this round's cells.
    const Generation& now = gen(now_);
    const std::uint64_t new_streak_epoch = ws_.next_epoch();
    for (std::size_t to = 0; to < n_; ++to) {
      const std::size_t base = to * n_;
      for (const std::uint32_t giver : now.in[to]) {
        const std::size_t idx = base + giver;
        if (now.cell[idx].value > 0.0) {
          SimWorkspace::Impl::Streak& s = ws_.streak[idx];
          const int prev_streak = s.stamp == ws_.streak_epoch ? s.value : 0;
          s.value = static_cast<std::uint16_t>(
              std::min<int>(prev_streak + 1, 0xffff));
          s.stamp = new_streak_epoch;
        }
      }
    }
    ws_.streak_epoch = new_streak_epoch;

    // Aspiration tracking (Adaptive): smooth toward this round's per-slot
    // receipts.
    for (std::size_t i = 0; i < n_; ++i) {
      const double slots =
          std::max<double>(1.0, protocols_[i].partner_slots);
      const double per_slot = round_received[i] / slots;
      ws_.aspiration[i] += config_.aspiration_smoothing *
                           (per_slot - ws_.aspiration[i]);
      ws_.total_received[i] += round_received[i];
    }

    // Churn, then scheduled fault processes — same RNG draw order as the
    // dense engine.
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
        if ((round + 1) % process.period != 0) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        auto& victims = ws_.victim_scratch;
        victims.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victims[i] = static_cast<std::uint32_t>(i);
        }
        for (std::size_t i = 0; i < hit; ++i) {
          const std::size_t j =
              i + static_cast<std::size_t>(rng_.below(n_ - i));
          std::swap(victims[i], victims[j]);
          replace_peer(victims[i]);
        }
        break;
      }
      case FaultProcessKind::kCapacityDegradation: {
        if (round != process.round) break;
        for (std::size_t i = 0; i < n_; ++i) {
          ws_.capacities[i] *= process.factor;
        }
        break;
      }
      case FaultProcessKind::kTargetedFailure: {
        if (round != process.round) break;
        const auto hit = static_cast<std::size_t>(std::lround(
            process.fraction * static_cast<double>(n_)));
        if (hit == 0) break;
        auto& victims = ws_.victim_scratch;
        victims.resize(n_);
        for (std::size_t i = 0; i < n_; ++i) {
          victims[i] = static_cast<std::uint32_t>(i);
        }
        std::partial_sort(victims.begin(),
                          victims.begin() +
                              static_cast<std::ptrdiff_t>(std::min(hit, n_)),
                          victims.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                            if (ws_.capacities[a] != ws_.capacities[b]) {
                              return ws_.capacities[a] > ws_.capacities[b];
                            }
                            return a < b;
                          });
        for (std::size_t i = 0; i < std::min(hit, n_); ++i) {
          replace_peer(victims[i]);
        }
        break;
      }
    }
  }

  /// Replaces peer i with a fresh same-protocol peer. History invalidation
  /// is an O(n) stamp walk over i's row and column in the live generations
  /// and the streak table — stamp 0 is never a live epoch.
  void replace_peer(std::size_t i) {
    ++peers_replaced_;
    ws_.capacities[i] = churn_source_->sample(rng_);
    ws_.aspiration[i] = ws_.capacities[i];
    Generation& now = gen(now_);
    Generation& prev = gen(prev_);
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t row = i * n_ + j;
      const std::size_t col = j * n_ + i;
      now.cell[row].stamp = 0;
      now.cell[col].stamp = 0;
      prev.cell[row].stamp = 0;
      prev.cell[col].stamp = 0;
      ws_.streak[row].stamp = 0;
      ws_.streak[col].stamp = 0;
    }
  }

  const std::vector<ProtocolSpec>& protocols_;
  const SimulationConfig& config_;
  const BandwidthDistribution* churn_source_;
  const std::size_t n_;
  util::Rng rng_;
  SimWorkspace::Impl& ws_;

  // Roles of ws_.gen entries; rotated each round.
  int prev_ = 0;
  int now_ = 1;
  int next_ = 2;

  std::size_t peers_replaced_ = 0;
  // Plain local tallies, flushed to the metrics registry once per run —
  // the hot loops never touch an atomic.
  std::size_t candidates_scanned_ = 0;
  std::size_t topk_boundary_scans_ = 0;

  // Flight recorder: level/stride latched at construction, events buffered
  // locally and flushed once when the engine dies. Never touches rng_.
  obs::RunCapture capture_{obs::Recorder::global()};
  std::uint32_t round_ = 0;

  void flush_metrics() const {
    if (!obs::enabled()) return;
    static const obs::Counter runs =
        obs::Registry::global().counter("sim.sparse.runs");
    static const obs::Counter rounds =
        obs::Registry::global().counter("sim.sparse.rounds");
    static const obs::Counter scanned =
        obs::Registry::global().counter("sim.sparse.candidates_scanned");
    static const obs::Counter boundary =
        obs::Registry::global().counter("sim.sparse.topk_boundary_scans");
    static const obs::Counter reuse =
        obs::Registry::global().counter("sim.sparse.workspace_reuse_hits");
    static const obs::Counter replaced =
        obs::Registry::global().counter("sim.sparse.peers_replaced");
    runs.increment();
    rounds.add(config_.rounds);
    scanned.add(candidates_scanned_);
    boundary.add(topk_boundary_scans_);
    if (ws_.last_prepare_reused) reuse.increment();
    replaced.add(peers_replaced_);
  }
};

}  // namespace

SimulationOutcome simulate_rounds(const std::vector<ProtocolSpec>& protocols,
                                  const std::vector<double>& capacities,
                                  const SimulationConfig& config,
                                  const BandwidthDistribution* churn_source,
                                  SimWorkspace* workspace) {
  if (protocols.empty() || protocols.size() != capacities.size()) {
    throw std::invalid_argument(
        "simulate_rounds: protocols/capacities must be equal-length and "
        "non-empty");
  }
  config.validate();
  if (config.needs_churn_source() && churn_source == nullptr) {
    throw std::invalid_argument(
        "simulate_rounds: replacing peers (churn_rate or a fault process) "
        "requires a bandwidth distribution");
  }
  if (workspace == nullptr) {
    // One reusable workspace per thread: a sweep's worker threads each
    // allocate once and then run every simulation allocation-free.
    static thread_local SimWorkspace shared;
    workspace = &shared;
  }
  SparseEngine engine(protocols, capacities, config, churn_source,
                      workspace->impl());
  return engine.run();
}

std::vector<double> shuffled_capacities(std::size_t count,
                                        const BandwidthDistribution& dist,
                                        std::uint64_t seed) {
  std::vector<double> capacities = dist.stratified_sample(count);
  util::Rng rng(util::hash64(seed ^ 0x9d2c5680cafef00dULL));
  rng.shuffle(capacities);
  return capacities;
}

EncounterOutcome run_encounter(const ProtocolSpec& a, const ProtocolSpec& b,
                               std::size_t count_a, std::size_t count_b,
                               const SimulationConfig& config,
                               const BandwidthDistribution& bandwidths) {
  if (count_a == 0 || count_b == 0) {
    throw std::invalid_argument("run_encounter: both groups must be non-empty");
  }
  const std::size_t n = count_a + count_b;
  std::vector<ProtocolSpec> protocols;
  protocols.reserve(n);
  protocols.insert(protocols.end(), count_a, a);
  protocols.insert(protocols.end(), count_b, b);
  const SimulationOutcome outcome =
      simulate_rounds(protocols, shuffled_capacities(n, bandwidths, config.seed),
                      config, &bandwidths);
  EncounterOutcome result;
  result.group_a_mean = outcome.group_mean(0, count_a);
  result.group_b_mean = outcome.group_mean(count_a, n);
  return result;
}

double run_homogeneous_throughput(const ProtocolSpec& spec, std::size_t count,
                                  const SimulationConfig& config,
                                  const BandwidthDistribution& bandwidths) {
  if (count == 0) {
    throw std::invalid_argument("run_homogeneous_throughput: empty swarm");
  }
  std::vector<ProtocolSpec> protocols(count, spec);
  const SimulationOutcome outcome = simulate_rounds(
      protocols, shuffled_capacities(count, bandwidths, config.seed), config,
      &bandwidths);
  return outcome.population_mean();
}

}  // namespace dsa::swarming
