#include "swarming/simulator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

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

/// A candidate's place in the ranking's (key, tie draw, id) total order,
/// packed into one integer: the key's bits, then the tie draw, then the
/// candidate's position in the ascending candidate list (positions order
/// like ids). The packing is exact only for finite keys >= +0: their
/// IEEE-754 bit patterns order like their values once `+ 0.0` folds -0.0
/// onto +0.0, and inverting the bits reverses the order. Every key is a
/// window bandwidth, a streak or a capacity distance, so simulate_rounds
/// rejects capacities that are negative or not finite.
using RankKey = unsigned __int128;

struct SimWorkspace::Impl {
  /// One slot of the interaction history: `giver` opened a slot carrying
  /// `value` to the receiver whose list holds it. `streak` counts the
  /// consecutive rounds ending here in which that giver gave the receiver a
  /// positive amount; it is kept only for receivers that rank by Loyal, the
  /// only ranking that reads it.
  struct Slot {
    std::uint32_t giver;
    std::uint32_t streak;
    double value;
  };

  /// One round of the interaction history as per-receiver slot lists: the
  /// slots opened to receiver `to` are slot[to * n + c] for c < count[to],
  /// ascending by giver (peers act in index order, so gives append in
  /// order). The now/prev/next roles rotate between rounds; recycling a
  /// generation resets its n counts.
  struct Generation {
    std::vector<Slot> slot;
    std::vector<std::uint32_t> count;
  };

  std::array<Generation, 3> gen;

  std::vector<double> capacities;
  std::vector<double> aspiration;
  std::vector<double> round_received;
  std::vector<double> total_received;

  // Per-peer scratch reused across rounds. The candidate arrays are aligned
  // by position and ascending by id.
  std::vector<std::uint32_t> candidates;
  std::vector<double> candidate_window;
  std::vector<std::uint32_t> candidate_streak;
  /// A giver's two window addends and its streak, scattered from the now
  /// and prev slot lists for the TF2T gather. Zero between acts: the gather
  /// resets each cell it reads, and clears the giver bitmap word by word.
  struct WindowCell {
    double now = 0.0;
    double prev = 0.0;
    std::uint32_t streak = 0;
  };
  std::vector<WindowCell> window_cells;
  std::vector<std::uint64_t> giver_bits;
  /// A selected partner with the window bandwidth it was ranked by, which
  /// the stranger rule, Prop Share and the recorder read.
  struct Partner {
    std::uint32_t id;
    double window;
  };
  std::vector<Partner> partners;
  std::vector<RankKey> rank_keys;
  /// Per exclusion e (the candidates and the acting peer), e's value minus
  /// its position in the ascending exclusion list: the count of eligible
  /// peers below it.
  std::vector<std::uint32_t> exclusion_keys;
  /// A position of the virtual eligible list that the stranger shuffle has
  /// overwritten.
  struct Patch {
    std::uint32_t pos;
    std::uint32_t value;
  };
  std::vector<Patch> overlay;
  /// The strangers picked by the last act, in draw order.
  std::vector<std::uint32_t> strangers;
  std::vector<std::uint32_t> tie_priority;
  std::vector<std::uint32_t> victim_scratch;

  /// True when the last prepare() found the slot storage already sized.
  bool last_prepare_reused = false;

  /// Readies the workspace for a fresh n-peer run. O(n) work and, once the
  /// buffers have grown to this n, zero allocations.
  void prepare(std::size_t n, const std::vector<double>& caps) {
    // A reuse hit means the slot storage was already big enough — the whole
    // run proceeds allocation-free (reported as the
    // sim.sparse.workspace_reuse_hits metric).
    last_prepare_reused = gen[0].slot.size() >= n * n;
    for (Generation& g : gen) {
      if (g.slot.size() < n * n) g.slot.resize(n * n);
      g.count.assign(n, 0);
    }
    capacities = caps;
    aspiration = caps;
    round_received.assign(n, 0.0);
    total_received.assign(n, 0.0);
    candidates.resize(n);
    candidate_window.resize(n);
    candidate_streak.resize(n);
    window_cells.assign(n, {});
    giver_bits.assign((n + 63) / 64, 0);
    partners.resize(n);
    rank_keys.resize(n);
    exclusion_keys.resize(n);
    overlay.clear();
    overlay.reserve(n);
    strangers.clear();
    strangers.reserve(n);
    tie_priority.assign(n, 0);
    victim_scratch.clear();
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
///  * The history is three generations of per-receiver slot lists whose
///    roles rotate. A give appends to its receiver's list, so every list
///    stays ascending by giver, and a candidate list is one list (TFT) or
///    two scattered into per-giver cells and gathered in ascending id
///    order (TF2T): the dense engine's ascending row scan.
///  * A candidate's window bandwidth and streak are read once, when the
///    candidate list is built, and carried through ranking, the stranger
///    rule, allocation and the recorder.
///  * Candidates are ordered only when something reads the order: Prop
///    Share's contribution sum and the full-level recorder. Otherwise each
///    partner gets one give to a distinct receiver, in any order, which
///    cannot change a bit, so only the top-k set is selected.
///  * A stranger is a position in the virtual list of eligible peers,
///    resolved in closed form from the candidate list; nothing is
///    materialized.
///  * Aspiration is updated only on Adaptive rows, its only reader.
///  * Streaks are kept only for receivers that rank by Loyal. A pair with
///    no slot in the latest generation has streak 0, exactly what the
///    dense full-matrix pass computes.
///  * Churn clears the replaced peer's own lists and removes it as a giver
///    from every other list, mirroring the dense row/column zeroing.
class SparseEngine {
  using Generation = SimWorkspace::Impl::Generation;
  using Slot = SimWorkspace::Impl::Slot;
  using Partner = SimWorkspace::Impl::Partner;

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
        if (capture_.rounds()) {
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

  /// Receiver `to`'s slot list in generation `g`.
  [[nodiscard]] Slot* slots(Generation& g, std::size_t to) {
    return g.slot.data() + to * n_;
  }

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
    const bool record_full = capture_.full();
    for (std::size_t me = 0; me < n_; ++me) {
      if (record_full) {
        act<true>(me);
      } else {
        act<false>(me);
      }
    }

    finish_round(round);
  }

  /// Builds the candidate list of `me` — everyone with a slot to it in the
  /// window — ascending by id, with each candidate's window bandwidth and
  /// streak, and returns its length. The TF2T window is the dense engine's
  /// now + prev sum addend for addend: a giver missing from one generation
  /// adds an exact 0.0 there. The TFT window is the slot value itself, so
  /// a -0.0 gift stays -0.0.
  std::size_t build_candidates(std::size_t me, bool two_rounds) {
    std::uint32_t* ids = ws_.candidates.data();
    double* window = ws_.candidate_window.data();
    std::uint32_t* streak = ws_.candidate_streak.data();
    const Slot* now = slots(gen(now_), me);
    const std::size_t now_count = gen(now_).count[me];
    if (!two_rounds) {
      for (std::size_t c = 0; c < now_count; ++c) {
        ids[c] = now[c].giver;
        window[c] = now[c].value;
        streak[c] = now[c].streak;
      }
      return now_count;
    }
    const Slot* prev = slots(gen(prev_), me);
    const std::size_t prev_count = gen(prev_).count[me];
    // Scatter both lists into per-giver cells, whose untouched addends are
    // 0.0, and mark the givers in a bitmap; only a slot in the latest
    // generation can carry a streak. The stores are independent: no list
    // position carries from one output to the next.
    auto* cell = ws_.window_cells.data();
    std::uint64_t* bits = ws_.giver_bits.data();
    for (std::size_t c = 0; c < now_count; ++c) {
      const std::uint32_t giver = now[c].giver;
      cell[giver].now = now[c].value;
      cell[giver].streak = now[c].streak;
      bits[giver / 64] |= std::uint64_t{1} << (giver % 64);
    }
    for (std::size_t c = 0; c < prev_count; ++c) {
      const std::uint32_t giver = prev[c].giver;
      cell[giver].prev = prev[c].value;
      bits[giver / 64] |= std::uint64_t{1} << (giver % 64);
    }
    // Gather in ascending id order, leaving the cells and bitmap zeroed.
    std::size_t out = 0;
    for (std::size_t w = 0; w < ws_.giver_bits.size(); ++w) {
      for (std::uint64_t word = std::exchange(bits[w], 0); word != 0;
           word &= word - 1) {
        const auto giver =
            static_cast<std::uint32_t>(w * 64 + std::countr_zero(word));
        ids[out] = giver;
        window[out] = cell[giver].now + cell[giver].prev;
        streak[out] = cell[giver].streak;
        cell[giver] = {};
        ++out;
      }
    }
    return out;
  }

  template <bool kRecordFull>
  void act(std::size_t me) {
    const ProtocolSpec& spec = protocols_[me];
    const bool two_rounds = spec.window == CandidateWindow::kTf2t;

    // 1. Candidate list (see build_candidates).
    const std::size_t count = build_candidates(me, two_rounds);
    candidates_scanned_ += count;

    // 2. Rank and select the top k partners. Prop Share's contribution sum
    // and the recorder's event order read the ranking itself.
    const std::size_t k = spec.partner_slots;
    const std::size_t partner_count = std::min(k, count);
    if (partner_count > 0) {
      select_partners(me, spec, count, partner_count,
                      kRecordFull ||
                          spec.allocation == AllocationPolicy::kPropShare);
    }
    const Partner* partners = ws_.partners.data();

    // 3. Strangers — same "when needed" fullness rule as the dense engine.
    std::size_t stranger_count = 0;
    if (spec.stranger_slots > 0) {
      bool wants_strangers = true;
      if (spec.stranger_policy == StrangerPolicy::kWhenNeeded) {
        std::size_t contributing = 0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          if (partners[p].window > 0.0) ++contributing;
        }
        wants_strangers = contributing < k;
      }
      if (wants_strangers) {
        stranger_count = pick_strangers(me, count, spec.stranger_slots);
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
    // Decision events (full level): pure reads of already-computed values;
    // rng_ is never touched.
    if constexpr (kRecordFull) {
      capture_.emit({.kind = obs::EventKind::kSelect,
                     .run = config_.seed,
                     .time = round_,
                     .actor = static_cast<std::uint32_t>(me),
                     .value = {{static_cast<double>(count),
                                static_cast<double>(partner_count),
                                static_cast<double>(stranger_count),
                                static_cast<double>(lanes)}}});
    }
    // `window` is the partner's window bandwidth (0.0 for strangers).
    auto record_give = [&](obs::EventKind kind, std::uint32_t to,
                           double amount, double window) {
      if constexpr (!kRecordFull) {
        (void)kind;
        (void)to;
        (void)amount;
        (void)window;
        return;
      } else {
        capture_.emit({.kind = kind,
                       .run = config_.seed,
                       .time = round_,
                       .actor = static_cast<std::uint32_t>(me),
                       .peer = to,
                       .value = {{amount, window, 0.0, 0.0}}});
      }
    };
    const std::uint32_t* strangers = ws_.strangers.data();
    if (defects_on_strangers) {
      for (std::size_t s = 0; s < stranger_count; ++s) {
        give(me, strangers[s], 0.0);  // visible defection
        record_give(obs::EventKind::kStranger, strangers[s], 0.0, 0.0);
      }
    }
    if (lanes == 0) return;

    const double capacity = ws_.capacities[me];
    const double lane_rate = capacity / static_cast<double>(lanes);
    const double gift = lane_rate * config_.stranger_efficiency;
    for (std::size_t s = 0; s < gifted_strangers; ++s) {
      give(me, strangers[s], gift);
      record_give(obs::EventKind::kStranger, strangers[s], gift, 0.0);
    }

    if (partner_count == 0) return;
    const double partner_budget =
        lane_rate * static_cast<double>(partner_lanes);
    switch (spec.allocation) {
      case AllocationPolicy::kEqualSplit: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, partners[p].id, lane_rate);
          record_give(obs::EventKind::kPartner, partners[p].id, lane_rate,
                      partners[p].window);
        }
        break;
      }
      case AllocationPolicy::kPropShare: {
        double contribution_sum = 0.0;
        for (std::size_t p = 0; p < partner_count; ++p) {
          contribution_sum += partners[p].window;
        }
        for (std::size_t p = 0; p < partner_count; ++p) {
          const double share =
              contribution_sum > 0.0
                  ? partner_budget * partners[p].window / contribution_sum
                  : 0.0;
          give(me, partners[p].id, share);
          record_give(obs::EventKind::kPartner, partners[p].id, share,
                      partners[p].window);
        }
        break;
      }
      case AllocationPolicy::kFreeride: {
        for (std::size_t p = 0; p < partner_count; ++p) {
          give(me, partners[p].id, 0.0);
          record_give(obs::EventKind::kPartner, partners[p].id, 0.0,
                      partners[p].window);
        }
        break;
      }
    }
  }

  /// Fills ws_.partners[0, top) with the `top` best of the `count`
  /// candidates in the dense engine's (key, tie draw, id) order, best first
  /// when `ordered`. Otherwise only the set is selected, in no particular
  /// order (ascending id when every candidate is selected): each partner
  /// gets one give to a distinct receiver, so the order of the gives cannot
  /// change a bit.
  void select_partners(std::size_t me, const ProtocolSpec& spec,
                       std::size_t count, std::size_t top, bool ordered) {
    Partner* partners = ws_.partners.data();
    const std::uint32_t* ids = ws_.candidates.data();
    const double* window = ws_.candidate_window.data();
    const bool random = spec.ranking == RankingFunction::kRandom;
    if (random || (top == count && !ordered)) {
      for (std::size_t c = 0; c < count; ++c) {
        partners[c] = {ids[c], window[c]};
      }
      if (!random) {
        ++unranked_selections_;
        return;
      }
      // A random draw of `top` candidates via partial Fisher-Yates over
      // the ascending list, draw for draw as the dense engine.
      for (std::size_t i = 0; i < top; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(rng_.below(count - i));
        std::swap(partners[i], partners[j]);
      }
      return;
    }

    RankKey* keys = ws_.rank_keys.data();
    auto pack = [&](auto key_of, bool descending) {
      const std::uint64_t flip = descending ? ~std::uint64_t{0} : 0;
      for (std::size_t c = 0; c < count; ++c) {
        const auto bits = std::bit_cast<std::uint64_t>(key_of(c) + 0.0);
        keys[c] = RankKey{bits ^ flip} << 64 |
                  RankKey{ws_.tie_priority[ids[c]]} << 32 | RankKey{c};
      }
    };
    switch (spec.ranking) {
      case RankingFunction::kFastest:
      case RankingFunction::kSlowest:
        pack([&](std::size_t c) { return window[c]; },
             /*descending=*/spec.ranking == RankingFunction::kFastest);
        break;
      case RankingFunction::kProximity:
      case RankingFunction::kAdaptive: {
        const double target = spec.ranking == RankingFunction::kProximity
                                  ? ws_.capacities[me]
                                  : ws_.aspiration[me];
        pack(
            [&](std::size_t c) {
              return std::fabs(ws_.capacities[ids[c]] - target);
            },
            /*descending=*/false);
        break;
      }
      case RankingFunction::kLoyal:
        pack(
            [&](std::size_t c) {
              return static_cast<double>(ws_.candidate_streak[c]);
            },
            /*descending=*/true);
        break;
      case RankingFunction::kRandom:
        break;  // drawn above
    }
    if (ordered && top > 1) {
      rank_front(keys, count, top);
    } else {
      select_front(keys, count, top);
    }
    for (std::size_t i = 0; i < top; ++i) {
      const auto c = static_cast<std::uint32_t>(keys[i]);
      partners[i] = {ids[c], window[c]};
    }
  }

  /// Moves the `top` smallest of the distinct keys[0, count) to the front,
  /// in no particular order: a later key that beats the worst kept one
  /// replaces it.
  static void select_front(RankKey* keys, std::size_t count,
                           std::size_t top) {
    auto worst_kept = [&] {
      std::size_t worst = 0;
      for (std::size_t i = 1; i < top; ++i) {
        worst = keys[worst] < keys[i] ? i : worst;
      }
      return worst;
    };
    std::size_t worst = worst_kept();
    for (std::size_t i = top; i < count; ++i) {
      if (!(keys[i] < keys[worst])) continue;
      keys[worst] = keys[i];
      worst = worst_kept();
    }
  }

  /// Moves the `top` (> 1) smallest of the distinct keys[0, count) to the
  /// front, ascending.
  static void rank_front(RankKey* keys, std::size_t count, std::size_t top) {
    constexpr std::size_t kCountingMax = 12;
    if (count <= kCountingMax) {
      // Rank by counting: a key's rank is the number of smaller keys. No
      // data-dependent branch, and the keys are distinct, so the ranks are
      // a permutation.
      RankKey ranked[kCountingMax];
      for (std::size_t i = 0; i < count; ++i) {
        std::size_t rank = 0;
        for (std::size_t j = 0; j < count; ++j) rank += keys[j] < keys[i];
        ranked[rank] = keys[i];
      }
      std::copy(ranked, ranked + top, keys);
      return;
    }
    // Boundary scan: keep the best `top` sorted at the front; most later
    // keys fail the one compare against the worst kept key.
    for (std::size_t i = 1; i < count; ++i) {
      const RankKey key = keys[i];
      if (i >= top && !(key < keys[top - 1])) continue;
      std::size_t pos = std::min(i, top - 1);
      for (; pos > 0 && key < keys[pos - 1]; --pos) keys[pos] = keys[pos - 1];
      keys[pos] = key;
    }
  }

  /// Uniform strangers without materializing the eligible list. The dense
  /// engine builds `eligible` = ascending [0, n) minus {me} minus the
  /// candidates, then partially Fisher-Yates-shuffles its front; here the
  /// same draws (`below(eligible_size - i)`, identical arguments, identical
  /// order) index a *virtual* copy of that list, and the swaps the shuffle
  /// would have made live in a small overlay.
  ///
  /// Position x of the virtual list is the x-th peer outside the ascending
  /// exclusion list e (the candidates with `me` counted in): x + #{j :
  /// e[j] - j <= x}, because e[j] - j peers below e[j] are eligible. The
  /// keys e[j] - j are computed once per act, so a position resolves with
  /// independent compares.
  std::size_t pick_strangers(std::size_t me, std::size_t count,
                             std::size_t want) {
    const std::uint32_t* ids = ws_.candidates.data();
    std::uint32_t* keys = ws_.exclusion_keys.data();
    const auto me_id = static_cast<std::uint32_t>(me);
    // A candidate above `me` sits one place further up the exclusion list.
    std::uint32_t below_me = 0;
    for (std::size_t c = 0; c < count; ++c) {
      below_me += ids[c] < me_id;
      keys[c] = ids[c] - static_cast<std::uint32_t>(c) - (ids[c] > me_id);
    }
    keys[count] = me_id - below_me;
    const std::size_t excluded = count + 1;
    const std::size_t eligible_size = n_ - excluded;
    auto base = [&](std::uint32_t x) {
      std::uint32_t value = x;
      for (std::size_t j = 0; j < excluded; ++j) value += keys[j] <= x;
      return value;
    };

    // Draw i reads positions i and j >= i, so a later draw never reads a
    // position below i + 1: only the swap's write to j is kept.
    auto& overlay = ws_.overlay;
    overlay.clear();
    auto read = [&](std::uint32_t pos) {
      for (const auto& patch : overlay) {
        if (patch.pos == pos) return patch.value;
      }
      return base(pos);
    };
    auto write = [&](std::uint32_t pos, std::uint32_t value) {
      for (auto& patch : overlay) {
        if (patch.pos == pos) {
          patch.value = value;
          return;
        }
      }
      overlay.push_back({pos, value});
    };

    auto& strangers = ws_.strangers;
    strangers.clear();
    const std::size_t found = std::min(want, eligible_size);
    for (std::size_t i = 0; i < found; ++i) {
      const auto j = static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(rng_.below(eligible_size - i)));
      const std::uint32_t picked = read(j);
      write(j, read(static_cast<std::uint32_t>(i)));
      strangers.push_back(picked);
    }
    return found;
  }

  /// Opens a slot from `me` to `to` carrying `amount` (possibly zero).
  void give(std::size_t me, std::size_t to, double amount) {
    Generation& next = gen(next_);
    slots(next, to)[next.count[to]++] = {static_cast<std::uint32_t>(me), 0,
                                         amount};
    ws_.round_received[to] += amount;
  }

  void finish_round(std::size_t round) {
    auto& round_received = ws_.round_received;

    // Receiver intake cap: scale this round's slots of a capped receiver,
    // as the dense engine scales its whole row (the zeros elsewhere stay
    // zero).
    if (config_.intake_factor > 0.0) {
      Generation& next = gen(next_);
      for (std::size_t to = 0; to < n_; ++to) {
        const double intake = config_.intake_factor * ws_.capacities[to];
        if (round_received[to] <= intake) continue;
        const double scale = intake / round_received[to];
        Slot* list = slots(next, to);
        for (std::size_t c = 0; c < next.count[to]; ++c) {
          list[c].value *= scale;
        }
        round_received[to] = intake;
      }
    }

    // Shift the history window: rotate generation roles; the recycled one
    // only resets its counts.
    const int recycled = prev_;
    prev_ = now_;
    now_ = next_;
    next_ = recycled;
    std::vector<std::uint32_t>& fresh = gen(next_).count;
    std::fill(fresh.begin(), fresh.end(), 0);

    // Cooperation streaks, only for receivers that rank by Loyal: nothing
    // else reads them, and churn replaces a peer with the same protocol. A
    // slot continues the streak its giver held in the previous round's list
    // or starts from 0, as in the dense full-matrix pass.
    Generation& now = gen(now_);
    Generation& prev = gen(prev_);
    for (std::size_t to = 0; to < n_; ++to) {
      if (protocols_[to].ranking != RankingFunction::kLoyal) continue;
      Slot* list = slots(now, to);
      const Slot* before = slots(prev, to);
      const std::size_t before_count = prev.count[to];
      std::size_t b = 0;
      for (std::size_t c = 0; c < now.count[to]; ++c) {
        while (b < before_count && before[b].giver < list[c].giver) ++b;
        const std::uint32_t held =
            b < before_count && before[b].giver == list[c].giver
                ? before[b].streak
                : 0;
        list[c].streak =
            list[c].value > 0.0 ? std::min<std::uint32_t>(held + 1, 0xffff)
                                : 0;
      }
    }

    // Aspiration tracking: smooth toward this round's per-slot receipts,
    // only on Adaptive rows, the only ranking that reads it.
    for (std::size_t i = 0; i < n_; ++i) {
      ws_.total_received[i] += round_received[i];
      if (protocols_[i].ranking != RankingFunction::kAdaptive) continue;
      const double slots =
          std::max<double>(1.0, protocols_[i].partner_slots);
      const double per_slot = round_received[i] / slots;
      ws_.aspiration[i] += config_.aspiration_smoothing *
                           (per_slot - ws_.aspiration[i]);
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

  /// Replaces peer i with a fresh same-protocol peer. Its own lists in the
  /// live generations are cleared and it is removed as a giver from every
  /// other list (its streaks go with its slots), mirroring the dense
  /// row/column zeroing.
  void replace_peer(std::size_t i) {
    ++peers_replaced_;
    ws_.capacities[i] = churn_source_->sample(rng_);
    ws_.aspiration[i] = ws_.capacities[i];
    const auto id = static_cast<std::uint32_t>(i);
    for (const int role : {now_, prev_}) {
      Generation& g = gen(role);
      g.count[i] = 0;
      for (std::size_t to = 0; to < n_; ++to) {
        Slot* list = slots(g, to);
        Slot* end = list + g.count[to];
        Slot* hit = std::lower_bound(
            list, end, id,
            [](const Slot& slot, std::uint32_t giver) {
              return slot.giver < giver;
            });
        if (hit == end || hit->giver != id) continue;
        std::copy(hit + 1, end, hit);
        --g.count[to];
      }
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
  std::size_t unranked_selections_ = 0;

  // Flight recorder: level latched at construction, events buffered locally
  // and flushed once when the engine dies. Never touches rng_.
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
    static const obs::Counter unranked =
        obs::Registry::global().counter("sim.sparse.unranked_selections");
    static const obs::Counter reuse =
        obs::Registry::global().counter("sim.sparse.workspace_reuse_hits");
    static const obs::Counter replaced =
        obs::Registry::global().counter("sim.sparse.peers_replaced");
    runs.increment();
    rounds.add(config_.rounds);
    scanned.add(candidates_scanned_);
    unranked.add(unranked_selections_);
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
  // The ranking's packed keys are exact only for finite keys >= +0 (see
  // RankKey), and every key derives from the capacities.
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    if (!(std::isfinite(capacities[i]) && capacities[i] >= 0.0)) {
      throw std::invalid_argument("simulate_rounds: capacities[" +
                                  std::to_string(i) +
                                  "] must be finite and >= 0");
    }
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
